import ast
import hashlib
import importlib
import json
import math
import os
import pkgutil
import random
import shlex
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import riffle
from riffle import combinatorics, laws
from riffle.cli import (
    MAX_GRID_POINTS,
    _plain,
    main,
    parse_a_n,
    parse_float_grid,
    parse_int_grid,
    parse_k_range,
    parse_pack_spec,
)
from riffle.combinatorics import MAX_EXACT_N, decimal_to_int
from riffle.cutoff import continuous_cutoff_report, second_eigenvalue


class TestParsers:
    def test_pack_spec_fractions(self):
        p = parse_pack_spec("2:1/2,3:1/2")
        assert p.atoms == ((2, Fraction(1, 2)), (3, Fraction(1, 2)))

    def test_pack_spec_point_mass(self):
        assert parse_pack_spec("2:1").atoms == ((2, Fraction(1)),)

    def test_pack_spec_rejects_floats(self):
        with pytest.raises(ValueError):
            parse_pack_spec("2:0.5,3:0.5")

    def test_pack_spec_rejects_bad_mass(self):
        with pytest.raises(ValueError):
            parse_pack_spec("2:1/3,3:1/3")

    def test_pack_spec_rejects_a_repeated_pack_count(self):
        with pytest.raises(ValueError, match="duplicate pack count 2"):
            parse_pack_spec("2:1/2,3:1/4,2:1/4")

    def test_k_range(self):
        assert parse_k_range("1..12") == range(1, 13)

    def test_k_range_holds_at_most_max_grid_points(self):
        assert len(parse_k_range(f"1..{MAX_GRID_POINTS}")) == MAX_GRID_POINTS
        with pytest.raises(ValueError, match="more than"):
            parse_k_range(f"0..{MAX_GRID_POINTS}")

    def test_a_n_expressions(self):
        n = 52
        assert parse_a_n("logn", n) == math.log(n)
        assert parse_a_n("2*logn", n) == 2 * math.log(n)
        assert parse_a_n("3.5", n) == 3.5
        with pytest.raises(ValueError):
            parse_a_n("__import__('os')", n)

    def test_a_n_grammar(self):
        logn = math.log(52)
        # Same values, operation for operation, as Python's own arithmetic.
        for expr, value in [
            ("(1+2)*3", 9.0),
            ("2--3", 5.0),
            ("-2*-3", 6.0),
            ("10/4/5", 10 / 4 / 5),
            (" 0.5 * logn ", 0.5 * logn),
            ("logn/2+1", logn / 2 + 1),
            (".5", 0.5),
        ]:
            assert parse_a_n(expr, 52) == value
        for expr in ["", "2**3", "2logn", "(1", "1)", "1/0", "1.2.3", "1e5", "-1", "1-1", "9" * 400, "(" * 5000]:
            with pytest.raises(ValueError):
                parse_a_n(expr, 52)


class TestProfile:
    def test_n2_single_step(self, runner):
        result = runner.invoke(main, ["profile", "--n", "2", "--p", "2:1", "--k", "1..1"])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0] == "k,tv_exact,tv_float,bd_estimate"
        assert lines[1].startswith("1,1/4,0.25,")

    def test_gsr52_profile_monotone(self, runner):
        result = runner.invoke(
            main, ["profile", "--n", "52", "--p", "2:1", "--k", "1..12"]
        )
        assert result.exit_code == 0
        rows = result.output.strip().splitlines()[1:]
        assert len(rows) == 12
        tvs = [float(r.split(",")[2]) for r in rows]
        assert all(b <= a for a, b in zip(tvs, tvs[1:]))
        assert 0.32 <= tvs[6] <= 0.35

    def test_mixture_profile_small_at_k10(self, runner):
        result = runner.invoke(
            main, ["profile", "--n", "52", "--p", "2:1/2,3:1/2", "--k", "1..12"]
        )
        assert result.exit_code == 0
        rows = result.output.strip().splitlines()[1:]
        tvs = [float(r.split(",")[2]) for r in rows]
        assert all(tv < 0.05 for tv in tvs[9:])

    def test_json_output_byte_stable(self, runner):
        args = ["profile", "--n", "8", "--p", "2:1", "--k", "1..3", "--format", "json"]
        a = runner.invoke(main, args)
        b = runner.invoke(main, args)
        assert a.exit_code == 0
        assert a.output == b.output
        payload = json.loads(a.output)
        assert payload["config"]["command"] == "profile"
        assert len(payload["rows"]) == 3

    def test_bad_spec_exits_2(self, runner):
        result = runner.invoke(main, ["profile", "--n", "8", "--p", "2:0.5", "--k", "1..2"])
        assert result.exit_code == 2


class TestCutoff:
    def test_gsr_report(self, runner):
        result = runner.invoke(main, ["cutoff", "--n", "52", "--p", "2:1"])
        assert result.exit_code == 0
        report = json.loads(result.output)["report"]
        assert abs(float(report["t_n"]) - 1.5 * math.log2(52)) < 1e-12
        assert report["degenerate"] is True

    def test_mixture_report_t_n(self, runner):
        result = runner.invoke(main, ["cutoff", "--n", "52", "--p", "2:1/2,3:1/2"])
        assert result.exit_code == 0
        report = json.loads(result.output)["report"]
        assert abs(float(report["t_n"]) - 6.6156) < 1e-3
        assert report["beta"] == {"num": "5", "den": "12"}

    def test_delta1_exits_2(self, runner):
        result = runner.invoke(main, ["cutoff", "--n", "52", "--p", "1:1"])
        assert result.exit_code == 2

    def test_truncation_section(self, runner):
        result = runner.invoke(
            main, ["cutoff", "--n", "52", "--p", "2:1/2,3:1/2", "--a-n", "logn"]
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert "truncation" in payload
        assert float(payload["truncation"]["a_n"]) == math.log(52)

    def test_continuous_section(self, runner):
        result = runner.invoke(main, ["cutoff", "--n", "52", "--p", "2:1/2,3:1/2"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        report = continuous_cutoff_report(parse_pack_spec("2:1/2,3:1/2"), 52)
        assert payload["continuous"] == _plain(report._asdict())
        # Both clocks share the critical time t_n = 3 log n / (2 mu).
        assert payload["continuous"]["t_n"] == payload["report"]["t_n"]
        assert payload["continuous"]["single_atom"] is False

    def test_n_grid_rows(self, runner):
        result = runner.invoke(
            main,
            ["cutoff", "--n-grid", "100:300:100", "--p", "2:1/2,3:1/2", "--format", "csv"],
        )
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0].startswith("n,mu,sigma,t_n")
        assert len(lines) == 4

    def test_invsq_family_on_grid(self, runner):
        result = runner.invoke(
            main,
            ["cutoff", "--n-grid", "1000:3000:1000", "--p", "invsq", "--format", "csv"],
        )
        assert result.exit_code == 0
        assert len(result.output.strip().splitlines()) == 4

    @pytest.mark.parametrize(
        "args",
        [
            ["profile", "--n", "52", "--k", "2..8"],
            ["poisson", "--n", "52", "--t", "2:6:2"],
            ["cutoff", "--n", "52", "--a-n", "logn"],
        ],
        ids=["profile", "poisson", "cutoff"],
    )
    def test_invsq_family_at_one_deck_size(self, runner, args):
        # The family is evaluated at --n, as the grid evaluates it at each n:
        # at n = 52 it is m = 2, 7, 20 with weights 1, 1/4, 1/9, normalized.
        family = runner.invoke(main, [*args, "--p", "invsq"])
        spelled = runner.invoke(main, [*args, "--p", "2:36/49,7:9/49,20:4/49"])
        assert family.exit_code == spelled.exit_code == 0
        assert family.output.replace('"invsq"', '"2:36/49,7:9/49,20:4/49"') == spelled.output
        if args[0] == "profile":
            tvs = [round(float(line.split(",")[2]), 4) for line in family.output.splitlines()[1:]]
            assert tvs == [0.9041, 0.7224, 0.4961, 0.2957, 0.1544, 0.0659, 0.0271]

    @pytest.mark.parametrize(
        "args, tvs",
        [
            (
                ["--n", "200", "--p", "invsq", "--k", "2..8"],
                [0.9420, 0.8276, 0.6563, 0.4725, 0.3022, 0.1727, 0.0862],
            ),
            (
                ["--n", "52", "--p", "2:19/20,2704:1/20", "--k", "5..9"],
                [0.7148, 0.4511, 0.2333, 0.1109, 0.0539],
            ),
            (
                ["--n", "200", "--p", "2:19/20,40000:1/20", "--k", "7..11"],
                [0.6977, 0.5918, 0.3638, 0.1858, 0.0903],
            ),
        ],
        ids=["invsq-200", "heavy-tail-52", "heavy-tail-200"],
    )
    def test_family_and_heavy_tail_profiles_are_pinned(self, runner, args, tvs):
        # The README's "Families and heavy tails" rows; the heavy tails put
        # 1/20 on m = n**2, so log m > log n on that atom.
        result = runner.invoke(main, ["profile", *args])
        assert result.exit_code == 0
        printed = [round(float(line.split(",")[2]), 4) for line in result.output.splitlines()[1:]]
        assert printed == tvs

    def test_single_atom_lindeberg_is_empty(self, runner):
        # Undefined for one atom: null in JSON, an empty cell in CSV.
        args = ["cutoff", "--n-grid", "10:20:10", "--p", "2:1"]
        result = runner.invoke(main, [*args, "--format", "json"])
        assert result.exit_code == 0
        rows = json.loads(result.output)["rows"]
        assert [row["lindeberg_eps1"] for row in rows] == [None, None]
        result = runner.invoke(main, [*args, "--format", "csv"])
        assert result.exit_code == 0
        header, *lines = result.output.splitlines()
        column = header.split(",").index("lindeberg_eps1")
        assert [line.split(",")[column] for line in lines] == ["", ""]

    def test_requires_exactly_one_n(self, runner):
        result = runner.invoke(main, ["cutoff", "--p", "2:1"])
        assert result.exit_code == 2

    def test_single_n_report_rejects_csv(self):
        # The --n report nests objects that a CSV row cannot hold.
        proc = _run_cli(
            "cutoff", "--n", "52", "--p", "2:1", "--format", "csv", capture_output=True, text=True
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert [line for line in proc.stderr.splitlines() if line.startswith("Error: ")] == [
            "Error: the --n report is JSON only; --format csv needs --n-grid"
        ]

    def test_eigenvalue_past_the_str_digit_limit(self, runner):
        # 1200 primes from 10007 up, weight 1/1200 each: beta = sum p(m)/m
        # has a denominator of over 5000 digits, past str()'s 4300.
        sieve = bytearray([1]) * 30_000
        for i in range(2, 174):
            sieve[i * i :: i] = bytes(len(sieve[i * i :: i]))
        primes = [m for m in range(10_007, len(sieve)) if sieve[m]][:1200]
        spec = ",".join(f"{m}:1/1200" for m in primes)
        result = runner.invoke(main, ["cutoff", "--n", "52", "--p", spec])
        assert result.exit_code == 0, result.output
        beta = json.loads(result.output)["report"]["beta"]
        exact, _ = second_eigenvalue(parse_pack_spec(spec))
        assert len(beta["den"]) > 4300
        assert (decimal_to_int(beta["num"]), decimal_to_int(beta["den"])) == (
            exact.numerator, exact.denominator
        )


class TestVerify:
    def test_composition_suite_n5(self, runner):
        result = runner.invoke(main, ["verify", "--suite", "composition", "--n", "5"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["ok"] is True
        names = [v["property"] for v in payload["suites"]["composition"]]
        assert any("2x2_equals_4" in name for name in names)

    def test_tailsets_suite_small(self, runner):
        result = runner.invoke(
            main, ["verify", "--suite", "tailsets", "--n", "5", "--m", "10"]
        )
        assert result.exit_code == 0
        assert json.loads(result.output)["ok"] is True

    def test_sampler_suite_with_dump(self, runner, tmp_path):
        # One header, then every (n, m) cell's first-attempt draws, each row
        # naming its cell.
        dump = tmp_path / "samples.csv"
        result = runner.invoke(
            main,
            [
                "verify", "--suite", "sampler", "--n", "3", "--m", "2",
                "--N", "50", "--seed", "7", "--dump-csv", str(dump),
            ],
        )
        assert result.exit_code == 0
        header, *rows = dump.read_text().splitlines()
        assert header == "n,m,trial,r"
        assert len(rows) == 4 * 50
        cells: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for row in rows:
            n, m, trial, r = map(int, row.split(","))
            cells.setdefault((n, m), []).append((trial, r))
        assert sorted(cells) == [(2, 1), (2, 2), (3, 1), (3, 2)]
        for (n, _), draws in cells.items():
            assert [trial for trial, _ in draws] == list(range(50))
            assert all(1 <= r <= n for _, r in draws)

    @pytest.mark.parametrize(
        "option, value",
        [("--N", "0"), ("--N", "-5"), ("--n", "0"), ("--m", "0")],
        ids=["N0", "N-neg", "n0", "m0"],
    )
    def test_bounds_below_one_are_usage_errors(self, runner, option, value):
        # Each used to fail its own way, or to pass vacuously with "ok": true.
        args = ["verify", "--suite", "sampler", "--n", "3", "--m", "2", "--N", "100"]
        result = runner.invoke(main, [*args, option, value])
        assert result.exit_code == 2
        assert f"Error: argument {option}: " in result.output

    @pytest.mark.parametrize("suite", ["sampler", "all"])
    def test_sampler_deck_bound_below_two_is_a_usage_error(self, runner, suite):
        # --n 1 leaves the sampler no deck size to check; it used to pass
        # vacuously with "ok": true.
        args = ["verify", "--suite", suite, "--m", "2", "--N", "100"]
        result = runner.invoke(main, [*args, "--n", "1"])
        assert result.exit_code == 2
        assert result.output.count("\n") == 1 and "Error: argument --n: " in result.output

    def test_deck_bound_of_one_still_runs_the_exact_suites(self, runner):
        result = runner.invoke(main, ["verify", "--suite", "tailsets", "--n", "1", "--m", "2"])
        assert result.exit_code == 0

    def test_dump_csv_without_the_sampler_suite_is_refused(self, runner, tmp_path):
        dump = tmp_path / "keep.csv"
        dump.write_text("earlier contents\n")
        result = runner.invoke(
            main, ["verify", "--suite", "tailsets", "--n", "3", "--m", "2", "--dump-csv", str(dump)]
        )
        assert result.exit_code == 2
        assert "--dump-csv" in result.output
        assert dump.read_text() == "earlier contents\n"

    @pytest.mark.parametrize(
        "args, lines, digest",
        [
            (["--seed", "3", "--N", "20000"], 500_001,
             "cbbf87f705330fc73fc00fd5e8fc2fea485a208dbf68a7f1483a9b60023744a3"),
            (["--n", "4", "--m", "20", "--N", "5000", "--seed", "4"], 300_001,
             "e5b374b82388e6018a85dbdd50c120d84c5acc9c7bf7faf8e88520cb1cf7e9a0"),
        ],
        ids=["m5", "m20"],
    )
    def test_sampler_dump_is_pinned(self, runner, tmp_path, args, lines, digest):
        # m5: 25 cells of 20000 draws; each deck size crosses a chunk
        # boundary and shares one draw of its uniforms among its five pack
        # counts. m20: 60 cells of 5000 draws, whose pack counts run past
        # the kernels' comparison cut (_COMPARE_PACKS) onto its bincount.
        dump = tmp_path / "samples.csv"
        result = runner.invoke(
            main, ["verify", "--suite", "sampler", *args, "--dump-csv", str(dump)]
        )
        assert result.exit_code == 0
        assert json.loads(result.output)["ok"] is True
        data = dump.read_bytes()
        assert data.count(b"\n") == lines
        assert hashlib.sha256(data).hexdigest() == digest

    @pytest.mark.parametrize(
        "args, target, key, wrong, detail",
        [
            (["tailsets", "--n", "3", "--m", "2"], "tail_set_gap", (3, 2, 2),
             lambda real, n, m, r: -real(n, m, r), "violations: [(3, 2, 2)]"),
            (["oracles", "--n", "3", "--m", "2"], "m_shuffle_law", (3, 2),
             lambda real, n, m: real(n, m + 1), "mismatches: [(3, 2)]"),
            (["composition", "--n", "4"], "m_shuffle_law", (4, 4),
             lambda real, n, m: real(n, m + 1), "mismatches at n=[4]"),
        ],
        ids=["violations", "mismatches", "mismatches-at-n"],
    )
    def test_failure_details_are_pinned(self, runner, monkeypatch, args, target, key, wrong, detail):
        # One wrong value per detail format: exactly one verdict fails, and
        # its detail lists the case.
        from riffle import verify

        real = getattr(verify, target)
        monkeypatch.setattr(
            verify, target, lambda *at: wrong(real, *at) if at == key else real(*at)
        )
        result = runner.invoke(main, ["verify", "--suite", *args])
        assert result.exit_code == 1
        verdicts = json.loads(result.output)["suites"][args[0]]
        assert [v["detail"] for v in verdicts if not v["ok"]] == [detail]

    def test_unknown_suite_exits_2(self, runner):
        result = runner.invoke(main, ["verify", "--suite", "nope"])
        assert result.exit_code == 2

    def test_default_bounds_all_pass(self, runner):
        result = runner.invoke(main, ["verify"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["ok"] is True
        assert set(payload["suites"]) == {
            "composition", "monotonicity", "oracles", "sampler", "tailsets",
        }

    def test_violation_exits_1(self, runner, monkeypatch):
        from riffle import verify

        def broken_suite(**kwargs):
            return [{"property": "always_fails", "ok": False, "detail": "forced"}]

        monkeypatch.setitem(verify.SUITES, "tailsets", broken_suite)
        result = runner.invoke(main, ["verify", "--suite", "tailsets"])
        assert result.exit_code == 1
        assert json.loads(result.output)["ok"] is False


class TestPoisson:
    def test_time_zero_row(self, runner):
        result = runner.invoke(
            main, ["poisson", "--n", "6", "--p", "2:1", "--t", "0:0:1"]
        )
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0] == "t,tv,certificate,truncation_k"
        tv = float(lines[1].split(",")[1])
        assert tv == 1 - 1 / math.factorial(6)

    def test_grid_monotone_within_certificates(self, runner):
        result = runner.invoke(
            main,
            ["poisson", "--n", "20", "--p", "2:1", "--t", "2:12:2", "--tol", "1e-9"],
        )
        assert result.exit_code == 0
        rows = result.output.strip().splitlines()[1:]
        tvs = [float(r.split(",")[1]) for r in rows]
        assert all(b <= a + 2e-9 for a, b in zip(tvs, tvs[1:]))

    def test_tolerances_agree(self, runner):
        out = {}
        for tol in ("1e-9", "1e-6"):
            result = runner.invoke(
                main, ["poisson", "--n", "10", "--p", "2:1", "--t", "3:3:1", "--tol", tol]
            )
            assert result.exit_code == 0
            out[tol] = float(result.output.strip().splitlines()[1].split(",")[1])
        assert abs(out["1e-9"] - out["1e-6"]) <= 1e-6

    def test_bad_tol_exits_2(self, runner):
        result = runner.invoke(
            main, ["poisson", "--n", "6", "--p", "2:1", "--t", "0:1:1", "--tol", "2"]
        )
        assert result.exit_code == 2
        assert "tolerance must be in (0, 1), got 2.0" in result.output

    def test_float_weights_past_one_exit_0(self, runner):
        # The float weights' exact total is 1 + 8.1e-17: the law is rescaled to mass 1.
        result = runner.invoke(
            main,
            ["poisson", "--n", "6", "--p", "2:1/2,3:1/2", "--t", "31.25:31.25:1", "--tol", "1e-15"],
        )
        assert result.exit_code == 0, result.output


class TestBigOutputs:
    def test_profile_renders_numbers_past_the_str_digit_limit(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["profile", "--n", "1000", "--p", "2:1", "--k", "14..15", "--cache", str(tmp_path)],
        )
        assert result.exit_code == 0, result.output
        lines = result.output.strip().splitlines()
        assert lines[0] == "k,tv_exact,tv_float,bd_estimate"
        for k, line in zip((14, 15), lines[1:]):
            k_text, tv_exact, tv_float, _ = line.split(",")
            num, den = (decimal_to_int(part) for part in tv_exact.split("/"))
            assert int(k_text) == k
            assert len(tv_exact) > 4300
            assert math.isclose(num / den, float(tv_float), rel_tol=1e-15)


class TestSizeGuardExit:
    def test_profile_exits_3_when_product_law_explodes(self, runner, monkeypatch):
        # At n = 40 step 2, of 10 atoms, is still built and mixed atom by atom.
        monkeypatch.setattr(laws, "MAX_PRODUCT_ATOMS", 5)
        result = runner.invoke(
            main,
            ["profile", "--n", "40", "--p", "2:1/4,3:1/4,5:1/4,7:1/4", "--k", "1..6"],
        )
        assert result.exit_code == 3

    def test_environment_sets_no_product_guard(self, runner, monkeypatch):
        # The guard is the module constant alone; this variable once set it.
        monkeypatch.setenv("RIFFLE_MAX_PRODUCT_ATOMS", "1")
        result = runner.invoke(
            main,
            ["profile", "--n", "40", "--p", "2:1/4,3:1/4,5:1/4,7:1/4", "--k", "1..6"],
        )
        assert result.exit_code == 0

    def test_sampler_exits_3_before_a_huge_pack_count_allocates(self, runner, monkeypatch):
        # m * 16384 cells would not fit: the guard fires before the sampler
        # draws a uniform or calls a kernel.
        from riffle import _kernels, sampling

        def refuse(*args):
            raise AssertionError("the sampler ran past its size guard")

        monkeypatch.setattr(_kernels, "shuffled_rising_counts", refuse)
        monkeypatch.setattr(sampling, "_threshold_draws", refuse)
        m = sampling.MAX_CHUNK_CELLS // sampling._CHUNK + 1
        result = runner.invoke(main, ["verify", "--suite", "sampler", "--n", "2", "--m", str(m)])
        assert result.exit_code == 3
        assert result.output.startswith("size guard: pack count") and result.output.count("\n") == 1

    def test_sampler_exits_3_before_a_huge_deck_draws(self, runner, monkeypatch, tmp_path):
        # n * 16384 cells of cut uniforms would not fit at the largest deck
        # size: the guard fires before deck size 2 is drawn or the dump opens
        # its header, not once the suite reaches n = 1025.
        from riffle import _kernels, sampling

        def refuse(*args):
            raise AssertionError("the sampler ran past its size guard")

        monkeypatch.setattr(_kernels, "shuffled_rising_counts", refuse)
        monkeypatch.setattr(sampling, "_threshold_draws", refuse)
        dump = tmp_path / "draws.csv"
        result = runner.invoke(
            main, ["verify", "--suite", "sampler", "--n", "5000", "--m", "2", "--dump-csv", str(dump)]
        )
        assert result.exit_code == 3
        assert result.output == (
            "size guard: pack count 2 at deck size 5000 needs 81920000 cells, over 16777216\n"
        )
        assert dump.read_text() == ""


class TestLibraryValueErrorExit:
    # Values the parsers accept but the library rejects, and the usage errors
    # argparse finds (the click-* cases, named for the front end that first
    # had them): a one-line error and exit 2, checked on the real stderr of a
    # CLI process.
    @pytest.mark.parametrize(
        "args, message",
        [
            (["profile", "--n", "0", "--p", "2:1", "--k", "1..2"], "deck size must be >= 1, got 0"),
            (["poisson", "--n", "0", "--p", "2:1", "--t", "1:2:1"], "deck size must be >= 1, got 0"),
            (["cutoff", "--n-grid", "1:3:1", "--p", "invsq"], "deck size 1 too small"),
            (["profile", "--n", "2", "--p", "invsq", "--k", "1..2"], "deck size 2 too small"),
            (
                ["verify", "--suite", "sampler", "--n", "3", "--m", "2", "--N", "100", "--seed", "-1"],
                "seed and split must be nonnegative",
            ),
            (["cutoff", "--n", "0", "--p", "2:1"], "deck size must be >= 2, got 0"),
            (["cutoff", "--n", "1", "--p", "2:1"], "deck size must be >= 2, got 1"),
            (["verify", "--N", "0"], "Error: argument --N: "),
            (["verify", "--N", "abc"], "Error: argument --N: "),
            (["profile", "--n", "5", "--p", "2.0:1", "--k", "1..2"], "Error: bad pack entry '2.0:1'"),
            (["profile", "--n", "5", "--p", "2:1"], "Error: the following arguments are required: --k"),
            (["nosuch"], "Error: argument COMMAND: invalid choice: 'nosuch'"),
            (["--bogus"], "Error: unrecognized arguments: --bogus"),
            (
                ["cutoff", "--n-grid", "0:3:1", "--p", "2:1", "--format", "csv"],
                "deck size must be >= 2, got 0",
            ),
            # cutoff reads no Eulerian row, so it has no --cache.
            (["cutoff", "--n", "52", "--p", "2:1", "--cache", "cache"], "Error: unrecognized arguments: --cache"),
        ],
        ids=[
            "profile", "poisson", "cutoff", "profile-invsq", "verify", "cutoff-n0", "cutoff-n1",
            "click-range", "click-type", "click-pack-spec", "click-missing", "click-command",
            "click-group-option", "cutoff-grid-n0", "cutoff-cache",
        ],
    )
    def test_exits_2_without_traceback(self, args, message, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(Path(riffle.__file__).parents[1]))
        cache = ["--cache", str(tmp_path)] if args[0] in ("profile", "poisson", "verify") else []
        proc = subprocess.run(
            [sys.executable, "-m", "riffle.cli", *args, *cache],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1
        assert message in proc.stderr


def _run_cli(*args, **kwargs):
    env = dict(os.environ, PYTHONPATH=str(Path(riffle.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "riffle.cli", *args], env=env, timeout=120, **kwargs
    )


def _fenced_block(text: str, fence: str) -> str:
    start = text.index(fence) + len(fence)
    return text[start : text.index("```\n", start)]


def test_readme_cli_block_runs(tmp_path, monkeypatch):
    # Every example of the README's CLI section runs as printed, and its
    # "continuous" excerpt is the cutoff example's output.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    cli = readme[readme.index("## CLI\n") :]
    lines = [line for line in _fenced_block(cli, "```sh\n").splitlines() if line.startswith("riffle ")]
    assert len(lines) == 8
    excerpt = _fenced_block(cli, "```json\n")
    monkeypatch.setenv("RIFFLE_CACHE_DIR", str(tmp_path / "cache"))
    printed = []
    for line in lines:
        proc = _run_cli(*shlex.split(line)[1:], cwd=tmp_path, capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, ""), line
        printed.append(excerpt in proc.stdout)
    assert printed == [line.startswith("riffle cutoff --n 52 ") for line in lines]
    assert (tmp_path / "samples.csv").read_text().startswith("n,m,trial,r\n")


def test_bare_call_prints_help_to_stdout_and_exits_0():
    proc = _run_cli(capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == _run_cli("--help", capture_output=True, text=True).stdout
    assert "Commands:" in proc.stdout


@pytest.mark.parametrize(
    "args",
    [
        ["profile", "--n", "40", "--p", "2:1", "--k", "1..2", "--cache", "{file}"],
        ["verify", "--suite", "sampler", "--n", "3", "--m", "2", "--N", "100",
         "--dump-csv", "{missing}/x.csv"],
    ],
    ids=["cache-is-a-file", "dump-csv-in-missing-dir"],
)
def test_unusable_path_exits_2_without_traceback(args, tmp_path):
    (tmp_path / "file").write_text("")
    paths = {"file": tmp_path / "file", "missing": tmp_path / "missing"}
    proc = _run_cli(*(a.format(**paths) for a in args), capture_output=True, text=True)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("Error: ")
    assert len(proc.stderr.strip().splitlines()) == 1


def test_failed_cache_write_still_prints_the_profile_and_leaves_no_temp_file(
    runner, tmp_path, monkeypatch
):
    import riffle.combinatorics as comb

    def no_space(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(comb, "_memo", {})
    monkeypatch.setattr(comb.os, "replace", no_space)
    result = runner.invoke(main, ["profile", "--n", "40", "--p", "2:1", "--k", "1..2", "--cache", str(tmp_path)])
    assert (result.exit_code, result.stderr) == (0, "")
    assert [row.split(",")[0] for row in result.stdout.splitlines()] == ["k", "1", "2"]
    assert list(tmp_path.iterdir()) == []


def test_undecodable_cache_file_is_recomputed(tmp_path):
    path = tmp_path / "eulerian_40.txt"
    path.write_bytes(b"\xff" + random.Random(0).randbytes(2999))
    proc = _run_cli(
        "profile", "--n", "40", "--p", "2:1", "--k", "1..2", "--cache", str(tmp_path),
        capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert len(proc.stdout.splitlines()) == 3
    lines = path.read_text().split()
    assert lines[0] == "40" and len(lines) == 41


def test_cache_option_holds_for_its_own_call_only(runner, tmp_path, monkeypatch):
    # A later call in the same process without --cache reads and writes rows
    # where it did before, whether the call with --cache returned or failed.
    monkeypatch.setattr(combinatorics, "_memo", {})
    before, first = os.environ["RIFFLE_CACHE_DIR"], tmp_path / "first"
    result = runner.invoke(main, ["profile", "--n", "40", "--p", "2:1", "--k", "1..1", "--cache", str(first)])
    assert result.exit_code == 0 and (first / "eulerian_40.txt").exists()
    assert os.environ["RIFFLE_CACHE_DIR"] == before
    shutil.rmtree(first)
    assert runner.invoke(main, ["profile", "--n", "41", "--p", "2:1", "--k", "1..1"]).exit_code == 0
    assert not first.exists()
    monkeypatch.delenv("RIFFLE_CACHE_DIR")
    result = runner.invoke(main, ["profile", "--n", "40", "--p", "2:1", "--k", "bad", "--cache", str(first)])
    assert result.exit_code == 2 and "RIFFLE_CACHE_DIR" not in os.environ


def test_broken_stdout_pipe_keeps_clicks_quiet_exit(tmp_path):
    # A closed stdout is not an OSError that exits 2: main exits 1 without a
    # message, as a pipe into `head` expects (the quiet exit click once gave).
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _run_cli(
            "profile", "--n", "12", "--p", "2:1", "--k", "1..3", "--cache", str(tmp_path),
            stdout=write_end, stderr=subprocess.PIPE, text=True,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")


def test_profile_atoms_stdout_pinned(runner, tmp_path):
    # sha256 of this stdout with every mixture summed atom by atom; the
    # mixtures of more than n/2 product-law atoms (k >= 6 here) now take the
    # moment basis and must print the same bytes.
    result = runner.invoke(
        main,
        ["profile", "--n", "52", "--p", "2:1/3,3:1/3,5:1/3", "--k", "1..20",
         "--cache", str(tmp_path)],
    )
    assert result.exit_code == 0
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == (
        "6b99adde710ec8692818353d4748496f8386047a0d698575b268b2f45a468e4b"
    )


def test_profile_wide_stdout_pinned(runner, tmp_path):
    # One atom per k over 600 cards, the row computed into an empty cache.
    result = runner.invoke(
        main, ["profile", "--n", "600", "--p", "2:1", "--k", "1..12", "--cache", str(tmp_path)]
    )
    assert result.exit_code == 0
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == (
        "a13e4c96fc0c4a20fbca68db296ad5fac1288125581541d024fa777716f10c3a"
    )


# sha256 of stdout as printed with every k-step law built from its product
# law and every Poisson mixture summed law by law; the moment paths must
# print the same bytes.
@pytest.mark.parametrize(
    "args, digest",
    [
        (
            ["poisson", "--n", "52", "--p", "2:1/2,3:1/2", "--t", "4:20:2"],
            "4e21f0c4847b8857d43283740c905031767f67d145c6cf2a98ff1feb0404f18d",
        ),
        (
            ["poisson", "--n", "52", "--p", "2:1", "--t", "4:20:2"],
            "73452302d39ff2de88a865b242317149cfb05633357638ee691930037482becd",
        ),
        (
            ["profile", "--n", "52", "--p", "2:1/4,3:1/4,5:1/4,7:1/4", "--k", "1..30"],
            "bece8f6a668133e90abb9507cc014010a09b2fffa966f55fff964e9e8f4e73fe",
        ),
        (
            ["poisson", "--n", "200", "--p", "2:1/2,3:1/2", "--t", "4:20:4"],
            "ee79d280e3c59fd17e29279d2e82350fa280c5d555248e666f481221b4556d1f",
        ),
        (
            ["profile", "--n", "100", "--p", "2:1/3,3:1/3,5:1/3", "--k", "12..30"],
            "33487323147a9c5786628489aeeae501f3f2adfec34d0bb25e1885fcf5ce2540",
        ),
    ],
    ids=[
        "poisson-mix-wide", "poisson-delta", "profile-four-atoms", "poisson-n200", "profile-n100",
    ],
)
def test_moment_path_stdout_pinned(runner, tmp_path, args, digest):
    result = runner.invoke(main, [*args, "--cache", str(tmp_path)])
    assert result.exit_code == 0
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == digest


@pytest.mark.parametrize("guard, code", [(13, 0), (12, 3)])
def test_poisson_size_guard_counts_the_atoms_built(runner, tmp_path, monkeypatch, guard, code):
    # Steps 0..38 of {2, 3} (up to 39 atoms) are in K's range at t = 12, but
    # the moment path builds product laws only until they hold more than
    # 3 * 52 / 2 atoms in all: steps 0..12, the last of 13 atoms.
    monkeypatch.setattr(laws, "MAX_PRODUCT_ATOMS", guard)
    result = runner.invoke(
        main,
        ["poisson", "--n", "52", "--p", "2:1/2,3:1/2", "--t", "4:12:4", "--cache", str(tmp_path)],
    )
    assert result.exit_code == code
    if code == 0:
        assert hashlib.sha256(result.stdout_bytes).hexdigest() == (
            "a186e030bb2b2820b4c456bd14b63e8e178ca097131f6ade253ce48f968f57bd"
        )


@pytest.mark.parametrize("expr", ["2**10000", "9**9**9"])
def test_power_in_a_n_exits_2_without_traceback(expr):
    # The a-n grammar has no power operator: rejected at once, never evaluated.
    env = dict(os.environ, PYTHONPATH=str(Path(riffle.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "riffle.cli", "cutoff", "--n", "52", "--p", "2:1", "--a-n", expr],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.strip().splitlines() == [f"Error: bad a-n expression {expr!r}"]


def _limit_memory():
    import resource

    # A regression to a growing grid list fails here instead of filling memory.
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize(
    "args",
    [["--t", "4:4:1", "--tol", "1e-17"], ["--t", "inf:inf:1"], ["--t", "1:nan:1"]],
    ids=["unreachable-tol", "inf-grid", "nan-grid"],
)
def test_poisson_inputs_that_cannot_finish_exit_2_at_once(args, tmp_path):
    # A tol below what float weights reach used to build laws to k = 20000;
    # an infinite grid grew without end; a nan grid printed an empty table.
    env = dict(os.environ, PYTHONPATH=str(Path(riffle.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "riffle.cli", "poisson", "--n", "52", "--p", "2:1", *args,
         "--cache", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=10, preexec_fn=_limit_memory,
    )
    assert proc.returncode == 2
    assert len(proc.stderr.strip().splitlines()) == 1
    assert proc.stderr.startswith("Error: ")
    assert proc.stdout == ""


def test_oversized_k_range_exits_2_at_once(tmp_path):
    # Without a guard, --k 1..10000000000 took a TV for every k in turn.
    env = dict(os.environ, PYTHONPATH=str(Path(riffle.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "riffle.cli", "profile", "--n", "2", "--p", "2:1",
         "--k", "1..10000000000", "--cache", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=10, preexec_fn=_limit_memory,
    )
    assert proc.returncode == 2
    assert proc.stderr.strip().splitlines() == [
        f"Error: k range '1..10000000000' has more than {MAX_GRID_POINTS} values"
    ]
    assert proc.stdout == ""


@pytest.mark.parametrize("n", [MAX_EXACT_N + 1, 99_999_999_999])
@pytest.mark.parametrize(
    "args", [["profile", "--k", "1..1"], ["poisson", "--t", "1:1:1"]], ids=["profile", "poisson"]
)
def test_deck_past_the_exact_limit_exits_3_at_once(args, n, tmp_path):
    # Both used to run until killed, growing the Eulerian row or a power of
    # the pack count with n.
    env = dict(os.environ, PYTHONPATH=str(Path(riffle.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "riffle.cli", args[0], "--n", str(n), "--p", "2:1", *args[1:],
         "--cache", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=10, preexec_fn=_limit_memory,
    )
    assert proc.returncode == 3
    assert proc.stderr.splitlines() == [
        f"size guard: deck size {n} is over the exact limit of {MAX_EXACT_N}"
    ]
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "args", [["profile", "--k", "1..2"], ["poisson", "--t", "1:2:1"]], ids=["profile", "poisson"]
)
def test_deck_at_the_exact_limit_runs(runner, monkeypatch, tmp_path, args):
    # The limit is lowered, so that the deck at it is quick to compute.
    monkeypatch.setattr(combinatorics, "MAX_EXACT_N", 40)
    monkeypatch.setattr(combinatorics, "_memo", {})
    calls = [
        runner.invoke(main, [args[0], "--n", str(n), "--p", "2:1", *args[1:], "--cache", str(tmp_path)])
        for n in (40, 41)
    ]
    assert [call.exit_code for call in calls] == [0, 3]
    assert calls[1].output == "size guard: deck size 41 is over the exact limit of 40\n"


@pytest.mark.parametrize("text", ["inf:inf:1", "1:nan:1", "-inf:0:1", "0:1:inf", "0:1e300:1", "0:1:1e-300", "1e308:1e308:1e-308"])
def test_float_grid_rejects_non_finite_and_oversized(text):
    with pytest.raises(ValueError):
        parse_float_grid(text)


@pytest.mark.parametrize(
    "text, points",
    [
        ("4:12:4", [4.0, 8.0, 12.0]),
        # The end slack is rounding, never a span that small steps fit in.
        ("1:1:1e-10", [1.0]),
        # 0.1 + 2*0.1 rounds one ulp past 0.3 and is still the last point.
        ("0.1:0.3:0.1", [0.1, 0.2, 0.1 + 2 * 0.1]),
        # A step of one ulp is finer than the rounding slack.
        (f"1:1:{2**-52!r}", [1.0]),
    ],
)
def test_float_grid_points(text, points):
    assert parse_float_grid(text) == points


def test_float_grid_rejects_a_step_that_repeats_a_point():
    # The step moves a, but past 2 the points are spaced twice as wide, and
    # 2 + step rounds back to 2.
    a = 2 - 2**-52
    with pytest.raises(ValueError, match="too small"):
        parse_float_grid(f"{a!r}:{2 + 2**-51!r}:{2**-52!r}")


def test_int_grid_rejects_oversized():
    assert len(parse_int_grid(f"1:{MAX_GRID_POINTS}:1")) == MAX_GRID_POINTS
    with pytest.raises(ValueError):
        parse_int_grid(f"1:{MAX_GRID_POINTS + 1}:1")
    with pytest.raises(ValueError):
        parse_int_grid("1:" + "9" * 400 + ":1")


def test_exact_commands_never_import_numpy(tmp_path):
    # numpy is for the sampler only; the package serves its names lazily.
    script = """
import json, sys
import riffle.cli
runs = [
    ["profile", "--n", "12", "--p", "2:1/2,3:1/2", "--k", "1..3"],
    ["poisson", "--n", "8", "--p", "2:1", "--t", "1:2:1"],
    ["cutoff", "--n", "52", "--p", "2:1", "--a-n", "logn"],
    ["cutoff", "--n-grid", "10:30:10", "--p", "invsq"],
    ["verify", "--suite", "oracles", "--n", "4", "--m", "3"],
    ["verify", "--suite", "composition", "--n", "4"],
    ["verify", "--suite", "monotonicity", "--n", "4", "--m", "5"],
    ["verify", "--suite", "tailsets", "--n", "4", "--m", "5"],
]
codes = []
for args in runs:
    try:
        codes.append(riffle.cli.main(args=args, prog_name="riffle") or 0)
    except SystemExit as exc:
        codes.append(exc.code)
print(json.dumps({"codes": codes, "numpy": "numpy" in sys.modules}), file=sys.stderr)
"""
    env = dict(os.environ, PYTHONPATH=str(Path(riffle.__file__).parents[1]), RIFFLE_CACHE_DIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert json.loads(proc.stderr.strip().splitlines()[-1]) == {"codes": [0] * 8, "numpy": False}


def _run_script(script: str, tmp_path, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(Path(riffle.__file__).parents[1]), RIFFLE_CACHE_DIR=str(tmp_path))
    return subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True, env=env, timeout=120
    )


def test_each_command_loads_only_its_own_modules(tmp_path):
    # import riffle.cli loads no other riffle module and no click; each
    # command then imports what it uses, and nothing of the other commands.
    # The script imports nothing itself, so that json shows only where a
    # command writes JSON.
    script = """
import sys
import riffle.cli
loaded = [sorted(sys.modules)]
riffle.cli.main(args=sys.argv[1:], prog_name="riffle")
loaded.append(sorted(sys.modules))
print(repr(loaded), file=sys.stderr)
"""

    def loaded(*args):
        proc = _run_script(script, tmp_path, *args)
        assert proc.returncode == 0, proc.stderr
        return [set(names) for names in ast.literal_eval(proc.stderr.splitlines()[-1])]

    def riffle_and_click(names):
        return {m for m in names if m.split(".")[0] in ("riffle", "click")}

    on_import, after = loaded("profile", "--n", "12", "--p", "2:1/2,3:1/2", "--k", "1..3")
    assert riffle_and_click(on_import) == {"riffle", "riffle.cli"}
    assert {"riffle.laws", "riffle.cutoff"} <= after
    assert not {"riffle.continuous_time", "riffle.verify", "riffle.oracles", "numpy"} & after
    assert not {"dataclasses", "json"} & after
    on_import, after = loaded("poisson", "--n", "8", "--p", "2:1/2,3:1/2", "--t", "1:2:1")
    assert riffle_and_click(on_import) == {"riffle", "riffle.cli"}
    assert "riffle.continuous_time" in after
    assert not {"riffle.cutoff", "riffle.verify", "riffle.oracles", "numpy"} & after
    assert not {"dataclasses", "json"} & after
    _, after = loaded("verify", "--suite", "sampler", "--n", "3", "--m", "2", "--N", "200")
    assert {"riffle.sampling", "numpy", "json"} <= after and "dataclasses" not in after


def test_a_call_freezes_the_heap_at_exit(tmp_path):
    # atexit runs its handlers last in, first out: a probe registered before
    # main runs after the gc.freeze that main registers.
    script = """
import atexit, gc, sys
import riffle.cli
atexit.register(lambda: print("frozen", gc.get_freeze_count() > 0, file=sys.stderr))
riffle.cli.main(args=["profile", "--n", "6", "--p", "2:1", "--k", "1..2"], prog_name="riffle")
"""
    proc = _run_script(script, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines() == ["frozen True"]


def test_the_exit_hook_is_registered_once_and_not_on_import(tmp_path):
    script = """
import atexit, gc, sys
registered = []
register = atexit.register
atexit.register = lambda func, *args, **kwargs: registered.append(func) or register(func, *args, **kwargs)
import riffle
on_import = len(registered)
import riffle.cli
freezes = [registered.count(gc.freeze)]
for args in (["profile", "--n", "6", "--p", "2:1", "--k", "1..2"], ["nosuch"], ["--help"]):
    try:
        riffle.cli.main(args=args, prog_name="riffle")
    except SystemExit:
        pass
    freezes.append(registered.count(gc.freeze))
print(on_import, freezes, file=sys.stderr)
"""
    proc = _run_script(script, tmp_path)
    assert proc.returncode == 0, proc.stderr
    error, *rest = proc.stderr.splitlines()
    assert error.startswith("Error: argument COMMAND: ") and rest == ["0 [0, 1, 1, 1]"]


def test_sampler_dump_is_closed_before_the_frozen_exit(runner, tmp_path):
    # The last collections at exit skip the frozen heap, so a file only they
    # would close would lose its buffer; the command's with closes the dump.
    dump = tmp_path / "samples.csv"
    args = ["verify", "--suite", "sampler", "--n", "3", "--m", "2", "--N", "2000",
            "--seed", "3", "--dump-csv", str(dump)]
    proc = _run_cli(*args, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    from_process = dump.read_bytes()
    dump.unlink()
    result = runner.invoke(main, args)
    assert result.exit_code == 0
    assert (proc.stdout, from_process) == (result.output, dump.read_bytes())
    assert from_process.count(b"\n") == 1 + 4 * 2000


def test_sampling_names_still_import_from_the_package():
    from riffle import sample_chains, sampling
    from riffle.sampling import sample_chains as direct

    assert sample_chains is direct
    # A name left in an export list after its deletion fails here, not on import.
    exports = {}
    for info in pkgutil.iter_modules(riffle.__path__):
        module = importlib.import_module(f"riffle.{info.name}")
        if hasattr(module, "__all__"):
            exports[info.name] = set(module.__all__)
            assert [n for n in module.__all__ if not hasattr(module, n)] == [], info.name
    # The package serves exactly its modules' __all__ (verify's suite table
    # is the CLI's), each name bound to its module's own object on first use.
    served = ["combinatorics", "continuous_time", "cutoff", "laws", "oracles", "sampling"]
    assert {m: set(names.split()) for m, names in riffle._EXPORTS.items()} == {
        m: exports[m] for m in served
    }
    assert sorted(riffle.__all__) == sorted(set().union(*(exports[m] for m in served)))
    assert set(riffle.__all__) <= set(dir(riffle))
    for m in served:
        module = importlib.import_module(f"riffle.{m}")
        for name in exports[m]:
            assert getattr(riffle, name) is getattr(module, name), name
    assert riffle.EmpiricalHistogram.__module__ == "riffle.sampling"
    with pytest.raises(AttributeError):
        riffle.no_such_name


def test_benchmark_child_runs_and_traces_the_cli(tmp_path):
    # perfbench/child.py imports riffle by name and its tracer patches layer
    # functions by name, so a rename or deletion there shows up here.
    root = Path(__file__).resolve().parents[1]
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "perfbench")]),
        PYTHONDONTWRITEBYTECODE="1",
    )
    sidecar, trace = tmp_path / "sidecar.json", tmp_path / "trace.json"

    def traced_spans(*args):
        proc = subprocess.run(
            [sys.executable, str(root / "perfbench" / "child.py"), str(sidecar), str(trace), *args],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(sidecar.read_text())["numba_enabled"] is False
        return {name for name, *_ in json.loads(trace.read_text())["spans"]}

    spans = traced_spans("profile", "--n", "6", "--p", "2:1/2,3:1/2", "--k", "1..3",
                         "--cache", str(tmp_path / "cache"))
    # profile folds each TV from its numerators and builds no RisingSeqLaw;
    # the fold reads the Eulerian row through the name the tracer rebinds in laws.
    assert {"cli", "combinatorics.eulerian_row"} <= spans and "laws.validate" not in spans
    # The sampler suite imports the names the tracer wraps from riffle.sampling.
    spans = traced_spans("verify", "--suite", "sampler", "--n", "3", "--m", "2", "--N", "2000")
    assert {"cli", "sampling.chi_square_against_law"} <= spans
    # The tracer patches PoissonizedLaw.tv_to_uniform, which poisson calls per
    # time, and a Poisson law is validated as the RisingSeqLaw it is
    # (laws.validate wraps RisingSeqLaw.__post_init__, inherited or not).
    spans = traced_spans("poisson", "--n", "6", "--p", "2:1", "--t", "1:2:1",
                         "--cache", str(tmp_path / "cache"))
    assert {"cli", "continuous_time.tv_to_uniform", "laws.validate"} <= spans


# sha256 of stdout as printed when each report rendered its own JSON; one
# encoder in the CLI must print the same bytes. The two cutoff --n pins also
# cover the continuous-time block next to the report. No --cache, so no temporary
# path enters the config echo: these decks are below the disk-cache size and
# cutoff reads no Eulerian row.
@pytest.mark.parametrize(
    "args, digest",
    [
        (
            ["cutoff", "--n", "52", "--p", "2:1"],
            "a145ae87b9048914f7b1d6721277abce6b60d010202d0160482714793424d2b7",
        ),
        (
            ["cutoff", "--n", "52", "--p", "2:1/2,3:1/2", "--a-n", "logn"],
            "dc5645ef8a289e71aa49c1be2b8649906489afe41b39277f87bbcba45f613731",
        ),
        (
            ["cutoff", "--n-grid", "1000:5000:1000", "--p", "invsq", "--a-n", "logn",
             "--format", "csv"],
            "f139d5698c068621952e7399289dd9131a8c6527d5d06148b2b11fb9778bb9c8",
        ),
        (
            ["cutoff", "--n-grid", "1000:5000:1000", "--p", "invsq", "--a-n", "logn",
             "--format", "json"],
            "85d9977f3d93f818850811084f856b606e0b42087ba3eb4d765df7cbb3166873",
        ),
        (
            ["profile", "--n", "8", "--p", "2:1/2,3:1/2", "--k", "1..5", "--format", "json"],
            "f8f92cb2d9f556f4dd9e0f76a0042c39001791ef88340a07ace52dc8986cd755",
        ),
        (
            ["poisson", "--n", "8", "--p", "2:1/2,3:1/2", "--t", "0:2:0.5", "--format", "json"],
            "20f1cb5a049b7f75faa3349f39c1e42a7ceb1e770c68f180d130f6647659d588",
        ),
        (
            ["verify", "--n", "5", "--m", "4", "--N", "2000", "--seed", "1"],
            "8503ada7d151a72b09bca3a892a636f78ffe17d6993cf1cc1b5e8b7af3c4e2cf",
        ),
    ],
    ids=["cutoff-delta", "cutoff-truncation", "grid-csv", "grid-json", "profile-json",
         "poisson-json", "verify"],
)
def test_rendered_stdout_pinned(runner, args, digest):
    result = runner.invoke(main, args)
    assert result.exit_code == 0
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == digest


@pytest.mark.parametrize(
    "args, config",
    [
        (
            ["profile", "--n", "8", "--p", "2:1", "--k", "1..2", "--format", "json"],
            {"command": "profile", "n": 8, "p_spec": "2:1", "k_range": "1..2", "fmt": "json"},
        ),
        (
            ["cutoff", "--n", "52", "--p", "2:1", "--a-n", "logn"],
            {"command": "cutoff", "n": 52, "p_spec": "2:1", "a_n_expr": "logn", "fmt": "json"},
        ),
        (
            ["cutoff", "--n-grid", "10:30:10", "--p", "invsq", "--format", "json"],
            {"command": "cutoff", "n_grid": "10:30:10", "p_spec": "invsq", "fmt": "json"},
        ),
        (
            ["poisson", "--n", "8", "--p", "2:1", "--t", "0:1:1", "--tol", "1e-6",
             "--format", "json"],
            {"command": "poisson", "n": 8, "p_spec": "2:1", "t_grid": "0:1:1", "tol": 1e-6,
             "fmt": "json"},
        ),
        (
            ["verify", "--suite", "sampler", "--n", "3", "--m", "2", "--N", "100",
             "--seed", "7", "--dump-csv", "{tmp}/x.csv"],
            {"command": "verify", "suite": "sampler", "n": 3, "m": 2, "n_samples": 100,
             "seed": 7, "dump_csv": "{tmp}/x.csv"},
        ),
    ],
    ids=["profile", "cutoff", "cutoff-grid", "poisson", "verify"],
)
def test_config_echoes_every_option_with_a_value(runner, tmp_path, args, config):
    # Each option under its parameter name, defaults included; --cache too,
    # on the commands that have it (cutoff reads no Eulerian row).
    cache = str(tmp_path / "cache")
    args = [a.format(tmp=tmp_path) for a in args]
    config = {k: v.format(tmp=tmp_path) if isinstance(v, str) else v for k, v in config.items()}
    if args[0] != "cutoff":
        args, config = args + ["--cache", cache], {**config, "cache_dir": cache}
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["config"] == config
