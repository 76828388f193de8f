import hashlib
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

import riffle
from riffle.cli import (
    MAX_GRID_POINTS,
    main,
    parse_a_n,
    parse_float_grid,
    parse_int_grid,
    parse_k_range,
    parse_pack_spec,
)
from riffle.combinatorics import decimal_to_int
from riffle.cutoff import second_eigenvalue


@pytest.fixture
def runner():
    return CliRunner()


class TestParsers:
    def test_pack_spec_fractions(self):
        p = parse_pack_spec("2:1/2,3:1/2")
        assert p.atoms == ((2, Fraction(1, 2)), (3, Fraction(1, 2)))

    def test_pack_spec_point_mass(self):
        assert parse_pack_spec("2:1").atoms == ((2, Fraction(1)),)

    def test_pack_spec_rejects_floats(self):
        import click

        with pytest.raises(click.UsageError):
            parse_pack_spec("2:0.5,3:0.5")

    def test_pack_spec_rejects_bad_mass(self):
        import click

        with pytest.raises(click.UsageError):
            parse_pack_spec("2:1/3,3:1/3")

    def test_k_range(self):
        assert parse_k_range("1..12") == range(1, 13)

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
        assert f"Invalid value for '{option}'" in result.output

    def test_dump_csv_without_the_sampler_suite_is_refused(self, runner, tmp_path):
        dump = tmp_path / "keep.csv"
        dump.write_text("earlier contents\n")
        result = runner.invoke(
            main, ["verify", "--suite", "tailsets", "--n", "3", "--m", "2", "--dump-csv", str(dump)]
        )
        assert result.exit_code == 2
        assert "--dump-csv" in result.output
        assert dump.read_text() == "earlier contents\n"

    def test_sampler_dump_is_pinned(self, runner, tmp_path):
        # 25 cells of 20000 draws: each deck size crosses a chunk boundary
        # and shares one draw of its uniforms among its five pack counts.
        dump = tmp_path / "samples.csv"
        args = ["verify", "--suite", "sampler", "--seed", "3", "--N", "20000"]
        result = runner.invoke(main, [*args, "--dump-csv", str(dump)])
        assert result.exit_code == 0
        data = dump.read_bytes()
        assert data.count(b"\n") == 500_001
        assert hashlib.sha256(data).hexdigest() == (
            "cbbf87f705330fc73fc00fd5e8fc2fea485a208dbf68a7f1483a9b60023744a3"
        )

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
        import riffle.cli as cli_mod

        def broken_suite(**kwargs):
            return [{"property": "always_fails", "ok": False, "detail": "forced"}]

        monkeypatch.setitem(cli_mod.SUITES, "tailsets", broken_suite)
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
        monkeypatch.setenv("RIFFLE_MAX_PRODUCT_ATOMS", "5")
        result = runner.invoke(
            main,
            ["profile", "--n", "40", "--p", "2:1/4,3:1/4,5:1/4,7:1/4", "--k", "1..6"],
        )
        assert result.exit_code == 3


class TestLibraryValueErrorExit:
    # Values the parsers accept but the library rejects, and click's own
    # usage errors: a one-line error and exit 2, checked on the real stderr
    # of a CLI process.
    @pytest.mark.parametrize(
        "args, message",
        [
            (["profile", "--n", "0", "--p", "2:1", "--k", "1..2"], "deck size must be >= 1, got 0"),
            (["poisson", "--n", "0", "--p", "2:1", "--t", "1:2:1"], "deck size must be >= 1, got 0"),
            (["cutoff", "--n-grid", "1:3:1", "--p", "invsq"], "deck size 1 too small"),
            (
                ["verify", "--suite", "sampler", "--n", "3", "--m", "2", "--N", "100", "--seed", "-1"],
                "seed and split must be nonnegative",
            ),
            (["cutoff", "--n", "0", "--p", "2:1"], "deck size must be >= 2, got 0"),
            (["cutoff", "--n", "1", "--p", "2:1"], "deck size must be >= 2, got 1"),
            (["verify", "--N", "0"], "Error: Invalid value for '--N'"),
            (["verify", "--N", "abc"], "Error: Invalid value for '--N'"),
            (["profile", "--n", "5", "--p", "2.0:1", "--k", "1..2"], "Error: bad pack entry '2.0:1'"),
            (["profile", "--n", "5", "--p", "2:1"], "Error: Missing option '--k'"),
            (["nosuch"], "Error: No such command 'nosuch'"),
            (["--bogus"], "Error: No such option"),
            (
                ["cutoff", "--n-grid", "0:3:1", "--p", "2:1", "--format", "csv"],
                "deck size must be >= 2, got 0",
            ),
        ],
        ids=[
            "profile", "poisson", "cutoff", "verify", "cutoff-n0", "cutoff-n1",
            "click-range", "click-type", "click-pack-spec", "click-missing", "click-command",
            "click-group-option", "cutoff-grid-n0",
        ],
    )
    def test_exits_2_without_traceback(self, args, message, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(Path(riffle.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "riffle.cli", *args, "--cache", str(tmp_path)],
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


def test_broken_stdout_pipe_keeps_clicks_quiet_exit(tmp_path):
    # The OSError mapping leaves a closed stdout to click, which exits 1
    # without a message, as a pipe into `head` expects.
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


@pytest.mark.parametrize("guard, code", [("13", 0), ("12", 3)])
def test_poisson_size_guard_counts_the_atoms_built(runner, tmp_path, monkeypatch, guard, code):
    # Steps 0..38 of {2, 3} (up to 39 atoms) are in K's range at t = 12, but
    # the moment path builds product laws only until they hold more than
    # 3 * 52 / 2 atoms in all: steps 0..12, the last of 13 atoms.
    monkeypatch.setenv("RIFFLE_MAX_PRODUCT_ATOMS", guard)
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


@pytest.mark.parametrize("text", ["inf:inf:1", "1:nan:1", "-inf:0:1", "0:1:inf", "0:1e300:1", "0:1:1e-300", "1e308:1e308:1e-308"])
def test_float_grid_rejects_non_finite_and_oversized(text):
    with pytest.raises(ValueError):
        parse_float_grid(text)


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
        riffle.cli.main(args=args, prog_name="riffle")
    except SystemExit as exc:
        codes.append(exc.code)
print(json.dumps({"codes": codes, "numpy": "numpy" in sys.modules}), file=sys.stderr)
"""
    env = dict(os.environ, PYTHONPATH=str(Path(riffle.__file__).parents[1]), RIFFLE_CACHE_DIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert json.loads(proc.stderr.strip().splitlines()[-1]) == {"codes": [0] * 8, "numpy": False}


def test_sampling_names_still_import_from_the_package():
    from riffle import sample_chains, sampling
    from riffle.sampling import sample_chains as direct

    assert sample_chains is direct
    # A name left in the lazy list after its deletion fails here, not on import.
    assert riffle._SAMPLING_NAMES <= set(sampling.__all__)
    for name in riffle._SAMPLING_NAMES:
        assert getattr(riffle, name) is getattr(sampling, name)
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
    args = ["profile", "--n", "6", "--p", "2:1/2,3:1/2", "--k", "1..3", "--cache", str(tmp_path / "cache")]
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "child.py"), str(sidecar), str(trace), *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(sidecar.read_text())["numba_enabled"] is False
    assert "cli" in {name for name, *_ in json.loads(trace.read_text())["spans"]}


# sha256 of stdout as printed when each report rendered its own JSON; one
# encoder in the CLI must print the same bytes. No --cache, so no temporary
# path enters the config echo: these decks are below the disk-cache size and
# cutoff reads no Eulerian row.
@pytest.mark.parametrize(
    "args, digest",
    [
        (
            ["cutoff", "--n", "52", "--p", "2:1"],
            "4054ce77f84387867df6aff5bde710e3179c793b8c478c9d4995b5da67e851e4",
        ),
        (
            ["cutoff", "--n", "52", "--p", "2:1/2,3:1/2", "--a-n", "logn"],
            "b5788f138a3836d04b9fee1ef61d740a73ee92cbd643d9537853f46bc9b2eae6",
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
    ],
    ids=["cutoff-delta", "cutoff-truncation", "grid-csv", "grid-json", "profile-json",
         "poisson-json"],
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
    # Each option under its parameter name, defaults included; --cache too.
    cache = str(tmp_path / "cache")
    args = [a.format(tmp=tmp_path) for a in args] + ["--cache", cache]
    config = {k: v.format(tmp=tmp_path) if isinstance(v, str) else v for k, v in config.items()}
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["config"] == {**config, "cache_dir": cache}
