import functools
import math
import sys
import threading
import tracemalloc
from itertools import permutations
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import riffle.combinatorics as comb
from riffle.combinatorics import (
    EulerianCache,
    decimal_to_int,
    eulerian_row,
    int_to_decimal,
    rising_sequences,
    validate_arrangement,
)


def rising_sequences_by_runs(arrangement):
    """Literal oracle: greedily assemble maximal runs of consecutive values."""
    deck = tuple(arrangement)
    n = len(deck)
    pos = {v: i for i, v in enumerate(deck)}
    unassigned = set(range(1, n + 1))
    runs = 0
    while unassigned:
        v = min(unassigned)
        run = [v]
        w = v + 1
        while w in unassigned and pos[w] > pos[run[-1]]:
            run.append(w)
            w += 1
        unassigned -= set(run)
        runs += 1
    return runs


class TestRisingSequences:
    def test_known_arrangement(self):
        assert rising_sequences((3, 1, 4, 5, 7, 2, 8, 9, 6)) == 3

    def test_identity_is_one_run(self):
        for n in (1, 2, 5, 30):
            assert rising_sequences(tuple(range(1, n + 1))) == 1

    def test_reversal_is_n_runs(self):
        for n in (1, 2, 5, 30):
            assert rising_sequences(tuple(range(n, 0, -1))) == n

    @pytest.mark.parametrize(
        "bad", [(1, 1), (1, 3), (0, 1), (2, 3), ()], ids=repr
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError):
            rising_sequences(bad)

    def test_matches_literal_run_construction_up_to_6(self):
        # The descent-of-inverse formula must agree with the run definition
        # on every deck up to n = 6 before it can be trusted elsewhere.
        for n in range(1, 7):
            for deck in permutations(range(1, n + 1)):
                assert rising_sequences(deck) == rising_sequences_by_runs(deck)

    @given(st.permutations(list(range(1, 9))))
    def test_matches_literal_run_construction_random(self, deck):
        assert rising_sequences(deck) == rising_sequences_by_runs(deck)

    def test_validate_returns_tuple(self):
        assert validate_arrangement([2, 1, 3]) == (2, 1, 3)


class TestBinomial:
    """``math.comb`` on what the laws pass it: huge tops and tops below n."""

    def test_small_values(self):
        assert math.comb(3, 2) == 3
        assert math.comb(0, 0) == 1
        assert math.comb(2 + 2 - 1, 2) == 3  # the n=2, m=2, r=1 count

    def test_top_smaller_than_lower_gives_zero(self):
        assert math.comb(3, 5) == 0

    def test_huge_top(self):
        top = 2**2000 + 7
        assert math.comb(top, 2) == top * (top - 1) // 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            math.comb(-1, 2)
        with pytest.raises(ValueError):
            math.comb(3, -1)


class TestDecimalText:
    def test_same_text_as_str_past_the_limit(self):
        big = 10**5000 + 7
        assert int_to_decimal(big) == "1" + "0" * 4999 + "7"
        assert int_to_decimal(-big) == "-1" + "0" * 4999 + "7"
        assert int_to_decimal(12345) == "12345"
        assert decimal_to_int(int_to_decimal(big)) == big
        assert decimal_to_int("0" * 9000 + "12") == 12
        assert decimal_to_int("0") == 0

    @pytest.mark.parametrize("text", ["", "1.0", "1e5", "abc"])
    def test_rejects_what_int_rejects(self, text):
        with pytest.raises(ValueError):
            decimal_to_int(text)

    @pytest.mark.parametrize("text", ["+" + "1" * 5000, "1" * 5000 + "_1", "1" * 5000 + ".0"])
    def test_long_text_must_be_plain_digits(self, text):
        # Split in halves, a sign or separator would be parsed in the wrong place.
        with pytest.raises(ValueError):
            decimal_to_int(text)


class TestEulerianRow:
    def test_n1(self):
        assert eulerian_row(1) == (1,)

    def test_n4_against_brute_force(self):
        assert eulerian_row(4) == brute_force_row(4) == (1, 11, 11, 1)

    def test_n6_sums_to_720(self):
        assert sum(eulerian_row(6)) == 720

    def test_brute_force_agreement_up_to_8(self):
        for n in range(1, 9):
            assert eulerian_row(n) == brute_force_row(n)

    def test_symmetry_and_sum_large(self):
        row = eulerian_row(101)
        assert sum(row) == math.factorial(101)
        for r in range(1, 102):
            assert row[r - 1] == row[101 - r]

    def test_n0_rejected(self):
        with pytest.raises(ValueError):
            eulerian_row(0)

    def test_row_validation(self):
        with pytest.raises(ValueError, match="does not sum to n!"):
            comb._checked_row(3, (1, 5, 1))
        with pytest.raises(ValueError, match="must have 1 at both ends"):
            comb._checked_row(3, (2, 2, 2))
        with pytest.raises(ValueError, match="not symmetric at r=1"):
            comb._checked_row(3, (1, 3, 2))
        # The requested n, not the row's length, sets what a row must be.
        with pytest.raises(ValueError, match="row must have 4 entries, got 3"):
            comb._checked_row(4, (1, 4, 1))


class TestCache:
    def test_round_trip(self, tmp_path):
        cache = EulerianCache(tmp_path)
        row = eulerian_row(40)
        cache.write(row)
        assert cache.read(40) == row

    def test_file_format(self, tmp_path):
        cache = EulerianCache(tmp_path)
        cache.write(eulerian_row(35))
        lines = (tmp_path / "eulerian_35.txt").read_text().splitlines()
        assert lines[0] == "35"
        assert len(lines) == 36
        assert lines[1:] == [hex(c) for c in eulerian_row(35)]

    def test_committed_decimal_file_reads_unchanged(self, tmp_path, monkeypatch):
        # Files written before hex hold decimal counts: they read as they are
        # and are not rewritten.
        legacy = (Path(__file__).parents[1] / "cache" / "eulerian_52.txt").read_bytes()
        (tmp_path / "eulerian_52.txt").write_bytes(legacy)
        monkeypatch.setattr(comb, "_memo", {})
        row = eulerian_row(52, EulerianCache(tmp_path))
        assert row == tuple(int(s) for s in legacy.split()[1:])
        assert (tmp_path / "eulerian_52.txt").read_bytes() == legacy

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="Python before 3.10.7 has no limit"
    )
    def test_decimal_line_past_the_str_digit_limit_is_recomputed(self, tmp_path, monkeypatch):
        # The middle counts of row 400 have about 867 decimal digits; under a
        # 640-digit limit that old-format file reads as corrupt and is
        # rewritten as hex.
        row = eulerian_row(400)
        path = tmp_path / "eulerian_400.txt"
        path.write_text("\n".join(["400", *map(str, row)]) + "\n")
        monkeypatch.setattr(comb, "_memo", {})
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert EulerianCache(tmp_path).read(400) is None
            assert eulerian_row(400, EulerianCache(tmp_path)) == row
        finally:
            sys.set_int_max_str_digits(limit)
        assert path.read_text().split()[1:] == [hex(c) for c in row]

    def test_corrupt_file_ignored(self, tmp_path):
        cache = EulerianCache(tmp_path)
        (tmp_path / "eulerian_33.txt").write_text("33\n1\n2\nnot a number\n")
        assert cache.read(33) is None

    def test_undecodable_file_ignored(self, tmp_path):
        cache = EulerianCache(tmp_path)
        (tmp_path / "eulerian_40.txt").write_bytes(b"40\n1\n\xff\xfe\n")
        assert cache.read(40) is None

    def test_large_row_persisted_to_env_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RIFFLE_CACHE_DIR", str(tmp_path))
        import riffle.combinatorics as comb

        monkeypatch.setattr(comb, "_memo", {})
        n = 37
        eulerian_row(n)
        assert (tmp_path / f"eulerian_{n}.txt").exists()
        # Second call reads the file back.
        monkeypatch.setattr(comb, "_memo", {})
        assert eulerian_row(n) == brute_force_row_free(n)

    def test_row_past_the_str_digit_limit_round_trips(self, tmp_path, monkeypatch):
        # The middle counts of row 1800 have more digits than str() converts
        # by default; the file holds them as hex lines, which have no limit.
        import riffle.combinatorics as comb

        cache = EulerianCache(tmp_path)
        monkeypatch.setattr(comb, "_memo", {})
        row = eulerian_row(1800, cache)
        lines = (tmp_path / "eulerian_1800.txt").read_text().splitlines()
        assert lines[0] == "1800" and len(lines) == 1801
        assert len(int_to_decimal(max(row))) > 4300
        assert lines[1:] == [hex(c) for c in row]
        monkeypatch.setattr(comb, "_memo", {})
        assert eulerian_row(1800, cache) == row

    def test_concurrent_requests_consistent(self, tmp_path, monkeypatch):
        # Every worker misses the memo and writes the same row at once; all
        # must return it, with no worker dying on another's temp file.
        monkeypatch.setenv("RIFFLE_CACHE_DIR", str(tmp_path))
        import riffle.combinatorics as comb

        monkeypatch.setattr(comb, "_memo", {})
        results, errors = [], []
        monkeypatch.setattr(threading, "excepthook", lambda args: errors.append(args.exc_value))
        start = threading.Barrier(8)

        def worker():
            start.wait()
            results.append(eulerian_row(45))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(results) == 8
        assert all(r == results[0] for r in results)

    @pytest.mark.parametrize("n", [33, 40])
    @pytest.mark.parametrize(
        "edit",
        [
            lambda lines: ["%d" % (int(lines[0]) + 1), *lines[1:]],
            lambda lines: [],
            lambda lines: lines[:-1],
            lambda lines: [*lines, "0x1"],
            lambda lines: [*lines[:10], "", *lines[10:]],
            lambda lines: [*lines, ""],
            lambda lines: [*lines[:10], "not a number", *lines[11:]],
        ],
        ids=["header", "empty", "short", "long", "blank", "trailing-blank", "non-numeric"],
    )
    def test_malformed_file_reads_as_none(self, tmp_path, n, edit):
        cache = EulerianCache(tmp_path)
        cache.write(eulerian_row(n))
        path = tmp_path / f"eulerian_{n}.txt"
        lines = edit(path.read_text().splitlines())
        path.write_text("".join(line + "\n" for line in lines))
        assert cache.read(n) is None

    @staticmethod
    def assert_recomputed(tmp_path, monkeypatch, n, counts):
        # The reader rejects a file holding these bad counts, and eulerian_row
        # recomputes the row and rewrites the file as hex.
        row = eulerian_row(n)
        path = tmp_path / f"eulerian_{n}.txt"
        path.write_text("\n".join([str(n), *map(hex, counts)]) + "\n")
        cache = EulerianCache(tmp_path)
        assert cache.read(n) is None
        monkeypatch.setattr(comb, "_memo", {})
        assert eulerian_row(n, cache) == row
        assert path.read_text().splitlines()[1:] == [hex(c) for c in row]

    @pytest.mark.parametrize("n", [33, 40])
    def test_unmirrored_second_half_is_recomputed(self, tmp_path, monkeypatch, n):
        # Moving one unit between two second-half counts keeps the sum n! but
        # breaks the symmetry.
        counts = list(eulerian_row(n))
        counts[n - 3] += 1
        counts[n - 2] -= 1
        self.assert_recomputed(tmp_path, monkeypatch, n, counts)

    @pytest.mark.parametrize(
        "n, edit",
        [
            # Every middle count grows by one, mirror kept: the sum is off n!.
            (33, lambda counts: [1, *(c + 1 for c in counts[1:-1]), 1]),
            # An end count of 2, its mirror 2 as well: mirrored, sum off n!.
            (40, lambda counts: [2, *counts[1:-1], 2]),
        ],
        ids=["middle-counts", "end-counts"],
    )
    def test_mirrored_wrong_counts_are_recomputed(self, tmp_path, monkeypatch, n, edit):
        # The halves agree, so only the row checks see the fault.
        counts = edit(list(eulerian_row(n)))
        assert counts == counts[::-1] and counts != list(eulerian_row(n))
        self.assert_recomputed(tmp_path, monkeypatch, n, counts)

    @pytest.mark.parametrize("n", [33, 40])
    def test_read_row_shares_mirrored_ints(self, tmp_path, n):
        cache = EulerianCache(tmp_path)
        cache.write(eulerian_row(n))
        row = cache.read(n)
        assert row == eulerian_row(n)
        assert all(row[i] is row[n - 1 - i] for i in range(n))

    def test_failed_rename_leaves_no_temp_file(self, tmp_path, monkeypatch):
        def no_space(src, dst):
            raise OSError(28, "No space left on device")

        row = eulerian_row(40)
        monkeypatch.setattr(comb.os, "replace", no_space)
        with pytest.raises(OSError, match="No space left"):
            EulerianCache(tmp_path).write(row)
        assert list(tmp_path.iterdir()) == []

    def test_failed_body_leaves_no_temp_file(self, tmp_path):
        class FailingRow(tuple):
            def __iter__(self):
                yield from self[:5]  # a slice is a plain tuple
                raise RuntimeError("counts failed")

        with pytest.raises(RuntimeError, match="counts failed"):
            EulerianCache(tmp_path).write(FailingRow(eulerian_row(40)))
        assert list(tmp_path.iterdir()) == []


class TestCacheMemory:
    # Rows go to and from disk one line at a time: a write holds one line, a
    # read the first ceil(n/2) counts it keeps plus one line.
    N = 1000

    @staticmethod
    def traced_peak(call):
        tracemalloc.start()
        try:
            result = call()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_write_holds_one_line(self, tmp_path):
        row = eulerian_row(self.N)
        cache = EulerianCache(tmp_path)
        _, peak = self.traced_peak(lambda: cache.write(row))
        assert peak < 0.1 * 2**20

    def test_read_holds_one_int_per_mirrored_pair(self, tmp_path):
        n = self.N
        cache = EulerianCache(tmp_path)
        cache.write(eulerian_row(n))
        read, peak = self.traced_peak(lambda: cache.read(n))
        assert read == eulerian_row(n)
        ints = sum(map(sys.getsizeof, read[: (n + 1) // 2]))
        assert peak < 1.25 * ints

    def test_cold_row_holds_one_half_row(self):
        # The recurrence overwrites one half row in place, from the top class
        # down; a new half row per step peaked at 2.0 times these bytes.
        n = 600
        with mock.patch.object(comb, "_memo", {}):
            row, peak = self.traced_peak(lambda: eulerian_row(n, _NoDisk()))
        assert row == brute_force_row_free(n)
        ints = sum(map(sys.getsizeof, row[: (n + 1) // 2]))
        assert peak < 1.25 * ints


def brute_force_row_free(n):
    # Recurrence re-derived locally so the cache round-trip test does not
    # depend on the module memo it just cleared.
    prev = [1]
    for k in range(2, n + 1):
        row = [0] * k
        row[0] = 1
        for r in range(2, k + 1):
            below = prev[r - 1] if r <= k - 1 else 0
            row[r - 1] = r * below + (k - r + 1) * prev[r - 2]
        prev = row
    return tuple(prev)


def brute_force_row(n: int) -> tuple[int, ...]:
    """Row computed by enumerating all n! arrangements; n <= 9."""
    if n > 9:
        raise ValueError("brute force row limited to n <= 9")
    counts = [0] * n
    for deck in permutations(range(1, n + 1)):
        counts[rising_sequences(deck) - 1] += 1
    return comb._checked_row(n, tuple(counts))


# Enumerating 9! decks takes seconds; do it once per row.
enumerated_row = functools.cache(brute_force_row)


class _NoDisk:
    """Cache stand-in that never holds a row, so every call computes."""

    def read(self, n):
        return None

    def write(self, row):
        pass


class TestHalfRowRecurrence:
    # eulerian_row runs the recurrence on half rows and mirrors them; these
    # compare it with the full-row recurrence (brute_force_row_free) and with
    # enumeration.

    @settings(deadline=None, max_examples=40)
    @given(st.integers(1, 400), st.integers(0, 399))
    def test_matches_full_rows(self, n, start):
        # Restart from a memoized row of either parity below n, or from scratch.
        start = start % n
        memo = {start: brute_force_row_free(start)} if start else {}
        with mock.patch.object(comb, "_memo", memo):
            assert eulerian_row(n, _NoDisk()) == brute_force_row_free(n)

    @pytest.mark.parametrize("start", range(1, 9))
    def test_restarts_match_brute_force(self, start):
        for n in range(start + 1, 10):
            with mock.patch.object(comb, "_memo", {start: enumerated_row(start)}):
                assert eulerian_row(n, _NoDisk()) == enumerated_row(n)

    def test_memo_chain_matches_brute_force(self):
        # Each row restarts from the one before, through odd and even n.
        with mock.patch.object(comb, "_memo", {}):
            for n in range(1, 10):
                assert eulerian_row(n, _NoDisk()) == enumerated_row(n)


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=40))
def test_row_sum_and_symmetry_property(n):
    row = eulerian_row(n)
    assert sum(row) == math.factorial(n)
    assert row == row[::-1]


@pytest.mark.parametrize("n", [comb.MAX_EXACT_N + 1, 99_999_999_999])
def test_exact_entry_points_refuse_a_deck_past_the_limit_at_once(n):
    # Each used to grow a row, or a power of the pack counts, card by card
    # without end; now each raises before its first step.
    from riffle.continuous_time import poissonized_laws
    from riffle.laws import PackDistribution, k_step_tvs, m_shuffle_law

    gsr = PackDistribution([(2, 1)])
    calls = [
        lambda: eulerian_row(n),
        lambda: next(k_step_tvs(n, gsr)),
        lambda: m_shuffle_law(n, 2),
        lambda: next(poissonized_laws(n, gsr, [1.0], 1e-9)),
    ]
    for call in calls:
        with pytest.raises(comb.SizeGuardError, match=f"deck size {n} is over the exact limit"):
            call()


def test_the_deck_limit_itself_is_accepted(monkeypatch):
    # At the real limit the row takes minutes, so the limit is lowered here.
    monkeypatch.setattr(comb, "_memo", {})
    monkeypatch.setattr(comb, "MAX_EXACT_N", 12)
    assert len(eulerian_row(12)) == 12
    with pytest.raises(comb.SizeGuardError):
        eulerian_row(13)
