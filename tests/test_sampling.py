import hashlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

import riffle
from riffle.combinatorics import eulerian_row
from riffle.laws import (
    PackDistribution,
    law_after_k,
    m_shuffle_law,
    mixture_of_m_shuffles,
    product_laws,
    tv_to_uniform,
)
from riffle.sampling import (
    EmpiricalHistogram,
    chi2_sf,
    chi_square_against_law,
    empirical_tv,
    make_generator,
    rising_count_histograms,
    rising_counts,
    sample_chains,
    sample_m_shuffles,
    sample_rising_counts,
    write_sample_csv,
)

MIX23 = PackDistribution.from_pairs({2: Fraction(1, 2), 3: Fraction(1, 2)})
MIX235 = PackDistribution.from_pairs({2: Fraction(1, 2), 3: Fraction(1, 3), 5: Fraction(1, 6)})


def chi_square_passes(n, m_or_p, k, seed, n_samples=100_000):
    """Chi-square at significance 1e-3 with the documented rerun-once budget."""
    if isinstance(m_or_p, int):
        law = m_shuffle_law(n, m_or_p)
        draw = lambda rng: sample_m_shuffles(n, m_or_p, rng, n_samples)
    else:
        law = law_after_k(n, m_or_p, k)
        draw = lambda rng: sample_chains(n, m_or_p, k, rng, n_samples)
    for attempt in (0, 1):
        hist = EmpiricalHistogram.from_decks(draw(make_generator(seed, split=attempt)))
        _, _, p_value = chi_square_against_law(hist, law)
        if p_value >= 1e-3:
            return True
    return False


class TestReproducibility:
    def test_same_seed_same_stream(self):
        a = sample_m_shuffles(8, 3, make_generator(5, 2), 500)
        b = sample_m_shuffles(8, 3, make_generator(5, 2), 500)
        assert np.array_equal(a, b)

    def test_different_split_differs(self):
        a = sample_m_shuffles(8, 3, make_generator(5, 0), 500)
        b = sample_m_shuffles(8, 3, make_generator(5, 1), 500)
        assert not np.array_equal(a, b)

    def test_chain_reproducible(self):
        a = sample_chains(6, MIX23, 4, make_generator(11), 300)
        b = sample_chains(6, MIX23, 4, make_generator(11), 300)
        assert np.array_equal(a, b)


class TestPinnedStreams:
    # Digests of sampled decks: a change to the stream layout or to how the
    # kernel turns uniforms into decks changes every seeded result.
    def test_m_shuffles_n52(self):
        decks = sample_m_shuffles(52, 2, make_generator(0), 20000)
        assert decks.dtype == np.int32
        assert hashlib.sha256(decks.tobytes()).hexdigest() == (
            "98039ef59095bd2d38f140a7d5de1b679f30768c141807d10c11c2460f84e1bf"
        )

    def test_chains_n16_mix23_k3(self):
        decks = sample_chains(16, MIX23, 3, make_generator(1), 20000)
        assert decks.dtype == np.int32
        assert hashlib.sha256(decks.tobytes()).hexdigest() == (
            "47cf36a8fa051ab7c6b93c6e32af1dfb2315192f12267460216aeb631392d92e"
        )

    # Batches past one chunk, a three-atom pack and a point mass over seven
    # steps: both samplers go through the same chunked loop, and each must
    # keep its own stream layout.
    @pytest.mark.parametrize(
        "draw, digest",
        [
            (
                lambda: sample_m_shuffles(52, 2, make_generator(3, 1), 40000),
                "4adc74a9974991de18bf053eba01b93f9d72803130b07a55a73cdd8bf0c6fe84",
            ),
            (
                lambda: sample_chains(52, MIX235, 7, make_generator(4), 20000),
                "d14125cf47034e72ef38b1b5c6067f6d393f6539ada93cf82b03b50d884fba76",
            ),
            (
                lambda: sample_chains(52, PackDistribution.delta(2), 7, make_generator(4), 20000),
                "7d025a998098a3625afe12da7af0b600a31b2c253afab6b91ce7847d07c625aa",
            ),
        ],
        ids=["m_shuffles_two_chunks", "chains_three_atoms", "chains_delta2"],
    )
    def test_sampler_streams(self, draw, digest):
        decks = draw()
        assert decks.dtype == np.int32
        assert hashlib.sha256(decks.tobytes()).hexdigest() == digest


class TestSharedDraws:
    @pytest.mark.parametrize("n, seed, split", [(5, 3, 0), (2, 8, 1)])
    def test_rows_equal_separate_m_shuffle_draws(self, n, seed, split):
        # Past one chunk: every chunk's one draw of uniforms serves every m.
        from riffle import sampling

        size, ms = sampling._CHUNK + 7, [1, 2, 3, 5, 8]
        counts = sample_rising_counts(n, ms, make_generator(seed, split), size)
        assert counts.shape == (len(ms), size) and counts.dtype == np.int32
        for i, m in enumerate(ms):
            decks = sample_m_shuffles(n, m, make_generator(seed, split), size)
            assert np.array_equal(counts[i], rising_counts(decks))

    @pytest.mark.parametrize("n, seed, split", [(5, 3, 0), (2, 8, 1)])
    def test_histograms_equal_bincounts_of_the_counts(self, n, seed, split):
        # Past one chunk, with m = n + 3 leaving packs empty: the chunks
        # folded into one histogram give every row's class counts.
        from riffle import sampling

        size, ms = sampling._CHUNK + 7, [1, 2, n, n + 3]
        hist = rising_count_histograms(n, ms, make_generator(seed, split), size)
        assert hist.shape == (len(ms), n) and hist.dtype == np.int64
        counts = sample_rising_counts(n, ms, make_generator(seed, split), size)
        for row, r_values in zip(hist, counts):
            assert np.array_equal(row, np.bincount(r_values, minlength=n + 1)[1:])

    @pytest.mark.parametrize("n, ms", [(0, [2]), (3, []), (3, [2, 0])])
    def test_rejects_empty_or_nonpositive_arguments(self, n, ms):
        with pytest.raises(ValueError):
            sample_rising_counts(n, ms, make_generator(0), 10)

    @pytest.mark.parametrize("n, ms", [(0, [2]), (3, []), (3, [2, 0])])
    def test_histograms_reject_the_same_arguments(self, n, ms):
        with pytest.raises(ValueError, match="need n >= 1 and at least one m"):
            rising_count_histograms(n, ms, make_generator(0), 10)

    def test_suite_memory_does_not_grow_with_the_sample_count(self):
        # The suite folds each chunk into its histograms: four times the
        # draws may not raise its traced peak. Holding every draw's count,
        # a (len(ms), N) int32 array per deck size, took it from 3.8 MiB to
        # 6.1 MiB.
        import tracemalloc

        from riffle import sampling
        from riffle.verify import suite_sampler

        suite_sampler(4, 3, 0, 100)
        peaks = []
        for size in (2 * sampling._CHUNK, 8 * sampling._CHUNK):
            tracemalloc.start()
            try:
                assert suite_sampler(4, 3, 0, size)[0]["ok"]
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 0.25 * 2**20, peaks

    def test_suite_memory_at_its_defaults(self):
        # n <= 6, m <= 5, N = 100000. With int16 counts, intp cut digits and
        # a transposed float64 copy of the cut uniforms the suite peaked at
        # 4.6 MiB traced; int8 digits and counts and no copy gave 2.8 MiB.
        # Drop uniforms thresholded as they are drawn, and each pack count
        # folded as it is counted, give 1.5 MiB.
        import tracemalloc

        from riffle.verify import suite_sampler

        suite_sampler()
        tracemalloc.start()
        try:
            assert all(verdict["ok"] for verdict in suite_sampler())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.0 * 2**20, peak

    def test_memory_does_not_grow_with_the_pack_counts(self):
        # One 16384-row chunk: 64 pack counts may peak under 1 MiB above the
        # largest of them alone. Holding every m's counts, and an int64
        # offset copy of them, took the gap to 4.3 MiB.
        import tracemalloc

        from riffle import sampling

        peaks = []
        for ms in (range(1, 65), [64]):
            rising_count_histograms(6, ms, make_generator(0), 100)
            tracemalloc.start()
            try:
                rising_count_histograms(6, ms, make_generator(0), sampling._CHUNK)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] - peaks[1] < 2**20, peaks

    def test_deck_sampler_memory_per_cell(self):
        # One 16384-row chunk at n = 128: the decks, the cut uniforms and the
        # kernel's state. A whole float64 draw of the drop uniforms besides
        # took the traced peak to 34.3 bytes a cell; drawn and thresholded a
        # slice at a time, as the rising counts are, they give 26.3.
        import tracemalloc

        from riffle import sampling

        n, size = 128, sampling._CHUNK
        sample_m_shuffles(n, 2, make_generator(0), 100)
        tracemalloc.start()
        try:
            sample_m_shuffles(n, 2, make_generator(0), size)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 28 * n * size, peak / (n * size)

    def test_dump_text_is_freed_when_the_suite_returns(self):
        # The trial column's text lives for one suite call. Cached across
        # calls, its 50021 strings stayed traced after the suite returned
        # (3.0 MiB).
        import os
        import tracemalloc

        from riffle.verify import suite_sampler

        with open(os.devnull, "w") as dump:
            suite_sampler(4, 3, 0, 100, dump=dump)
            tracemalloc.start()
            try:
                assert suite_sampler(4, 3, 0, 50_021, dump=dump)[0]["ok"]
                left = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
        assert left < 2**20, left


class TestChunkPlan:
    def test_plan_is_lazy_whatever_the_sample_count(self):
        # A list of every chunk grows with the sample count: 6.1 million
        # tuples at 10^11 rows, built before the first draw.
        from riffle import sampling

        size = 10**15
        plan = sampling._chunks(size, 2, 2)
        assert isinstance(plan, range) and len(plan) == -(-size // sampling._CHUNK)
        assert plan[0] == 0 and plan[-1] == size - sampling._CHUNK
        assert sampling._chunks(sampling._CHUNK + 7, 2, 2)[-1] == sampling._CHUNK

    def test_guard_counts_the_deck_size_as_well_as_the_pack_count(self):
        # A chunk's cut uniforms and drop thresholds are (rows, n): at n =
        # 5000 one chunk of float64 cut uniforms alone would take 625 MiB.
        from riffle import sampling
        from riffle.laws import SizeGuardError

        width = sampling.MAX_CHUNK_CELLS // sampling._CHUNK
        for m, n in [(width, 2), (2, width), (width, width)]:
            assert len(sampling._chunks(sampling._CHUNK, m, n)) == 1
        for m, n in [(width + 1, 2), (2, width + 1)]:
            with pytest.raises(SizeGuardError, match=f"pack count {m} at deck size {n} "):
                sampling._chunks(sampling._CHUNK, m, n)
        # Fewer rows than a chunk count as they are.
        assert len(sampling._chunks(sampling._CHUNK // 2, 2, 2 * width)) == 1
        with pytest.raises(SizeGuardError):
            sampling._chunks(sampling._CHUNK // 2 + 1, 2, 2 * width)

    @pytest.mark.parametrize("n", [6, 130])
    def test_sliced_drop_thresholds_equal_one_whole_draw(self, n):
        # Rows past a whole number of slices; n = 130 takes int16 thresholds.
        from riffle import _kernels, sampling

        rows = 3 * (sampling._DROP_CELLS // n) + 5
        rng, whole = make_generator(n), make_generator(n)
        digit_u, threshold = sampling._threshold_draws(rng, rows, n)
        whole_digit_u, whole_drop_u = whole.random((rows, n)), whole.random((rows, n))
        assert np.array_equal(digit_u, whole_digit_u)
        assert threshold.dtype == _kernels._count_type(n) == (np.int8 if n < 128 else np.int16)
        assert np.array_equal(threshold, _kernels._thresholds(whole_drop_u))
        assert rng.random() == whole.random()


class TestChunkSizeGuard:
    def test_pack_state_past_the_bound_raises_before_drawing(self, monkeypatch):
        from riffle import sampling
        from riffle.laws import SizeGuardError

        # The bound counts m times the rows of one chunk: 3 * 4 cells fit,
        # 3 * 5 do not, and a size past one chunk counts one chunk's rows.
        monkeypatch.setattr(sampling, "MAX_CHUNK_CELLS", 12)
        assert sample_rising_counts(2, [1, 3], make_generator(0), 4).shape == (2, 4)
        assert sample_m_shuffles(2, 3, make_generator(0), 4).shape == (4, 2)
        with pytest.raises(SizeGuardError):
            sample_rising_counts(2, [1, 3], make_generator(0), 5)
        monkeypatch.setattr(sampling, "MAX_CHUNK_CELLS", 3 * sampling._CHUNK - 1)
        for draw in (
            lambda rng: sample_rising_counts(2, [1, 3], rng, sampling._CHUNK + 1),
            lambda rng: rising_count_histograms(2, [1, 3], rng, sampling._CHUNK + 1),
            lambda rng: sample_m_shuffles(2, 3, rng, sampling._CHUNK),
            lambda rng: sample_chains(2, PackDistribution.delta(3), 1, rng, sampling._CHUNK),
        ):
            rng = make_generator(0)
            with pytest.raises(SizeGuardError, match="pack count 3"):
                draw(rng)
            assert rng.random() == make_generator(0).random()


class TestChiSquareTail:
    def test_matches_scipy_in_both_tails(self):
        chi2 = pytest.importorskip("scipy.stats").chi2
        for dof in range(1, 101):
            xs = np.concatenate(
                [np.geomspace(1e-8, 1.0, 25), np.linspace(0.5, 3 * dof + 60, 80), [10.0 * dof + 400]]
            )
            for x in xs:
                ref = float(chi2.sf(x, dof))
                if ref > 1e-300:
                    assert chi2_sf(float(x), dof) == pytest.approx(ref, rel=1e-12, abs=0)

    def test_edges(self):
        assert chi2_sf(0.0, 3) == 1.0
        assert chi2_sf(2.0, 2) == math.exp(-1.0)
        assert chi2_sf(1e6, 5) == 0.0
        with pytest.raises(ValueError):
            chi2_sf(1.0, 0)

    def test_empty_histogram_rejected(self):
        # No samples is no evidence: the check must not report agreement.
        hist = EmpiricalHistogram(3, np.zeros(3, np.int64), 0)
        with pytest.raises(ValueError):
            chi_square_against_law(hist, m_shuffle_law(3, 2))

    def test_sampler_suite_runs_without_scipy(self, tmp_path):
        # An import hook that refuses scipy: the CLI must not need it.
        code = (
            "import sys\n"
            "class NoScipy:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name == 'scipy' or name.startswith('scipy.'):\n"
            "            raise ImportError('scipy is blocked')\n"
            "sys.meta_path.insert(0, NoScipy())\n"
            "from riffle.cli import main\n"
            "main()\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(riffle.__file__).parents[1]))
        args = ["verify", "--suite", "sampler", "--n", "3", "--m", "2", "--N", "2000"]
        proc = subprocess.run(
            [sys.executable, "-c", code, *args, "--cache", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["ok"] is True


class TestSamplers:
    def test_one_shuffle_is_identity(self):
        decks = sample_m_shuffles(7, 1, make_generator(1), 200)
        assert np.array_equal(decks, np.tile(np.arange(1, 8), (200, 1)))

    def test_single_sample_is_valid_arrangement(self):
        (deck,) = sample_m_shuffles(10, 3, make_generator(3), 1)
        assert sorted(deck) == list(range(1, 11))

    def test_k0_chain_is_identity(self):
        (deck,) = sample_chains(6, MIX23, 0, make_generator(4), 1)
        assert list(deck) == [1, 2, 3, 4, 5, 6]

    def test_identity_probability_n2_m2(self):
        decks = sample_m_shuffles(2, 2, make_generator(7), 100_000)
        p_hat = float((decks[:, 0] == 1).mean())
        se = math.sqrt(0.75 * 0.25 / 100_000)
        assert abs(p_hat - 0.75) <= 3 * se

    def test_m_shuffle_matches_exact_law(self):
        assert chi_square_passes(5, 3, 1, seed=101, n_samples=100_000)

    def test_m_shuffle_large_sample(self):
        assert chi_square_passes(5, 3, 1, seed=909, n_samples=1_000_000)

    def test_chain_delta2_k3_matches_8_shuffle(self):
        law = m_shuffle_law(4, 8)
        decks = sample_chains(4, PackDistribution.delta(2), 3, make_generator(55), 100_000)
        hist = EmpiricalHistogram.from_decks(decks)
        _, _, p_value = chi_square_against_law(hist, law)
        assert p_value >= 1e-3

    def test_mixed_pack_chain_matches_mixture_of_m_shuffles(self):
        # Two MIX23 steps are one shuffle whose pack count is 4, 6 or 9.
        weights, den = next(islice(product_laws(MIX23), 2, None))
        assert law_after_k(4, MIX23, 2) == mixture_of_m_shuffles(4, weights, den)
        assert chi_square_passes(4, MIX23, 2, seed=77, n_samples=100_000)


class TestEmpiricalTv:
    def test_uniform_samples_near_zero(self):
        rng = make_generator(13)
        n, N = 6, 200_000
        decks = np.empty((N, n), np.int32)
        perms = rng.permuted(np.tile(np.arange(1, n + 1), (N, 1)), axis=1)
        decks[:] = perms
        hist = EmpiricalHistogram.from_decks(decks)
        est = empirical_tv(hist, eulerian_row(n))
        assert est.value <= 3 * est.std_error + 0.003  # plug-in bias allowance

    def test_gsr_one_step_near_one(self):
        decks = sample_chains(52, PackDistribution.delta(2), 1, make_generator(21), 20_000)
        est = empirical_tv(EmpiricalHistogram.from_decks(decks), eulerian_row(52))
        assert est.value > 0.999

    def test_matches_exact_tv_with_band(self):
        n, m, N = 6, 4, 200_000
        exact = float(tv_to_uniform(m_shuffle_law(n, m)))
        decks = sample_m_shuffles(n, m, make_generator(31), N)
        est = empirical_tv(EmpiricalHistogram.from_decks(decks), eulerian_row(n))
        assert abs(est.value - exact) <= 3 * est.std_error + 0.003

    def test_empty_histogram_rejected(self):
        hist = EmpiricalHistogram(3, np.zeros(3, np.int64), 0)
        with pytest.raises(ValueError):
            empirical_tv(hist, eulerian_row(3))


class TestHistogram:
    def test_counts_must_sum(self):
        with pytest.raises(ValueError):
            EmpiricalHistogram(3, np.array([1, 0, 0]), 5)

    def test_from_r_values(self):
        hist = EmpiricalHistogram.from_r_values(4, np.array([1, 1, 2, 4]))
        assert list(hist.counts) == [2, 1, 0, 1]


class TestCsvDump:
    def test_header_and_rows(self):
        buf = io.StringIO()
        write_sample_csv(buf, 4, 2, [3, 1, 2])
        assert buf.getvalue() == "4,2,0,3\n4,2,1,1\n4,2,2,2\n"

    @pytest.mark.parametrize("make", [list, np.array, iter], ids=["list", "array", "iterator"])
    def test_any_iterable_of_counts(self, make):
        buf = io.StringIO()
        write_sample_csv(buf, 3, 2, make([1, 2]))
        assert buf.getvalue() == "3,2,0,1\n3,2,1,2\n"


def test_rising_counts_matches_exact():
    decks = sample_m_shuffles(9, 4, make_generator(9), 500)
    from riffle.combinatorics import rising_sequences

    r = rising_counts(decks)
    for i in range(0, 500, 61):
        assert r[i] == rising_sequences(tuple(int(v) for v in decks[i]))
