"""Monte-Carlo simulation of the physical shuffle procedures.

The sampler implements the cut-and-drop process literally (multinomial cut,
then drops proportional to current pack sizes) rather than the digit-word
equivalence, which lives in :mod:`riffle.oracles` as part of the exact
machinery. Disagreement between the two would localize a bug to one side.
Every sampler draws a step through :func:`_threshold_draws`, which turns the
drop uniforms into the kernels' integer thresholds a slice at a time.
:func:`sample_rising_counts` runs the same cut and drops but builds no deck:
it reads each draw's rising-sequence count off every pack's first and last
drop, one pack count at a time. :func:`rising_count_histograms`, which the
sampler suite uses, folds each pack count's counts into its class histogram
as they come, so its memory grows neither with the sample count nor with the
number of pack counts: a chunk's cut uniforms, its drop thresholds and one
pack count's state are all it holds.

Streams are reproducible: the same ``(seed, split)`` pair always yields the
same samples, via a counter-based Philox generator.
"""

from __future__ import annotations

import math
from typing import IO, Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import _kernels
from .laws import PackDistribution, RisingSeqLaw, SizeGuardError

__all__ = [
    "EmpiricalHistogram",
    "SAMPLE_CSV_HEADER",
    "TvEstimate",
    "chi2_sf",
    "chi_square_against_law",
    "empirical_tv",
    "make_generator",
    "rising_count_histograms",
    "rising_counts",
    "sample_chains",
    "sample_m_shuffles",
    "sample_rising_counts",
    "write_sample_csv",
]

#: Rows per batch; fixed so that a given (seed, split, call) consumes the
#: random stream identically on every run.
_CHUNK = 16384

#: Largest max(pack count, deck size) times chunk rows a sampler allocates
#: for. At the guard with m = 1024 (one full chunk) a sampler call, kernel and
#: its own state together, peaks near 6.1 to 7.1 bytes a cell for decks under
#: 2^7 cards and 11.3 with int16 counts (traced): 98 to 180 MiB, whatever other
#: pack counts it runs, mostly per-pack state. With n = 1024 it is per-card
#: draws: 12.0 bytes a cell (192 MiB) for rising counts, 8 of them float64 cut
#: uniforms, and 26.1 (417 MiB) for the deck samplers (traced at n <= 512).
MAX_CHUNK_CELLS = 2**24

#: Drop uniforms drawn at a time by every sampler, in whole rows: 64
#: KiB of float64, thresholded before the next slice is drawn.
_DROP_CELLS = 2**13


def make_generator(seed: int, split: int = 0) -> np.random.Generator:
    """Counter-based generator for the given seed and stream split."""
    if seed < 0 or split < 0:
        raise ValueError("seed and split must be nonnegative")
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(split,))
    return np.random.Generator(np.random.Philox(seq))


def _chunks(size: int, m_max: int, n: int) -> range:
    """First row of each chunk, once its state per pack and draws per card fit.

    The chunk at row lo has ``min(_CHUNK, size - lo)`` rows. The plan is a
    ``range``, so it takes the same few bytes whatever ``size`` is.
    """
    cells = max(m_max, n) * min(size, _CHUNK)
    if cells > MAX_CHUNK_CELLS:
        raise SizeGuardError(
            f"pack count {m_max} at deck size {n} needs {cells} cells, over {MAX_CHUNK_CELLS}"
        )
    return range(0, size, _CHUNK)


def _threshold_draws(rng: np.random.Generator, rows: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """One step's draws: (rows, n) cut uniforms, then the drops' as (n, rows) thresholds.

    The drop uniforms are drawn ``_DROP_CELLS`` at a time, in whole rows, and
    each slice is thresholded as it is drawn. Consecutive draws continue one
    stream in C order, so the thresholds equal those of one whole draw.
    """
    digit_u = rng.random((rows, n))
    threshold = np.empty((n, rows), _kernels._count_type(n))
    step = max(1, _DROP_CELLS // n)
    for lo in range(0, rows, step):
        hi = min(lo + step, rows)
        _kernels._thresholds(rng.random((hi - lo, n)), out=threshold[:, lo:hi])
    return digit_u, threshold


def _sample(
    n: int, k: int, size: int, rng: np.random.Generator, packs: Callable[[int], np.ndarray],
    m_max: int,
) -> np.ndarray:
    """``size`` (rows, n) decks after k shuffle steps of the ordered deck, in chunks.

    ``packs(rows)`` gives one step's pack count, at most ``m_max``, per row.
    Per chunk and per step the stream layout is: whatever ``packs`` draws,
    then :func:`_threshold_draws`.
    """
    chunks = _chunks(size, m_max, n)
    out = np.empty((size, n), np.int32)
    for lo in chunks:
        rows = min(_CHUNK, size - lo)
        decks = np.tile(np.arange(1, n + 1, dtype=np.int32), (rows, 1))
        for _ in range(k):
            pack_m = packs(rows)
            decks = _kernels._step(decks, pack_m, *_threshold_draws(rng, rows, n))
        out[lo : lo + rows] = decks
    return out


def sample_m_shuffles(n: int, m: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """Sample ``size`` independent m-shuffles of the ordered deck.

    Returns a (size, n) int32 array of card values, top to bottom.
    """
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    return _sample(n, 1, size, rng, lambda rows: np.full(rows, m, np.int64), m)


def _rising_count_chunks(
    n: int, ms: Sequence[int], rng: np.random.Generator, size: int
) -> Iterator[tuple[int, int, np.ndarray]]:
    """(first row, index into ms, (rows,) int32 counts), chunk by chunk and m by m.

    The arguments and the chunk size guard are checked on the call, before
    anything is drawn. A chunk is drawn when its first count is asked for,
    into the kernel's generator, which drops it after its last count.
    """
    ms = [int(m) for m in ms]
    if n < 1 or not ms or min(ms) < 1:
        raise ValueError("need n >= 1 and at least one m, every m >= 1")
    return (
        (lo, i, r_values)
        for lo in _chunks(size, max(ms), n)
        for i, r_values in enumerate(
            _kernels.shuffled_rising_counts(ms, *_threshold_draws(rng, min(_CHUNK, size - lo), n))
        )
    )


def sample_rising_counts(
    n: int, ms: Sequence[int], rng: np.random.Generator, size: int
) -> np.ndarray:
    """Rising-sequence counts of ``size`` m-shuffles for every m in ``ms``.

    Row i of the (len(ms), size) int32 result is
    ``rising_counts(sample_m_shuffles(n, ms[i], rng, size))`` for ``rng`` in
    its current state: the m-shuffle stream does not depend on m, so every
    pack count reuses one draw of the uniforms. The decks are never built:
    :func:`riffle._kernels.shuffled_rising_counts` runs the same cut and
    drops and reads the counts off each pack's first and last drop.
    """
    stream = _rising_count_chunks(n, ms, rng, size)
    out = np.empty((len(ms), size), np.int32)
    for lo, i, r_values in stream:
        out[i, lo : lo + len(r_values)] = r_values
    return out


def rising_count_histograms(
    n: int, ms: Sequence[int], rng: np.random.Generator, size: int
) -> np.ndarray:
    """Class counts of :func:`sample_rising_counts`, one pack count's chunk held at a time.

    Entry (i, r - 1) of the (len(ms), n) int64 result is the number of the
    ``size`` m-shuffles, m = ``ms[i]``, with r rising sequences: the
    ``bincount`` of row i of ``sample_rising_counts(n, ms, rng, size)`` for
    ``rng`` in the same state. Memory does not grow with ``size`` or with
    the number of pack counts.
    """
    stream = _rising_count_chunks(n, ms, rng, size)
    out = np.zeros((len(ms), n), np.int64)
    for _, i, r_values in stream:
        out[i] += np.bincount(r_values, minlength=n + 1)[1:]
    return out


def sample_chains(
    n: int, p: PackDistribution, k: int, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Sample ``size`` decks, each after k successive independent p-shuffles.

    Each step draws a pack count from p, one uniform per row, and performs
    one m-shuffle of the current deck.
    """
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    support = np.array(p.support(), dtype=np.int64)
    cum = np.cumsum([float(w) for _, w in p.atoms])
    cum[-1] = 1.0

    def packs(rows: int) -> np.ndarray:
        return support[np.searchsorted(cum, rng.random(rows), side="right")]

    return _sample(n, k, size, rng, packs, int(support.max()))


def rising_counts(decks: np.ndarray) -> np.ndarray:
    """Rising-sequence count of every deck row of a (rows, n) array."""
    decks = np.ascontiguousarray(decks, dtype=np.int32)
    return _kernels.rising_counts(decks)


class EmpiricalHistogram:
    """Sampled rising-sequence class counts for decks of size n."""

    __slots__ = ("n", "counts", "sample_count")

    def __init__(self, n: int, counts: np.ndarray, sample_count: int) -> None:
        if counts.shape != (n,):
            raise ValueError(f"histogram needs {n} class bins")
        if int(counts.sum()) != sample_count:
            raise ValueError("histogram bins do not sum to the sample count")
        self.n, self.counts, self.sample_count = n, counts, sample_count

    @classmethod
    def from_decks(cls, decks: np.ndarray) -> "EmpiricalHistogram":
        return cls.from_r_values(decks.shape[1], rising_counts(decks))

    @classmethod
    def from_r_values(cls, n: int, r_values: np.ndarray) -> "EmpiricalHistogram":
        counts = np.bincount(np.asarray(r_values), minlength=n + 1)[1:].astype(np.int64)
        return cls(n, counts, int(len(r_values)))


class TvEstimate(NamedTuple):
    value: float
    std_error: float


def empirical_tv(hist: EmpiricalHistogram, exact_row: Sequence[int]) -> TvEstimate:
    """Plug-in estimate of the TV distance to uniform over classes.

    Valid because the sampled law is constant on rising-sequence classes; the
    uniform class masses come from the exact Eulerian row, a ``tuple[int, ...]``
    of class counts. The standard error is the delta-method binomial estimate
    with a 1/(2N) floor; the estimator itself is upward-biased at small N, so
    comparisons should always use a multiple-of-SE band rather than equality.
    """
    if hist.n != len(exact_row):
        raise ValueError("histogram and row have different deck sizes")
    N = hist.sample_count
    if N == 0:
        raise ValueError("empty histogram")
    nfact = math.factorial(hist.n)
    u = np.array([count / nfact for count in exact_row])
    p_hat = hist.counts / N
    diff = p_hat - u
    tv = 0.5 * float(np.abs(diff).sum())
    signs = np.where(diff >= 0, 1.0, -1.0)
    d = float((signs * p_hat).sum())
    variance = max(0.0, 1.0 - d * d) / (4.0 * N)
    se = max(math.sqrt(variance), 0.5 / N)
    return TvEstimate(tv, se)


def chi2_sf(x: float, dof: int) -> float:
    """Upper tail P(X > x) of the chi-square law with integer ``dof`` >= 1.

    Closed form in h = x/2: e^-h * sum_{i < dof/2} h^i / i! for even dof, and
    erfc(sqrt h) + e^-h * sum_{i < (dof-1)/2} h^(i+1/2) / Gamma(i+3/2) for odd
    dof. Each term is formed in log space, exp(s log h - h - lgamma(s+1)), so
    nothing overflows; the terms are all positive and summed with ``fsum``.
    """
    if dof < 1:
        raise ValueError(f"chi-square needs dof >= 1, got {dof}")
    if x <= 0:
        return 1.0
    h = 0.5 * x
    log_h = math.log(h)
    half = 0.0 if dof % 2 == 0 else 0.5
    terms = [math.exp((i + half) * log_h - h - math.lgamma(i + half + 1)) for i in range(dof // 2)]
    if half:
        terms.append(math.erfc(math.sqrt(h)))
    return min(1.0, math.fsum(terms))


#: Fewest expected observations per bin; :func:`chi_square_against_law` merges up to it.
MIN_EXPECTED = 5.0


def chi_square_against_law(hist: EmpiricalHistogram, law: RisingSeqLaw) -> tuple[float, int, float]:
    """Goodness-of-fit chi-square of a histogram against an exact law.

    Zero-mass classes must be unobserved (one observation there refutes the
    law outright). Low-expectation bins are merged left to right until each
    merged bin expects at least ``MIN_EXPECTED``. Returns (statistic, dof,
    p-value).
    """
    if hist.n != law.n:
        raise ValueError("histogram and law have different deck sizes")
    N = hist.sample_count
    if N == 0:
        raise ValueError("empty histogram")
    pairs: list[list] = []  # [expected, observed] per merged bin
    for r in range(1, law.n + 1):
        mass = law.class_mass(r)
        if mass == 0:
            # The law is nonincreasing in r, so the zero-mass classes are the rest.
            if hist.counts[r - 1 :].any():
                return math.inf, max(1, r - 1), 0.0
            break
        if not pairs or pairs[-1][0] >= MIN_EXPECTED:
            pairs.append([0.0, 0])
        pairs[-1][0] += N * float(mass)
        pairs[-1][1] += int(hist.counts[r - 1])
    if len(pairs) > 1 and pairs[-1][0] < MIN_EXPECTED:
        e, o = pairs.pop()
        pairs[-1][0] += e
        pairs[-1][1] += o

    dof = len(pairs) - 1
    if dof == 0:
        return 0.0, 0, 1.0
    stat = sum((o - e) ** 2 / e for e, o in pairs)
    return stat, dof, chi2_sf(stat, dof)


#: First line of a sample dump; :func:`write_sample_csv` appends rows under it.
SAMPLE_CSV_HEADER = "n,m,trial,r\n"


def write_sample_csv(
    out: IO[str], n: int, m: int, r_values: Iterable[int], trials: Sequence[str] | None = None
) -> None:
    """Append one (n, m) cell's rising-sequence counts as ``n,m,trial,r`` rows.

    ``trials``, the trial column's text (``"0,"``, ``"1,"``, ..., one per
    row), lets a caller that writes many cells of one size build it once.
    """
    r_list = np.asarray(r_values).tolist()
    r_text = {r: f"{r}\n" for r in set(r_list)}
    parts = [f"{n},{m},"] * (3 * len(r_list))
    parts[1::3] = _trial_column(len(r_list)) if trials is None else trials
    parts[2::3] = map(r_text.__getitem__, r_list)
    out.write("".join(parts))


def _trial_column(size: int) -> tuple[str, ...]:
    """The trial column's text for a cell of ``size`` rows."""
    return tuple(f"{trial}," for trial in range(size))
