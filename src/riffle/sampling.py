"""Monte-Carlo simulation of the physical shuffle procedures.

The sampler implements the cut-and-drop process literally (multinomial cut,
then drops proportional to current pack sizes) rather than the digit-word
equivalence, which lives in :mod:`riffle.oracles` as part of the exact
machinery. Disagreement between the two would localize a bug to one side.

Streams are reproducible: the same ``(seed, split)`` pair always yields the
same samples, via a counter-based Philox generator. Workers should use
distinct splits and merge histograms by addition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Iterable, NamedTuple

import numpy as np

from . import _kernels
from .combinatorics import EulerianRow
from .laws import PackDistribution, RisingSeqLaw

__all__ = [
    "EmpiricalHistogram",
    "TvEstimate",
    "chi2_sf",
    "chi_square_against_law",
    "empirical_tv",
    "make_generator",
    "rising_counts",
    "sample_chain",
    "sample_chains",
    "sample_m_shuffle",
    "sample_m_shuffles",
    "write_sample_csv",
]

#: Rows per batch; fixed so that a given (seed, split, call) consumes the
#: random stream identically on every run.
_CHUNK = 16384


def make_generator(seed: int, split: int = 0) -> np.random.Generator:
    """Counter-based generator for the given seed and stream split."""
    if seed < 0 or split < 0:
        raise ValueError("seed and split must be nonnegative")
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(split,))
    return np.random.Generator(np.random.Philox(seq))


def _identity_decks(rows: int, n: int) -> np.ndarray:
    return np.tile(np.arange(1, n + 1, dtype=np.int32), (rows, 1))


def _float_cumprobs(p: PackDistribution) -> tuple[np.ndarray, np.ndarray]:
    support = np.array(p.support(), dtype=np.int64)
    probs = np.array([float(w) for _, w in p.atoms])
    cum = np.cumsum(probs)
    cum[-1] = 1.0
    return support, cum


def sample_m_shuffles(n: int, m: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """Sample ``size`` independent m-shuffles of the ordered deck.

    Returns a (size, n) int32 array of card values, top to bottom.
    """
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    out = np.empty((size, n), np.int32)
    for lo in range(0, size, _CHUNK):
        hi = min(lo + _CHUNK, size)
        rows = hi - lo
        decks = _identity_decks(rows, n)
        pack_m = np.full(rows, m, np.int64)
        digit_u = rng.random((rows, n))
        drop_u = rng.random((rows, n))
        out[lo:hi] = _kernels.chain_step(decks, pack_m, digit_u, drop_u)
    return out


def sample_m_shuffle(n: int, m: int, rng: np.random.Generator) -> tuple[int, ...]:
    """Single m-shuffle of the ordered deck, as a tuple of card values."""
    return tuple(int(v) for v in sample_m_shuffles(n, m, rng, 1)[0])


def sample_chains(
    n: int, p: PackDistribution, k: int, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Sample ``size`` decks, each after k successive independent p-shuffles.

    Each step draws a pack count from p and performs one m-shuffle of the
    current deck. Per chunk and per step the stream layout is: one uniform per
    row for the pack count, then (rows, n) uniforms for the cut, then
    (rows, n) uniforms for the drops.
    """
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    support, cum = _float_cumprobs(p)
    out = np.empty((size, n), np.int32)
    for lo in range(0, size, _CHUNK):
        hi = min(lo + _CHUNK, size)
        rows = hi - lo
        decks = _identity_decks(rows, n)
        for _ in range(k):
            pack_u = rng.random(rows)
            pack_m = support[np.searchsorted(cum, pack_u, side="right")]
            digit_u = rng.random((rows, n))
            drop_u = rng.random((rows, n))
            decks = _kernels.chain_step(decks, pack_m, digit_u, drop_u)
        out[lo:hi] = decks
    return out


def sample_chain(
    n: int, p: PackDistribution, k: int, rng: np.random.Generator
) -> tuple[int, ...]:
    """Single deck after k successive p-shuffles of the ordered deck."""
    return tuple(int(v) for v in sample_chains(n, p, k, rng, 1)[0])


def rising_counts(decks: np.ndarray) -> np.ndarray:
    """Rising-sequence count of every deck row of a (rows, n) array."""
    decks = np.ascontiguousarray(decks, dtype=np.int32)
    return _kernels.rising_counts(decks)


@dataclass(frozen=True)
class EmpiricalHistogram:
    """Sampled rising-sequence class counts for decks of size n."""

    n: int
    counts: np.ndarray
    sample_count: int

    def __post_init__(self) -> None:
        if self.counts.shape != (self.n,):
            raise ValueError(f"histogram needs {self.n} class bins")
        if int(self.counts.sum()) != self.sample_count:
            raise ValueError("histogram bins do not sum to the sample count")

    @classmethod
    def from_decks(cls, decks: np.ndarray) -> "EmpiricalHistogram":
        n = decks.shape[1]
        r = rising_counts(decks)
        counts = np.bincount(r, minlength=n + 1)[1:].astype(np.int64)
        return cls(n, counts, int(decks.shape[0]))

    @classmethod
    def from_r_values(cls, n: int, r_values: np.ndarray) -> "EmpiricalHistogram":
        counts = np.bincount(np.asarray(r_values), minlength=n + 1)[1:].astype(np.int64)
        return cls(n, counts, int(len(r_values)))

    def merge(self, other: "EmpiricalHistogram") -> "EmpiricalHistogram":
        """Combine two histograms; addition, so merge order never matters."""
        if self.n != other.n:
            raise ValueError("cannot merge histograms of different deck sizes")
        return EmpiricalHistogram(
            self.n, self.counts + other.counts, self.sample_count + other.sample_count
        )

    def __add__(self, other: "EmpiricalHistogram") -> "EmpiricalHistogram":
        return self.merge(other)


class TvEstimate(NamedTuple):
    value: float
    std_error: float


def empirical_tv(hist: EmpiricalHistogram, exact_row: EulerianRow) -> TvEstimate:
    """Plug-in estimate of the TV distance to uniform over classes.

    Valid because the sampled law is constant on rising-sequence classes; the
    uniform class masses come from the exact Eulerian row. The standard error
    is the delta-method binomial estimate with a 1/(2N) floor; the estimator
    itself is upward-biased at small N, so comparisons should always use a
    multiple-of-SE band rather than equality.
    """
    if hist.n != exact_row.n:
        raise ValueError("histogram and row have different deck sizes")
    N = hist.sample_count
    if N == 0:
        raise ValueError("empty histogram")
    nfact = math.factorial(hist.n)
    u = np.array([float(Fraction(exact_row.count(r), nfact)) for r in exact_row.r_values()])
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


def chi_square_against_law(
    hist: EmpiricalHistogram, law: RisingSeqLaw, min_expected: float = 5.0
) -> tuple[float, int, float]:
    """Goodness-of-fit chi-square of a histogram against an exact law.

    Zero-mass classes must be unobserved (one observation there refutes the
    law outright). Low-expectation bins are merged left to right until each
    merged bin expects at least ``min_expected``. Returns (statistic, dof,
    p-value).
    """
    if hist.n != law.n:
        raise ValueError("histogram and law have different deck sizes")
    N = hist.sample_count
    if N == 0:
        raise ValueError("empty histogram")
    expected = []
    observed = []
    for r in range(1, law.n + 1):
        mass = law.class_mass(r)
        obs = int(hist.counts[r - 1])
        if mass == 0:
            if obs:
                return math.inf, max(1, len(expected)), 0.0
            continue
        expected.append(N * float(mass))
        observed.append(obs)

    merged_e: list[float] = []
    merged_o: list[int] = []
    acc_e, acc_o = 0.0, 0
    for e, o in zip(expected, observed):
        acc_e += e
        acc_o += o
        if acc_e >= min_expected:
            merged_e.append(acc_e)
            merged_o.append(acc_o)
            acc_e, acc_o = 0.0, 0
    if acc_e > 0 and merged_e:
        merged_e[-1] += acc_e
        merged_o[-1] += acc_o
    elif acc_e > 0:
        merged_e.append(acc_e)
        merged_o.append(acc_o)

    dof = len(merged_e) - 1
    if dof == 0:
        return 0.0, 0, 1.0
    stat = sum((o - e) ** 2 / e for o, e in zip(merged_o, merged_e))
    return stat, dof, chi2_sf(stat, dof)


def write_sample_csv(out: IO[str], r_values: Iterable[int]) -> None:
    """Dump sampled rising-sequence counts as CSV with header ``trial,r``."""
    out.write("trial,r\n")
    for trial, r in enumerate(r_values):
        out.write(f"{trial},{int(r)}\n")
