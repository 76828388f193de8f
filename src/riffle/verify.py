"""Named verification suites behind the CLI's ``verify`` command.

Each suite returns a list of property verdicts, one dict per property, with
machine-readable fields. A verdict with ``ok == False`` makes the CLI exit
nonzero. Exact suites allow no tolerance at all; the sampler suite is
statistical and carries a documented rerun-once budget for its fixed
significance level.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import IO, Callable

from .laws import (
    PackDistribution,
    law_after_k,
    m_shuffle_law,
    tail_set_gap,
    tv_to_uniform,
)
from .oracles import oracle_convolution, oracle_digit_law, oracle_shuffle_sequence

__all__ = ["SUITES", "suite_names"]

Verdict = dict[str, object]


def _verdict(name: str, bad: list, what: str = "violations: ") -> Verdict:
    """The verdict on one property: it holds when ``bad`` lists no case."""
    return {"property": name, "ok": not bad, "detail": f"{what}{bad}" if bad else ""}


def suite_oracles(n_max: int = 6, m_max: int = 5, seed: int = 0, n_samples: int = 0) -> list[Verdict]:
    """Exact agreement of the closed-form laws with both brute-force oracles."""
    out = []
    bad = []
    for n in range(1, n_max + 1):
        for m in range(1, m_max + 1):
            if oracle_digit_law(n, m) != m_shuffle_law(n, m):
                bad.append((n, m))
    out.append(_verdict(f"digit_oracle_equality_n<={n_max}_m<={m_max}", bad, "mismatches: "))

    packs = {
        "delta2": PackDistribution.delta(2),
        "delta3": PackDistribution.delta(3),
        "mix23": PackDistribution.from_pairs({2: Fraction(1, 2), 3: Fraction(1, 2)}),
    }
    bad = []
    for n in range(1, min(n_max, 5) + 1):
        for label, p in packs.items():
            for k in range(0, 4):
                if oracle_convolution(n, p, k) != law_after_k(n, p, k):
                    bad.append((n, label, k))
    out.append(_verdict("convolution_oracle_equality_n<=5_k<=3", bad, "mismatches: "))
    return out


def suite_composition(n_max: int = 6, m_max: int = 0, seed: int = 0, n_samples: int = 0) -> list[Verdict]:
    """Two successive shuffles equal one shuffle with the product pack count."""
    out = []
    for pair, product in (((2, 2), 4), ((2, 3), 6)):
        bad = []
        for n in range(2, n_max + 1):
            if oracle_shuffle_sequence(n, pair) != m_shuffle_law(n, product):
                bad.append(n)
        name = f"compose_{pair[0]}x{pair[1]}_equals_{product}_n<={n_max}"
        out.append(_verdict(name, bad, "mismatches at n="))
    return out


def suite_monotonicity(n_max: int = 8, m_max: int = 30, seed: int = 0, n_samples: int = 0) -> list[Verdict]:
    """TV decreases in the pack count; class probabilities cross uniform once."""
    tv_bad = []
    low_bad = []
    high_bad = []
    for n in range(1, n_max + 1):
        u = Fraction(1, math.factorial(n))
        laws = {m: m_shuffle_law(n, m) for m in range(1, m_max + 2)}
        tvs = {m: tv_to_uniform(laws[m]) for m in laws}
        for m in range(1, m_max + 1):
            if tvs[m + 1] > tvs[m]:
                tv_bad.append((n, m))
            for r in range(1, n + 1):
                q_m = laws[m].prob(r)
                q_next = laws[m + 1].prob(r)
                if q_m <= u and q_m > q_next:
                    low_bad.append((n, m, r))
                if q_m > u:
                    # Once above uniform, every larger pack count stays above.
                    for j in range(m + 1, m_max + 2):
                        if laws[j].prob(r) <= u:
                            high_bad.append((n, m, r, j))
                            break
    return [
        _verdict(f"tv_nonincreasing_in_m_n<={n_max}_m<={m_max}", tv_bad),
        _verdict("below_uniform_class_prob_nondecreasing_in_m", low_bad),
        _verdict("above_uniform_stays_above_for_larger_m", high_bad),
    ]


def suite_tailsets(n_max: int = 8, m_max: int = 30, seed: int = 0, n_samples: int = 0) -> list[Verdict]:
    """Uniform dominates every m-shuffle on every upper tail of classes."""
    bad = []
    for n in range(1, n_max + 1):
        for m in range(1, m_max + 1):
            for r in range(1, n + 1):
                if tail_set_gap(n, m, r) < 0:
                    bad.append((n, m, r))
    return [_verdict(f"tail_set_gap_nonnegative_n<={n_max}_m<={m_max}", bad)]


def suite_sampler(
    n_max: int = 6,
    m_max: int = 5,
    seed: int = 0,
    n_samples: int = 100_000,
    dump: IO[str] | None = None,
) -> list[Verdict]:
    """Chi-square agreement of the physical sampler with the exact laws.

    Each (n, m) cell is tested at significance 1e-3; a failing cell is rerun
    once on the next stream split before being declared a violation (the
    documented flaky budget for a fixed-significance statistical test).
    The first attempts of all cells of one deck size share one draw of the
    split-0 uniforms, as separate draws from that split would be equal.
    Draws are folded into class histograms chunk by chunk, so memory does not
    grow with ``n_samples``. With ``dump``, the first attempt's
    rising-sequence counts of every cell are written to it as one CSV table;
    only then are one deck size's counts held at once.
    """
    from .sampling import SAMPLE_CSV_HEADER, EmpiricalHistogram, chi_square_against_law
    from .sampling import make_generator, rising_count_histograms, sample_rising_counts
    from .sampling import _chunks, _trial_column, write_sample_csv

    _chunks(n_samples, m_max, n_max)  # the size guard, before any draw
    ms = range(1, m_max + 1)
    # Every dumped cell has n_samples rows: their trial text is built once per call.
    trials = _trial_column(n_samples) if dump is not None else ()

    def histograms(n: int, cells, split: int) -> list:
        counts = rising_count_histograms(n, cells, make_generator(seed, split), n_samples)
        return [EmpiricalHistogram(n, row, n_samples) for row in counts]

    def first_attempts(n: int) -> list:
        # Every cell of deck size n reads the same split-0 stream.
        if dump is None:
            return histograms(n, ms, 0)
        hists = []
        for m, r_values in zip(ms, sample_rising_counts(n, ms, make_generator(seed), n_samples)):
            write_sample_csv(dump, n, m, r_values, trials)
            hists.append(EmpiricalHistogram.from_r_values(n, r_values))
        return hists

    bad = []
    if dump is not None:
        dump.write(SAMPLE_CSV_HEADER)
    for n in range(2, n_max + 1):
        for m, hist in zip(ms, first_attempts(n)):
            law = m_shuffle_law(n, m)
            p_values = [chi_square_against_law(hist, law)[2]]
            if p_values[0] < 1e-3:
                p_values.append(chi_square_against_law(histograms(n, [m], 1)[0], law)[2])
            if p_values[-1] < 1e-3:
                bad.append((n, m, p_values))
    name = f"sampler_chi_square_n<={n_max}_m<={m_max}_N={n_samples}"
    return [_verdict(name, bad)]


SUITES: dict[str, Callable[..., list[Verdict]]] = {
    "oracles": suite_oracles,
    "composition": suite_composition,
    "monotonicity": suite_monotonicity,
    "tailsets": suite_tailsets,
    "sampler": suite_sampler,
}


def suite_names() -> list[str]:
    return sorted(SUITES)
