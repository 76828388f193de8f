"""Exact and Monte-Carlo mixing analysis for randomized riffle shuffles.

A deck of n cards is cut into a random number of packs of multinomial sizes
and riffled back together; the pack count is drawn from a distribution p.
This package computes the exact post-shuffle distributions on rising-sequence
classes, exact total-variation distances to uniform, physical-process
Monte-Carlo cross-checks, and the cutoff-time and window formulas in both
discrete and continuous time.
"""

from .combinatorics import *
from .continuous_time import *
from .cutoff import *
from .laws import *
from .oracles import *

__version__ = "0.1.0"

#: Names served from :mod:`riffle.sampling` on first use (PEP 562), so that
#: the exact engine and the CLI's exact commands never import numpy.
_SAMPLING_NAMES = frozenset(
    {
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
    }
)


def __getattr__(name: str):
    if name in _SAMPLING_NAMES:
        from . import sampling

        return getattr(sampling, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
