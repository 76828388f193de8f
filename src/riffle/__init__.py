"""Exact and Monte-Carlo mixing analysis for randomized riffle shuffles.

A deck of n cards is cut into a random number of packs of multinomial sizes
and riffled back together; the pack count is drawn from a distribution p.
This package computes the exact post-shuffle distributions on rising-sequence
classes, exact total-variation distances to uniform, physical-process
Monte-Carlo cross-checks, and the cutoff-time and window formulas in both
discrete and continuous time.

``import riffle`` loads no submodule: each public name is served from its
module on first use (PEP 562), so only ``sampling``'s names import numpy.
"""

import importlib

__version__ = "0.1.0"

#: Each module's ``__all__``, which the package serves; a test keeps them equal.
_EXPORTS = {
    "combinatorics": """CACHE_ENV_VAR DISK_CACHE_MIN_N EulerianCache MAX_EXACT_N
        SizeGuardError decimal_to_int default_cache eulerian_row int_to_decimal
        rising_sequences validate_arrangement""",
    "continuous_time": """PoissonizedLaw UnitTimePackLaw poissonized_law poissonized_laws
        unit_time_pack_law""",
    "cutoff": """ContinuousCutoffReport CutoffReport LogMoments TruncationReport
        continuous_cutoff_report cutoff_report cutoff_shape gaussian_row_deviation hyp_check
        lindeberg_value log_moments nearest_step second_eigenvalue step_gap truncation_report
        uniform_crossing_asymptotic uniform_crossing_exact""",
    "laws": """PackDistribution ProductLaw RisingSeqLaw inverse_square_pack k_step_laws
        k_step_tvs law_after_k law_from_json law_to_json m_shuffle_law mixture_of_m_shuffles
        product_laws product_power tail_set_gap tv_to_uniform""",
    "oracles": "oracle_convolution oracle_digit_law oracle_shuffle_sequence",
    "sampling": """EmpiricalHistogram SAMPLE_CSV_HEADER TvEstimate chi2_sf chi_square_against_law
        empirical_tv make_generator rising_count_histograms rising_counts sample_chains
        sample_m_shuffles sample_rising_counts write_sample_csv""",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
