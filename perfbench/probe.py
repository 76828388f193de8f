"""Layer probes, each run in a fresh process; prints one JSON object.

    python probe.py eulerian N CACHE_DIR
        Seconds for one ``eulerian_row(N)`` against CACHE_DIR: cold when the
        directory holds no row for N (compute and write), from disk otherwise.

    python probe.py kernels SEED
        Throughput, in decks per second, of the sampler kernels that run
        here (``riffle._kernels.chain_step`` and ``rising_counts``) at
        several deck sizes, on uniforms drawn from SEED before timing.
"""

import json
import statistics
import sys
import time

KERNEL_DECK_SIZES = (16, 52, 104)
KERNEL_ROWS = 10_000
KERNEL_PACKS = 2
KERNEL_REPEATS = 5


def eulerian(n: int, cache_dir: str) -> dict:
    from riffle.combinatorics import EulerianCache, eulerian_row

    start = time.perf_counter()
    eulerian_row(n, EulerianCache(cache_dir))
    return {"s": time.perf_counter() - start}


def _median_seconds(fn, *args) -> float:
    times = []
    for _ in range(KERNEL_REPEATS):
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def kernels(seed: int) -> dict:
    import numpy as np
    from riffle import _kernels

    rng = np.random.default_rng(seed)
    out = {}
    for n in KERNEL_DECK_SIZES:
        decks = np.tile(np.arange(1, n + 1, dtype=np.int32), (KERNEL_ROWS, 1))
        pack_m = np.full(KERNEL_ROWS, KERNEL_PACKS, np.int64)
        digit_u = rng.random((KERNEL_ROWS, n))
        drop_u = rng.random((KERNEL_ROWS, n))
        # The first call compiles the numba kernels; keep it out of the timing.
        shuffled = _kernels.chain_step(decks, pack_m, digit_u, drop_u)
        _kernels.rising_counts(shuffled)
        step_s = _median_seconds(_kernels.chain_step, decks, pack_m, digit_u, drop_u)
        count_s = _median_seconds(_kernels.rising_counts, shuffled)
        out[f"kernels.chain_step.n{n}.decks_per_s"] = KERNEL_ROWS / step_s
        out[f"kernels.rising_counts.n{n}.decks_per_s"] = KERNEL_ROWS / count_s
    return out


if __name__ == "__main__":
    kind, *rest = sys.argv[1:]
    if kind == "eulerian":
        result = eulerian(int(rest[0]), rest[1])
    elif kind == "kernels":
        result = kernels(int(rest[0]))
    else:
        sys.exit(f"unknown probe {kind!r}")
    print(json.dumps(result))
