"""In-memory span tracer that wraps riffle's layer functions from outside.

Nothing in ``riffle`` knows about this module. :func:`install` replaces the
public functions of each layer with wrappers that record a span (name,
start, end, parent) and, for a few of them, counters read off their
arguments and results. Spans stay in memory; :meth:`Tracer.dump` writes them
out once, when the traced CLI call has ended.

Self time, computed by :func:`summarize`, is a span's duration minus the time
covered by its child spans, so the self times of all spans add up exactly to
the duration of the root span.
"""

from __future__ import annotations

import json
import sys
import time
from types import ModuleType

#: Name of the span that holds the counters' own bookkeeping, so that it is
#: charged to the tracer rather than to the layer that called the observed
#: function.
OBSERVE = "trace.observe"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index]
        self.counters: dict[str, int] = {}
        self.distinct: dict[str, set] = {}
        self._stack: list[int] = []

    def add(self, key: str, value: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def maximum(self, key: str, value: int) -> None:
        self.counters[key] = max(self.counters.get(key, 0), value)

    def wrap(self, name, fn, observe=None):
        """Return ``fn`` recording a span called ``name`` around each call.

        ``observe(args, kwargs, result)`` runs after the span closes, inside
        a span of its own. With ``name=None`` no span is recorded.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        if observe is not None and name is not None:
            observe = self.wrap(OBSERVE, observe)

        def traced(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                index = len(spans)
                spans.append([name, clock(), 0, stack[-1] if stack else -1])
                stack.append(index)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    stack.pop()
                    spans[index][2] = clock()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self, path: str) -> None:
        distinct = {key: len(values) for key, values in self.distinct.items()}
        with open(path, "w") as handle:
            json.dump(
                {"spans": self.spans, "counters": {**self.counters, **distinct}},
                handle,
            )


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _den_bits(class_prob) -> int:
    return max(q.denominator.bit_length() for q in class_prob)


def install(tracer: Tracer) -> None:
    """Wrap every traced layer of the already imported ``riffle`` package.

    A module-level function is also rebound in every ``riffle`` module that
    imported it by name (``cli``, ``continuous_time`` and ``verify`` do);
    methods are patched on their class, which is where calls look them up.
    """
    from riffle import _kernels, combinatorics, continuous_time, laws, sampling

    def patch(owner, attr, name, observe=None):
        original = getattr(owner, attr)
        traced = tracer.wrap(name, original, observe)
        setattr(owner, attr, traced)
        if isinstance(owner, ModuleType):
            for module_name, module in list(sys.modules.items()):
                if module_name == "riffle" or module_name.startswith("riffle."):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, traced)

    def on_law(args, kwargs, result):
        tracer.maximum("laws.max_den_bits", _den_bits(args[0].class_prob))

    def on_m_shuffle(args, kwargs, result):
        pair = (_arg(args, kwargs, 0, "n"), _arg(args, kwargs, 1, "m"))
        tracer.distinct.setdefault("laws.m_shuffle_law.distinct", set()).add(pair)

    def on_product(args, kwargs, result):
        k = _arg(args, kwargs, 1, "k")
        tracer.add("laws.product_power.conv_steps", k)
        tracer.maximum("laws.product_power.max_k", k)
        tracer.maximum("laws.product_power.max_atoms", len(result.atoms))

    def on_poisson(args, kwargs, result):
        tracer.add("continuous_time.poissonized_law.truncation_k_sum", result.truncation_k)
        tracer.maximum("laws.max_den_bits", _den_bits(result.class_prob))

    def on_cache_write(args, kwargs, result):
        tracer.add("combinatorics.cache.files_written")

    def on_chain_step(args, kwargs, result):
        tracer.add("kernels.chain_step.decks", len(result))

    def on_generator(args, kwargs, result):
        # The sampler suite draws split 0 first and split 1 only on a rerun.
        if _arg(args, kwargs, 1, "split", 0) > 0:
            tracer.add("verify.sampler.reruns")

    patch(laws.RisingSeqLaw, "__post_init__", "laws.validate", on_law)
    patch(laws, "m_shuffle_law", "laws.m_shuffle_law", on_m_shuffle)
    patch(laws, "mixture_of_m_shuffles", "laws.mixture_of_m_shuffles")
    patch(laws, "tv_to_uniform", "laws.tv_to_uniform")
    patch(laws, "product_power", "laws.product_power", on_product)
    patch(continuous_time, "poissonized_law", "continuous_time.poissonized_law", on_poisson)
    patch(continuous_time.PoissonizedLaw, "tv_to_uniform", "continuous_time.tv_to_uniform")
    patch(combinatorics, "eulerian_row", "combinatorics.eulerian_row")
    patch(combinatorics.EulerianCache, "write", None, on_cache_write)
    patch(_kernels, "chain_step", "kernels.chain_step", on_chain_step)
    patch(_kernels, "rising_counts", "kernels.rising_counts")
    patch(sampling, "chi_square_against_law", "sampling.chi_square_against_law")
    patch(sampling, "make_generator", None, on_generator)


def summarize(spans: list[list]) -> tuple[dict[str, float], dict[str, int], float]:
    """Self seconds and call count per span name, and the root spans' seconds."""
    covered = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    root_s = 0.0
    for (name, start, end, parent), child_ns in zip(spans, covered):
        self_s[name] = self_s.get(name, 0.0) + (end - start - child_ns) / 1e9
        calls[name] = calls.get(name, 0) + 1
        if parent < 0:
            root_s += (end - start) / 1e9
    return self_s, calls, root_s
