"""Command-line front end.

Exit codes: 0 success, 1 property violation, 2 configuration error, 3 size
guard. Output is deterministic for a given configuration and seed: rows are
emitted in input order, floats are printed at 17 significant digits, and
exact values are printed as ``num/den`` strings in profile rows and as
``{"num", "den"}`` objects in JSON reports. JSON output opens with a
``config`` block: the command and every option that has a value, defaults
included, under its parameter name.

An error is one stderr line. A usage error that argparse finds (an unknown
command or option, a missing or malformed value; ``_Parser.error``), a
``ValueError`` from a parser or the library (as a deck size of 0) and an
``OSError`` (as a ``--cache`` that is a file) print ``Error: ...`` and exit 2;
a size guard prints ``size guard: ...`` and exits 3; a closed stdout exits 1
silently. :func:`main` returns ``None`` on success and raises ``SystemExit``
otherwise, so ``sys.exit(main())`` exits with the right code. Each command
imports the riffle modules it uses as it runs: ``import riffle.cli`` loads
none, and no exact command loads numpy.

A call registers ``gc.freeze`` with ``atexit``, once per process. At exit the
interpreter's last collections then skip every object that the imports and
the command left behind, which is most of a short call's shutdown time.
Stream flushes, the other ``atexit`` handlers and module teardown still run;
only cyclic garbage is left for the operating system to reclaim, so every
file a command writes is closed by its ``with``, never by the collector.
Importing this module registers nothing.
"""

from __future__ import annotations

import argparse
import atexit
import functools
import gc
import math
import os
import re
import sys
from contextlib import nullcontext
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Callable, Sequence

if TYPE_CHECKING:
    from .laws import PackDistribution


def parse_pack_spec(spec: str) -> PackDistribution | Callable[[int], PackDistribution]:
    """Parse ``m:prob,m:prob`` with exact fractional probabilities.

    Floats are rejected to preserve exactness. The special spec ``invsq``
    names the built-in deck-size-dependent inverse-square family and returns
    a callable of n.
    """
    from .laws import PackDistribution, inverse_square_pack

    spec = spec.strip()
    if spec == "invsq":
        return inverse_square_pack
    pairs = []
    for item in spec.split(","):
        item = item.strip()
        if not item:
            raise ValueError(f"empty entry in pack spec {spec!r}")
        try:
            m_text, prob_text = item.split(":")
        except ValueError:
            raise ValueError(f"bad pack entry {item!r}, want m:prob") from None
        prob_text = prob_text.strip()
        if "." in prob_text or "e" in prob_text.lower():
            raise ValueError(f"probability {prob_text!r} looks like a float; use exact fractions")
        try:
            m = int(m_text)
            prob = Fraction(prob_text)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"bad pack entry {item!r}") from None
        pairs.append((m, prob))
    return PackDistribution(pairs)


#: Most points a grid may have; every point is a separate computation.
MAX_GRID_POINTS = 100_000


def parse_k_range(text: str) -> range:
    match = re.fullmatch(r"\s*(\d+)\.\.(\d+)\s*", text)
    if not match:
        raise ValueError(f"bad k range {text!r}, want a..b")
    a, b = int(match.group(1)), int(match.group(2))
    if a > b:
        raise ValueError(f"empty k range {text!r}")
    if b - a >= MAX_GRID_POINTS:
        raise ValueError(f"k range {text!r} has more than {MAX_GRID_POINTS} values")
    return range(a, b + 1)


def _grid_bounds(text: str, kind: type) -> tuple:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"bad grid {text!r}, want a:b:step")
    try:
        a, b, step = (kind(p) for p in parts)
    except ValueError:
        raise ValueError(f"bad grid {text!r}") from None
    finite = kind is int or all(map(math.isfinite, (a, b, step)))
    if not finite or step <= 0 or a > b:
        raise ValueError(f"bad grid {text!r}")
    return a, b, step


def _too_many_points(text: str) -> ValueError:
    return ValueError(f"grid {text!r} has more than {MAX_GRID_POINTS} points")


def parse_int_grid(text: str) -> list[int]:
    a, b, step = _grid_bounds(text, int)
    if (b - a) // step >= MAX_GRID_POINTS:
        raise _too_many_points(text)
    return list(range(a, b + 1, step))


def parse_float_grid(text: str) -> list[float]:
    """The points a + i*step up to b, b itself when i*step rounds a few ulps past it."""
    a, b, step = _grid_bounds(text, float)
    # A few ulps of the bounds cover the rounding of a, b, step and a + i*step
    # (0.1:0.3:0.1 ends at 0.30000000000000004); half a step caps them, so a
    # step of a few ulps adds no point past b.
    slack = min(8 * math.ulp(max(abs(a), abs(b))), step / 2)
    out = [a]
    while (point := a + len(out) * step) - b <= slack:
        if point == out[-1]:
            raise ValueError(f"grid {text!r} has a step too small to move its points")
        if len(out) == MAX_GRID_POINTS:
            raise _too_many_points(text)
        out.append(point)
    return out


_A_N_TOKEN = re.compile(r"[0-9]+\.?[0-9]*|\.[0-9]+|logn|\S")


def parse_a_n(expr: str, n: int) -> float:
    """Evaluate a truncation-level expression.

    The grammar is numbers, the token ``logn``, ``+ - * /`` with the usual
    precedence, unary signs and parentheses. There is no power operator, so
    every expression is a few float operations. Raises ``ValueError`` for a
    malformed expression or a value that is not positive and finite.
    """
    tokens = _A_N_TOKEN.findall(expr)[::-1]  # the next token is the last

    def sum_() -> float:
        value = product()
        while tokens and tokens[-1] in ("+", "-"):
            value = value + product() if tokens.pop() == "+" else value - product()
        return value

    def product() -> float:
        value = factor()
        while tokens and tokens[-1] in ("*", "/"):
            value = value * factor() if tokens.pop() == "*" else value / factor()
        return value

    def factor() -> float:
        token = tokens.pop()
        if token in ("+", "-"):
            return factor() if token == "+" else -factor()
        if token == "(":
            value = sum_()
            if tokens.pop() == ")":
                return value
        elif token == "logn":
            return math.log(n)
        elif token[0] in "0123456789.":
            return float(token)
        raise ValueError

    try:
        value = sum_()
        if tokens:
            raise ValueError
    except (IndexError, ValueError, ZeroDivisionError, RecursionError):
        raise ValueError(f"bad a-n expression {expr!r}") from None
    if not 0 < value < math.inf:
        raise ValueError(f"a-n must be positive and finite, got {value}")
    return value


def _apply_cache_dir(cache_dir: str | None) -> None:
    # Made here, so that an unusable path is an error before any work; a
    # cache write that fails later is skipped.
    from .combinatorics import CACHE_ENV_VAR

    if cache_dir:
        os.makedirs(cache_dir, exist_ok=True)
        os.environ[CACHE_ENV_VAR] = cache_dir


def _pack_at(parsed, n: int) -> PackDistribution:
    """The pack law at deck size n: a parsed law as it is, a family evaluated at n."""
    return parsed(n) if callable(parsed) else parsed


def profile(opts: argparse.Namespace) -> None:
    """Exact TV profile over a range of shuffle counts.

    Emits one row per k with the exact rational distance, its float
    rendering, and bd_estimate, the sigma = 0 (GSR) limit shape at the
    geometric-mean pack count: for sigma > 0 its gap to the exact TV grows
    with n (0.058, 0.097, 0.110 at n = 52, 200, 600 for p = 2:1/2,3:1/2).
    """
    from .combinatorics import int_to_decimal
    from .cutoff import cutoff_shape, log_moments
    from .laws import k_step_tvs

    _apply_cache_dir(opts.cache_dir)
    n = opts.n
    pack = _pack_at(parse_pack_spec(opts.p_spec), n)
    ks = parse_k_range(opts.k_range)
    mu, _ = log_moments(pack)
    rows = []
    # zip stops before the TV of k = b + 1 is taken.
    for k, tv in zip(ks, k_step_tvs(n, pack, ks.start)):
        estimate = cutoff_shape(math.exp(1.5 * math.log(n) - k * mu)) if mu > 0 else 1.0
        tv_exact = f"{int_to_decimal(tv.numerator)}/{int_to_decimal(tv.denominator)}"
        rows.append({"k": k, "tv_exact": tv_exact, "tv_float": float(tv), "bd_estimate": estimate})
    _emit_rows(opts, rows, ["k", "tv_exact", "tv_float", "bd_estimate"])


def cutoff(opts: argparse.Namespace) -> None:
    """Discrete- and continuous-time cutoff reports, or per-n condition values over an n-grid."""
    from .cutoff import _critical_time, continuous_cutoff_report, cutoff_report
    from .cutoff import hyp_check, lindeberg_value, truncation_report

    parsed, a_n_expr = parse_pack_spec(opts.p_spec), opts.a_n_expr
    if opts.n is not None:
        if opts.fmt == "csv":
            raise ValueError("the --n report is JSON only; --format csv needs --n-grid")
        n = opts.n
        pack = _pack_at(parsed, n)
        payload = {"report": cutoff_report(pack, n)._asdict()}
        payload["continuous"] = continuous_cutoff_report(pack, n)._asdict()
        if a_n_expr is not None:
            payload["truncation"] = truncation_report(pack, n, parse_a_n(a_n_expr, n))._asdict()
        _emit(opts, payload)
        return

    rows = []
    for size in parse_int_grid(opts.n_grid):
        pack = _pack_at(parsed, size)
        mu, sigma, _, t_n = _critical_time(pack, size)
        row = {
            "n": size,
            "mu": mu,
            "sigma": sigma,
            "t_n": t_n,
            "lindeberg_eps1": lindeberg_value(pack, size, 1.0) if sigma > 0 else None,
        }
        row["hyp1"], row["hyp2"] = hyp_check(pack, size, 0.5)
        if a_n_expr is not None:
            trunc = truncation_report(pack, size, parse_a_n(a_n_expr, size))
            row.update(ratio_z=trunc.ratio_z, ratio_y=trunc.ratio_y, t_n_truncated=trunc.t_n_truncated)
        rows.append(row)
    _emit_rows(opts, rows, list(rows[0]))


def verify(opts: argparse.Namespace) -> int:
    """Run exact property suites; nonzero exit on any violation."""
    from .verify import SUITES, suite_names

    _apply_cache_dir(opts.cache_dir)
    suite, n, m = opts.suite, opts.n, opts.m
    if suite == "all":
        selected = suite_names()
    elif suite in SUITES:
        selected = [suite]
    else:
        raise ValueError(f"unknown suite {suite!r}; try one of {suite_names()}")
    if opts.dump_csv is not None and "sampler" not in selected:
        raise ValueError(f"--dump-csv needs the sampler suite, not {suite!r}")
    # The sampler suite needs decks of two cards or more to shuffle.
    lows = {"--n": 2 if "sampler" in selected else 1, "--m": 1, "--N": 1}
    for (flag, low), value in zip(lows.items(), (n, m, opts.n_samples)):
        if value is not None and value < low:
            raise ValueError(f"argument {flag}: want an integer >= {low}, got {value}")

    results: dict[str, list[dict]] = {}
    with open(opts.dump_csv, "w") if opts.dump_csv is not None else nullcontext() as dump:
        for name in selected:
            kwargs: dict = {"seed": opts.seed, "n_samples": opts.n_samples}
            if n is not None:
                kwargs["n_max"] = n
            if m is not None:
                kwargs["m_max"] = m
            if name == "sampler":
                kwargs["dump"] = dump
            results[name] = SUITES[name](**kwargs)

    ok = all(v["ok"] for verdicts in results.values() for v in verdicts)
    _emit(opts, {"ok": ok, "suites": results})
    return 0 if ok else 1


def poisson(opts: argparse.Namespace) -> None:
    """TV distance of the continuous-time chain on a time grid."""
    from .continuous_time import poissonized_laws

    _apply_cache_dir(opts.cache_dir)
    n, tol = opts.n, opts.tol
    pack = _pack_at(parse_pack_spec(opts.p_spec), n)
    ts = parse_float_grid(opts.t_grid)
    # map holds no law past its row, as a loop variable would while the next is built.
    rows = list(map(
        lambda t, law: {"t": t, "tv": float(law.tv_to_uniform()), "certificate": tol, "truncation_k": law.truncation_k},
        ts, poissonized_laws(n, pack, ts, tol),
    ))
    _emit_rows(opts, rows, ["t", "tv", "certificate", "truncation_k"])


class _Parser(argparse.ArgumentParser):
    """A parser, and its subcommands' parsers, with ``--help`` only, no
    abbreviated options, and usage errors that print one line and exit 2."""

    def __init__(self, **kwargs) -> None:
        super().__init__(add_help=False, allow_abbrev=False, **kwargs)
        self.add_argument("--help", action="help", help="Show this message and exit.")

    def error(self, message: str):
        print(f"Error: {message}", file=sys.stderr)
        sys.exit(2)


def _parser(prog: str) -> _Parser:
    parser = _Parser(
        prog=prog, description="Exact and Monte-Carlo mixing profiles for randomized riffle shuffles."
    )
    commands = parser.add_subparsers(dest="command", title="Commands", metavar="COMMAND")

    def command(run: Callable[[argparse.Namespace], int | None]) -> _Parser:
        sub = commands.add_parser(run.__name__, help=run.__doc__.split("\n")[0], description=run.__doc__)
        sub.set_defaults(run=run)
        return sub

    pack_help = "Pack distribution, m:prob[,m:prob...], or 'invsq'."
    formats = ["csv", "json"]
    cmd = command(profile)
    cmd.add_argument("--n", type=int, required=True, help="Deck size.")
    cmd.add_argument("--p", dest="p_spec", required=True, help=pack_help)
    cmd.add_argument("--k", dest="k_range", required=True, help="Shuffle counts, a..b.")
    cmd.add_argument("--format", dest="fmt", choices=formats, default="csv")
    cmd.add_argument("--cache", dest="cache_dir", help="Eulerian cache directory.")

    cmd = command(cutoff)
    sizes = cmd.add_mutually_exclusive_group(required=True)
    sizes.add_argument("--n", type=int, help="Deck size.")
    sizes.add_argument("--n-grid", dest="n_grid", help="Deck sizes, a:b:step.")
    cmd.add_argument("--p", dest="p_spec", required=True, help=pack_help)
    cmd.add_argument("--a-n", dest="a_n_expr", help="Truncation level; 'logn' allowed.")
    cmd.add_argument("--format", dest="fmt", choices=formats, default="json")

    cmd = command(verify)
    cmd.add_argument("--suite", default="all", help="Suite name or 'all'.")
    cmd.add_argument("--n", type=int, help="Deck-size bound override; 2 or more with the sampler.")
    cmd.add_argument("--m", type=int, help="Pack-count bound override.")
    cmd.add_argument("--seed", type=int, default=0)
    cmd.add_argument("--N", dest="n_samples", type=int, default=100_000, help="Sampler suite sample count.")
    cmd.add_argument("--dump-csv", dest="dump_csv", help="Write sampler draws (n,m,trial,r) here.")
    cmd.add_argument("--cache", dest="cache_dir")

    cmd = command(poisson)
    cmd.add_argument("--n", type=int, required=True, help="Deck size.")
    cmd.add_argument("--p", dest="p_spec", required=True, help=pack_help)
    cmd.add_argument("--t", dest="t_grid", required=True, help="Times, a:b:step.")
    cmd.add_argument("--tol", type=float, default=1e-9, help="Poisson tail tolerance.")
    cmd.add_argument("--format", dest="fmt", choices=formats, default="csv")
    cmd.add_argument("--cache", dest="cache_dir")
    return parser


@functools.cache
def _freeze_heap_at_exit() -> None:
    atexit.register(gc.freeze)


def main(args: Sequence[str] | None = None, prog_name: str | None = None) -> None:
    """Run one ``riffle`` call on ``args`` (default ``sys.argv[1:]``); see the module docstring."""
    _freeze_heap_at_exit()
    parser = _parser(prog_name or "riffle")
    opts = parser.parse_args(args)
    if opts.command is None:
        parser.print_help()
        return
    from .combinatorics import CACHE_ENV_VAR, SizeGuardError

    cache_dir = os.environ.get(CACHE_ENV_VAR)
    try:
        code = opts.run(opts)
        sys.stdout.flush()  # a closed stdout fails here, and not in the flush at exit
    except SizeGuardError as exc:
        print(f"size guard: {exc}", file=sys.stderr)
        sys.exit(3)
    except BrokenPipeError:
        # Python's documented way out: stdout goes to devnull for the flush at exit.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    except (ValueError, OSError) as exc:
        print(f"Error: {exc}", file=sys.stderr)
        sys.exit(2)
    finally:
        # A --cache holds for its own call only.
        os.environ.pop(CACHE_ENV_VAR, None)
        if cache_dir is not None:
            os.environ[CACHE_ENV_VAR] = cache_dir
    if code:
        sys.exit(code)


def _plain(value: Any) -> Any:
    """The JSON form of a value a command prints.

    Floats become strings at 17 significant digits and fractions
    ``{"num", "den"}`` decimal strings, through dicts (keys too), lists and
    tuples; anything else is returned as it is.
    """
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, Fraction):
        from .combinatorics import int_to_decimal

        return {"num": int_to_decimal(value.numerator), "den": int_to_decimal(value.denominator)}
    if isinstance(value, dict):
        return {_plain(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _emit(opts: argparse.Namespace, payload: dict) -> None:
    """Print payload as sorted, indent-2 JSON under the config: the command and
    every option that has a value, as parsed, so a float option stays a number."""
    import json

    config = {k: v for k, v in vars(opts).items() if v is not None and k != "run"}
    print(json.dumps({"config": config, **_plain(payload)}, sort_keys=True, indent=2))


def _emit_rows(opts: argparse.Namespace, rows: Sequence[dict], header: Sequence[str]) -> None:
    rows = _plain(rows)
    if opts.fmt == "csv":
        print(",".join(header))
        for row in rows:
            print(",".join("" if row.get(col) is None else str(row[col]) for col in header))
    else:
        _emit(opts, {"rows": rows})


if __name__ == "__main__":
    main()
