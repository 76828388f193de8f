"""Command-line front end.

Exit codes: 0 success, 1 property violation, 2 configuration error, 3 size
guard. Output is deterministic for a given configuration and seed: rows are
emitted in input order, floats are printed at 17 significant digits, and
exact values are printed as ``num/den`` strings in profile rows and as
``{"num", "den"}`` objects in JSON reports. JSON output opens with a
``config`` block: the command and every option that has a value, defaults
included, under its parameter name.
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import asdict
from fractions import Fraction
from typing import Any, Callable, Sequence

import click

from .combinatorics import CACHE_ENV_VAR, int_to_decimal
from .cutoff import (
    _log_deck_size,
    cutoff_report,
    cutoff_shape,
    hyp_check,
    lindeberg_value,
    log_moments,
    truncation_report,
)
from .continuous_time import poissonized_laws
from .laws import (
    PackDistribution,
    SizeGuardError,
    inverse_square_pack,
    k_step_laws,
    tv_to_uniform,
)
from .verify import SUITES, suite_names


def parse_pack_spec(spec: str) -> PackDistribution | Callable[[int], PackDistribution]:
    """Parse ``m:prob,m:prob`` with exact fractional probabilities.

    Floats are rejected to preserve exactness. The special spec ``invsq``
    names the built-in deck-size-dependent inverse-square family and returns
    a callable of n.
    """
    spec = spec.strip()
    if spec == "invsq":
        return inverse_square_pack
    pairs: dict[int, Fraction] = {}
    for item in spec.split(","):
        item = item.strip()
        if not item:
            raise click.UsageError(f"empty entry in pack spec {spec!r}")
        try:
            m_text, prob_text = item.split(":")
        except ValueError:
            raise click.UsageError(f"bad pack entry {item!r}, want m:prob") from None
        prob_text = prob_text.strip()
        if "." in prob_text or "e" in prob_text.lower():
            raise click.UsageError(
                f"probability {prob_text!r} looks like a float; use exact fractions"
            )
        try:
            m = int(m_text)
            prob = Fraction(prob_text)
        except (ValueError, ZeroDivisionError):
            raise click.UsageError(f"bad pack entry {item!r}") from None
        if m in pairs:
            raise click.UsageError(f"duplicate pack count {m}")
        pairs[m] = prob
    try:
        return PackDistribution.from_pairs(pairs)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None


def parse_k_range(text: str) -> range:
    match = re.fullmatch(r"\s*(\d+)\.\.(\d+)\s*", text)
    if not match:
        raise click.UsageError(f"bad k range {text!r}, want a..b")
    a, b = int(match.group(1)), int(match.group(2))
    if a > b:
        raise click.UsageError(f"empty k range {text!r}")
    return range(a, b + 1)


#: Most points a grid may have; every point is a separate computation.
MAX_GRID_POINTS = 100_000


def _grid_bounds(text: str, kind: type) -> tuple:
    # ValueError, which the CLI prints as one line and exit 2, like parse_a_n.
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
    a, b, step = _grid_bounds(text, float)
    limit = b + 1e-9 * max(1.0, abs(b))
    out = []
    while a + len(out) * step <= limit:
        if len(out) == MAX_GRID_POINTS:
            raise _too_many_points(text)
        out.append(a + len(out) * step)
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
    if cache_dir:
        os.environ[CACHE_ENV_VAR] = cache_dir


def _require_fixed_pack(parsed, spec: str) -> PackDistribution:
    if callable(parsed):
        raise click.UsageError(f"pack family {spec!r} needs --n-grid")
    return parsed


@contextmanager
def _exit_codes():
    try:
        yield
    except SizeGuardError as exc:
        click.echo(f"size guard: {exc}", err=True)
        sys.exit(3)
    except BrokenPipeError:
        raise
    except (click.UsageError, ValueError, OSError) as exc:
        message = exc.format_message() if isinstance(exc, click.UsageError) else exc
        click.echo(f"Error: {message}", err=True)
        sys.exit(2)


class _Main(click.Group):
    """Command group that maps errors onto the exit-code contract.

    A size guard exits 3. A click usage error, a ``ValueError`` (an input
    the parsers could not judge, as a deck size of 0) and an ``OSError`` (an
    unusable path, as a ``--cache`` that is a file) exit 2. Either way stderr
    gets one line. ``--help`` and a broken pipe are left to click.
    """

    def make_context(self, *args, **kwargs) -> click.Context:
        with _exit_codes():
            return super().make_context(*args, **kwargs)

    def invoke(self, ctx: click.Context):
        with _exit_codes():
            return super().invoke(ctx)


@click.group(cls=_Main, invoke_without_command=True)
@click.pass_context
def main(ctx: click.Context) -> None:
    """Exact and Monte-Carlo mixing profiles for randomized riffle shuffles."""
    if ctx.invoked_subcommand is None:
        click.echo(ctx.get_help())


@main.command()
@click.option("--n", type=int, required=True, help="Deck size.")
@click.option("--p", "p_spec", required=True, help="Pack distribution, m:prob[,m:prob...].")
@click.option("--k", "k_range", required=True, help="Shuffle counts, a..b.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
@click.option("--cache", "cache_dir", default=None, help="Eulerian cache directory.")
def profile(n: int, p_spec: str, k_range: str, fmt: str, cache_dir: str | None) -> None:
    """Exact TV profile over a range of shuffle counts.

    Emits one row per k with the exact rational distance, its float
    rendering, and bd_estimate, the sigma = 0 (GSR) limit shape at the
    geometric-mean pack count: for sigma > 0 its gap to the exact TV grows
    with n (0.058, 0.097, 0.110 at n = 52, 200, 600 for p = 2:1/2,3:1/2).
    """
    _apply_cache_dir(cache_dir)
    pack = _require_fixed_pack(parse_pack_spec(p_spec), p_spec)
    ks = parse_k_range(k_range)
    mu, _ = log_moments(pack)
    rows = []
    # One pass over the k-step laws; zip stops before building law b + 1.
    for k, law in zip(ks, k_step_laws(n, pack, ks.start)):
        tv = tv_to_uniform(law)
        estimate = cutoff_shape(math.exp(1.5 * math.log(n) - k * mu)) if mu > 0 else 1.0
        rows.append(
            {
                "k": k,
                "tv_exact": f"{int_to_decimal(tv.numerator)}/{int_to_decimal(tv.denominator)}",
                "tv_float": float(tv),
                "bd_estimate": estimate,
            }
        )
    _emit_rows(rows, ["k", "tv_exact", "tv_float", "bd_estimate"], fmt)


@main.command()
@click.option("--n", type=int, default=None, help="Deck size.")
@click.option("--n-grid", "n_grid", default=None, help="Deck sizes, a:b:step.")
@click.option("--p", "p_spec", required=True, help="Pack distribution or 'invsq'.")
@click.option("--a-n", "a_n_expr", default=None, help="Truncation level; 'logn' allowed.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="json")
@click.option("--cache", "cache_dir", default=None)
def cutoff(
    n: int | None,
    n_grid: str | None,
    p_spec: str,
    a_n_expr: str | None,
    fmt: str,
    cache_dir: str | None,
) -> None:
    """Cutoff-parameter report, or per-n condition values over an n-grid."""
    _apply_cache_dir(cache_dir)
    parsed = parse_pack_spec(p_spec)
    if (n is None) == (n_grid is None):
        raise click.UsageError("give exactly one of --n or --n-grid")

    if n is not None:
        if fmt == "csv":
            raise click.UsageError("the --n report is JSON only; --format csv needs --n-grid")
        pack = _require_fixed_pack(parsed, p_spec)
        payload = {"report": asdict(cutoff_report(pack, n))}
        if a_n_expr is not None:
            payload["truncation"] = asdict(truncation_report(pack, n, parse_a_n(a_n_expr, n)))
        _emit(payload)
        return

    rows = []
    for size in parse_int_grid(n_grid):
        pack = parsed(size) if callable(parsed) else parsed
        mu, sigma = log_moments(pack)
        if mu <= 0:
            raise click.UsageError("pack distribution concentrated at 1 never mixes")
        row = {
            "n": size,
            "mu": mu,
            "sigma": sigma,
            "t_n": 3 * _log_deck_size(size) / (2 * mu),
            "lindeberg_eps1": lindeberg_value(pack, size, 1.0) if sigma > 0 else None,
        }
        row["hyp1"], row["hyp2"] = hyp_check(pack, size, 0.5)
        if a_n_expr is not None:
            trunc = truncation_report(pack, size, parse_a_n(a_n_expr, size))
            row["ratio_z"] = trunc.ratio_z
            row["ratio_y"] = trunc.ratio_y
            row["t_n_truncated"] = trunc.t_n_truncated
        rows.append(row)
    _emit_rows(rows, list(rows[0]), fmt)


@main.command()
@click.option("--suite", "suite", default="all", help="Suite name or 'all'.")
@click.option("--n", type=click.IntRange(min=1), default=None, help="Deck-size bound override.")
@click.option("--m", type=click.IntRange(min=1), default=None, help="Pack-count bound override.")
@click.option("--seed", type=int, default=0)
@click.option(
    "--N", "n_samples", type=click.IntRange(min=1), default=100_000, help="Sampler suite sample count."
)
@click.option("--dump-csv", "dump_csv", default=None, help="Write sampler draws (n,m,trial,r) here.")
@click.option("--cache", "cache_dir", default=None)
def verify(
    suite: str,
    n: int | None,
    m: int | None,
    seed: int,
    n_samples: int,
    dump_csv: str | None,
    cache_dir: str | None,
) -> None:
    """Run exact property suites; nonzero exit on any violation."""
    _apply_cache_dir(cache_dir)
    if suite == "all":
        selected = suite_names()
    elif suite in SUITES:
        selected = [suite]
    else:
        raise click.UsageError(f"unknown suite {suite!r}; try one of {suite_names()}")
    if dump_csv is not None and "sampler" not in selected:
        raise click.UsageError(f"--dump-csv needs the sampler suite, not {suite!r}")

    results: dict[str, list[dict]] = {}
    with open(dump_csv, "w") if dump_csv is not None else nullcontext() as dump:
        for name in selected:
            kwargs: dict = {"seed": seed, "n_samples": n_samples}
            if n is not None:
                kwargs["n_max"] = n
            if m is not None:
                kwargs["m_max"] = m
            if name == "sampler":
                kwargs["dump"] = dump
            results[name] = SUITES[name](**kwargs)

    ok = all(v["ok"] for verdicts in results.values() for v in verdicts)
    _emit({"ok": ok, "suites": results})
    if not ok:
        sys.exit(1)


@main.command()
@click.option("--n", type=int, required=True, help="Deck size.")
@click.option("--p", "p_spec", required=True, help="Pack distribution, m:prob[,m:prob...].")
@click.option("--t", "t_grid", required=True, help="Times, a:b:step.")
@click.option("--tol", type=float, default=1e-9, help="Poisson tail tolerance.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
@click.option("--cache", "cache_dir", default=None)
def poisson(
    n: int, p_spec: str, t_grid: str, tol: float, fmt: str, cache_dir: str | None
) -> None:
    """TV distance of the continuous-time chain on a time grid."""
    _apply_cache_dir(cache_dir)
    pack = _require_fixed_pack(parse_pack_spec(p_spec), p_spec)
    if not 0 < tol < 1:
        raise click.UsageError(f"tolerance must be in (0, 1), got {tol}")
    ts = parse_float_grid(t_grid)
    rows = []
    for t, law in zip(ts, poissonized_laws(n, pack, ts, tol)):
        tv = law.tv_to_uniform()
        rows.append(
            {
                "t": t,
                "tv": tv.value,
                "certificate": tv.certificate,
                "truncation_k": law.truncation_k,
            }
        )
    _emit_rows(rows, ["t", "tv", "certificate", "truncation_k"], fmt)


def _plain(value: Any) -> Any:
    """The JSON form of a value a command prints.

    Floats become strings at 17 significant digits and fractions
    ``{"num", "den"}`` decimal strings, through dicts (keys too), lists and
    tuples; anything else is returned as it is.
    """
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, Fraction):
        return {"num": int_to_decimal(value.numerator), "den": int_to_decimal(value.denominator)}
    if isinstance(value, dict):
        return {_plain(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _emit(payload: dict) -> None:
    """Print payload as sorted, indent-2 JSON under the running command's config.

    The config holds the command name and every parameter that has a value,
    as click parsed it; it skips the encoder, so a float option stays a
    JSON number.
    """
    ctx = click.get_current_context()
    config = {"command": ctx.info_name, **{k: v for k, v in ctx.params.items() if v is not None}}
    click.echo(json.dumps({"config": config, **_plain(payload)}, sort_keys=True, indent=2))


def _emit_rows(rows: Sequence[dict], header: Sequence[str], fmt: str) -> None:
    rows = _plain(rows)
    if fmt == "csv":
        click.echo(",".join(header))
        for row in rows:
            click.echo(",".join("" if row.get(col) is None else str(row[col]) for col in header))
    else:
        _emit({"rows": rows})


if __name__ == "__main__":
    main()
