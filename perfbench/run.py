#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ``riffle`` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from anywhere; the program is the ``src/riffle`` next to this directory.
Each workload is a fixed CLI call (see README.md for why each was chosen).
With ``--trace 0`` the call runs as a whole child process, one at a time and
single-threaded, again and again for S seconds; the end-to-end metrics are
medians over those runs. With ``--trace 1`` each untraced run is followed by
a traced one, in which ``child.py`` wraps the layers with ``tracer.py``, and
the layer probes of ``probe.py`` run; the per-layer metrics come from those.
Every run's output is checked: stdout must hash to the reference recorded
for the workload, or, for the seed-dependent sampler suite, report
``"ok": true``; a traced run must print exactly what the untraced one did.

The report goes to stdout; its last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--workload all``
runs every workload in both modes and prints every metric. The exit code is
nonzero, with no result printed, when the program cannot be run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import OBSERVE, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]  # "{seed}" is replaced by the workload seed
    cold_cache: bool  # a fresh, empty Eulerian cache for every run
    stdout_sha256: str | None  # None: output depends on the seed


WORKLOADS = {
    "profile-atoms": Workload(
        ("profile", "--n", "52", "--p", "2:1/3,3:1/3,5:1/3", "--k", "1..20"),
        False,
        "6b99adde710ec8692818353d4748496f8386047a0d698575b268b2f45a468e4b",
    ),
    "profile-wide": Workload(
        ("profile", "--n", "600", "--p", "2:1", "--k", "1..12"),
        True,
        "a13e4c96fc0c4a20fbca68db296ad5fac1288125581541d024fa777716f10c3a",
    ),
    "poisson-mix": Workload(
        ("poisson", "--n", "52", "--p", "2:1/2,3:1/2", "--t", "4:12:4"),
        False,
        "a186e030bb2b2820b4c456bd14b63e8e178ca097131f6ade253ce48f968f57bd",
    ),
    "sampler": Workload(("verify", "--suite", "sampler", "--seed", "{seed}"), False, None),
}

#: Deck size of the Eulerian row every prewarmed workload reads from disk.
WARM_N = 52
#: Deck size of the cold-versus-disk Eulerian probe, and its repeats.
PROBE_N = 600
PROBE_REPEATS = 3
#: Timed CLI set-ups per run besides those of the workload runs.
SETUP_SPAWNS = 6
#: Children still running this long after the start are killed, so that a
#: run ends within its time limit even if the program hangs.
DEADLINE_S = 165.0
STRIPPED_ENV = (
    "RIFFLE_PURE_NUMPY",
    "RIFFLE_MAX_PRODUCT_ATOMS",
    "RIFFLE_CACHE_DIR",
    # Children import compiled bytecode, as an installed CLI does.
    "PYTHONDONTWRITEBYTECODE",
)
SINGLE_THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMBA_NUM_THREADS": "1",
}


class SetupError(Exception):
    """The program cannot be run at all; no result is printed."""


@dataclass
class ChildRun:
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: bytes
    info: dict  # written by child.py; empty if riffle.cli failed to import
    setup_s: float | None
    problem: str = ""  # why the output is wrong; empty when it is correct

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.stdout).hexdigest()


@dataclass
class Bench:
    """Spawns children inside one work directory, killing any past the deadline."""

    work: Path
    deadline: float
    spawned: int = 0
    env: dict = field(init=False)

    def __post_init__(self) -> None:
        self.env = {k: v for k, v in os.environ.items() if k not in STRIPPED_ENV}
        self.env.update(SINGLE_THREAD_ENV, PYTHONPATH=str(SRC))

    def spawn(self, script: str, args: list[str], sidecar: Path | None = None) -> ChildRun:
        self.spawned += 1
        stem = self.work / f"child{self.spawned}"
        cmd = [sys.executable, str(HERE / script), *args]
        with open(stem.with_suffix(".out"), "w+b") as out, open(stem.with_suffix(".err"), "wb") as err:
            start_ns = time.monotonic_ns()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=self.work)
            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall_s = (time.monotonic_ns() - start_ns) / 1e9
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            stdout = out.read()
        info = json.loads(sidecar.read_text()) if sidecar and sidecar.exists() else {}
        setup_s = (info["ready_ns"] - start_ns) / 1e9 if info else None
        if proc.returncode != 0:
            err_tail = stem.with_suffix(".err").read_text(errors="replace").strip()[-400:]
            print(f"{script} {' '.join(args)} exited {proc.returncode}: {err_tail}", file=sys.stderr)
        return ChildRun(
            exit_code=proc.returncode,
            wall_s=wall_s,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024,
            stdout=stdout,
            info=info,
            setup_s=setup_s,
        )

    def cli(self, args: list[str], trace_out: Path | None = None) -> ChildRun:
        sidecar = self.work / f"sidecar{self.spawned}.json"
        return self.spawn("child.py", [str(sidecar), str(trace_out or "-"), *args], sidecar)

    def probe(self, *args: str) -> dict:
        run = self.spawn("probe.py", list(args))
        if run.exit_code != 0:
            raise SetupError(f"probe {' '.join(args)} failed")
        return json.loads(run.stdout)


def check_output(workload: Workload, run: ChildRun) -> str:
    """Why the run's output is wrong, or an empty string when it is correct."""
    if run.exit_code != 0:
        return f"exit code {run.exit_code}"
    if workload.stdout_sha256 is not None:
        if run.sha256 != workload.stdout_sha256:
            return f"stdout sha256 {run.sha256} differs from the reference"
        return ""
    try:
        ok = json.loads(run.stdout)["ok"] is True
    except (ValueError, KeyError, TypeError):
        ok = False
    return "" if ok else 'stdout does not report "ok": true'


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced CLI run (everything but the probes)."""
    self_s, calls, _ = summarize(trace["spans"])
    counters = trace["counters"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, float] = {}
    for span in (
        "laws.validate",
        "laws.m_shuffle_law",
        "laws.product_power",
        "continuous_time.poissonized_law",
        "combinatorics.eulerian_row",
    ):
        out[f"{span}.calls"] = calls.get(span, 0)
    for span in (
        "laws.validate",
        "laws.m_shuffle_law",
        "laws.mixture_of_m_shuffles",
        "laws.tv_to_uniform",
        "laws.product_power",
        "continuous_time.poissonized_law",
        "continuous_time.tv_to_uniform",
        "combinatorics.eulerian_row",
        "kernels.chain_step",
        "kernels.rising_counts",
        "sampling.chi_square_against_law",
        "cli",
    ):
        out[f"{span}.self_s"] = self_s.get(span, 0.0)
    for counter in (
        "laws.max_den_bits",
        "laws.product_power.conv_steps",
        "laws.product_power.max_atoms",
        "continuous_time.poissonized_law.truncation_k_sum",
        "combinatorics.cache.files_written",
        "verify.sampler.reruns",
    ):
        out[counter] = counters.get(counter, 0)
    out["laws.m_shuffle_law.distinct_ratio"] = ratio(
        counters.get("laws.m_shuffle_law.distinct", 0), out["laws.m_shuffle_law.calls"]
    )
    out["laws.product_power.useful_ratio"] = ratio(
        counters.get("laws.product_power.max_k", 0), out["laws.product_power.conv_steps"]
    )
    out["kernels.chain_step.decks_per_s"] = ratio(
        counters.get("kernels.chain_step.decks", 0), out["kernels.chain_step.self_s"]
    )
    return out


def medians(rows: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path) -> tuple[dict, list[str]]:
    """Measure one workload; returns the result object and the report lines."""
    if not (SRC / "riffle" / "cli.py").is_file():
        raise SetupError(f"no riffle sources at {SRC}")
    workload = WORKLOADS[name]
    started = time.monotonic()
    bench = Bench(work, started + DEADLINE_S)
    warm_cache = work / "warm-cache"
    bench.probe("eulerian", str(WARM_N), str(warm_cache))

    # Set-up: the first spawn may compile bytecode and is not timed.
    setups = []
    for i in range(SETUP_SPAWNS + 1):
        run = bench.cli(["--help"])
        if run.exit_code != 0 or not run.info:
            raise SetupError("riffle --help failed")
        if i:
            setups.append(run.setup_s)
    info = run.info
    if not Path(info["riffle_file"]).resolve().is_relative_to(SRC):
        raise SetupError(f"riffle was imported from {info['riffle_file']}, not from {SRC}")

    argv = [arg.format(seed=seed) for arg in workload.argv]

    def one(trace_out: Path | None = None) -> ChildRun:
        cache = work / f"cold-cache{bench.spawned}" if workload.cold_cache else warm_cache
        run = bench.cli([*argv, "--cache", str(cache)], trace_out)
        run.problem = check_output(workload, run)
        if workload.cold_cache:
            shutil.rmtree(cache, ignore_errors=True)
        return run

    plain: list[ChildRun] = []
    traced: list[ChildRun] = []
    traces: list[dict] = []
    measured = time.monotonic()
    while not plain or (time.monotonic() - measured < seconds and time.monotonic() < bench.deadline):
        plain.append(one())
        if trace:
            trace_out = work / f"trace{len(traced)}.json"
            run = one(trace_out)
            if not run.problem and plain[-1].exit_code == 0 and run.stdout != plain[-1].stdout:
                run.problem = "traced stdout differs from the untraced run's"
            traced.append(run)
            if trace_out.exists():
                traces.append(json.loads(trace_out.read_text()))

    runs = plain + traced
    failed = [run for run in runs if run.problem]
    lines = [
        f"workload {name}: seed {seed}, {seconds:g} s, trace {'on' if trace else 'off'}",
        f"environment: Python {info['python']}, numpy {info['numpy']}, "
        f"nproc {len(os.sched_getaffinity(0))}, "
        f"kernel {'numba' if info['numba_enabled'] else 'numpy'}",
    ]
    for run in failed:
        lines.append(f"FAILED run: {run.problem}")
    lines.append(
        f"correct: {'yes' if not failed else 'NO'}; failed_frac {len(failed) / len(runs):g} "
        f"({len(failed)} of {len(runs)} CLI runs)"
    )

    if not trace:
        metrics = {
            "wall_s": statistics.median(r.wall_s for r in plain),
            "cpu_s": statistics.median(r.cpu_s for r in plain),
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in plain),
            "setup_s": statistics.median(setups + [r.setup_s for r in plain if r.setup_s is not None]),
        }
        lines.append(f"samples: {len(plain)} CLI runs, {len(setups) + len(plain)} CLI set-ups (medians)")
    else:
        metrics = medians([layer_metrics(t) for t in traces]) if traces else {}
        traced_wall = statistics.median(r.wall_s for r in traced)
        metrics["trace.overhead_frac"] = traced_wall / statistics.median(r.wall_s for r in plain) - 1
        cold_s, disk_s = [], []
        for _ in range(PROBE_REPEATS):
            cache = work / f"probe-cache{bench.spawned}"
            cold_s.append(bench.probe("eulerian", str(PROBE_N), str(cache))["s"])
            disk_s.append(bench.probe("eulerian", str(PROBE_N), str(cache))["s"])
            shutil.rmtree(cache, ignore_errors=True)
        metrics["combinatorics.eulerian_row.cold_s"] = statistics.median(cold_s)
        metrics["combinatorics.eulerian_row.disk_s"] = statistics.median(disk_s)
        metrics.update(bench.probe("kernels", str(seed)))
        lines.append(
            f"samples: {len(plain)} untraced and {len(traced)} traced CLI runs (medians); "
            f"probes: {PROBE_REPEATS}x eulerian_row({PROBE_N}) cold and from disk, kernel throughput"
        )
        if traces:
            lines.append(accounting(traces[0], traced[0]))

    expected = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    if sorted(metrics) != sorted(expected):
        raise SetupError(f"metrics {sorted(set(metrics) ^ set(expected))} do not match BENCHMARK.json")
    for key in expected:
        lines.append(f"  {key:<48} {metrics[key]:>16.6g} {UNITS[key]}")
    result = {
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {key: {"value": metrics[key], "unit": UNITS[key]} for key in expected},
    }
    return result, lines


def accounting(trace: dict, run: ChildRun) -> str:
    """How one traced run's wall time splits into set-up, spans and the rest."""
    self_s, _, root_s = summarize(trace["spans"])
    layers = sum(s for name, s in self_s.items() if name not in ("cli", OBSERVE))
    rest = run.wall_s - (run.setup_s or 0.0) - root_s
    return (
        f"traced wall {run.wall_s:.4f} s = set-up {run.setup_s or 0.0:.4f} s "
        f"+ cli.self_s {self_s.get('cli', 0.0):.4f} s + layer self times {layers:.4f} s "
        f"+ tracer bookkeeping {self_s.get(OBSERVE, 0.0):.4f} s + tracer install, dump and interpreter exit {rest:.4f} s"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    work_root = HERE / "_work"
    work = work_root / str(os.getpid())
    work.mkdir(parents=True)
    try:
        if args.workload != "all":
            result, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work)
            print("\n".join(lines))
            print(json.dumps(result))
            return 0
        all_correct = True
        for name in WORKLOADS:
            for trace in (False, True):
                result, lines = run_workload(name, args.seed, args.seconds, trace, work)
                print("\n".join(lines), end="\n\n", flush=True)
                all_correct &= result["correct"]
        print(f"all workloads: {'correct' if all_correct else 'NOT correct'}")
        return 0 if all_correct else 1
    except SetupError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
