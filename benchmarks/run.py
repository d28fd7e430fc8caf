"""Benchmark of betamix: four workloads, end-to-end metrics, per-layer spans.

Run from the root of a source checkout (no install needed):

    python3 benchmarks/run.py --workload markov-deviation --seed 1 --seconds 25 --trace 0

``--trace 0`` times the workload with tracing off and reports the end-to-end
metrics; ``--trace 1`` runs the same operations untraced and then traced and
reports the per-layer metrics and the tracing overhead.  Metric names, units
and what each should move are in ``metrics.py``.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
The lines before it give the run context and every metric with its unit.

The process is single-threaded: the CLI workloads call ``betamix.cli.main``
in-process, so process spawn is not measured, except in ``setup_s``, which
starts fresh processes on purpose.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("markov-deviation", "mdep-weak-error", "markov-union-bound", "exact-queries")
# fresh processes timed for setup_s; the median is reported
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 60
# Other tenants of a shared machine change its speed by up to half, for
# seconds at a time.  Every reported time is therefore scaled by a reference
# time over the time of a fixed calibration loop run next to it: it is given
# in seconds of the machine at reference speed.  Each workload names the
# calibration whose slowdown tracked its own when measured on the 2-vCPU
# machine (Python 3.11, numpy 2.4) the benchmark was defined on (see
# Workload.calibration); the references are about each calibration's median
# time there.  Unscaled wall times are printed in the run context.
_EDGES = np.array([0.25, 0.5, 1.0])


def _numpy_calls(n: int):
    """n numpy calls on a tiny array from a Python loop."""
    for x in np.linspace(0.0, 1.0, n):
        np.searchsorted(_EDGES, x, side="right")


def _interpreter(n: int):
    """n steps of integer arithmetic in the interpreter."""
    total = 0
    for i in range(n):
        total += i * i


# kind -> ((loop, size), ...), reference seconds for the whole sequence
CALIBRATIONS = {
    "numpy-calls": (((_numpy_calls, 3000),), 0.0075),
    "mixed": (((_interpreter, 75_000), (_numpy_calls, 1500)), 0.00875),
}


def calibration_scale(kind: str):
    """A function timing the calibration loop once, as reference time / its time."""
    loops, reference_s = CALIBRATIONS[kind]

    def scale() -> float:
        start = perf_counter()
        for loop, size in loops:
            loop(size)
        return reference_s / (perf_counter() - start)

    return scale


def _import_betamix():
    """Put the checkout's src/ first on the path and import betamix from it."""
    if not (SRC / "betamix" / "__init__.py").is_file():
        raise FileNotFoundError(f"no betamix sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import betamix

    if Path(betamix.__file__).resolve().parent != (SRC / "betamix").resolve():
        raise ImportError(f"betamix imported from {betamix.__file__}, not from {SRC}")


def set_up(name: str, seed: int, workdir: Path):
    """Imports, seeded inputs and warm-up: everything before the first timed call."""
    _import_betamix()
    import workloads

    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[name](seed, workdir)
    return workload, workload.warm_up()


def measure_setup(name: str, seed: int) -> list:
    """Time from spawning a fresh benchmark process to the end of its set-up.

    Returns each time scaled to reference speed, with the mixed calibration
    run in this process just before and after the spawned one.
    """
    times = []
    scale = calibration_scale("mixed")
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(seed), "--setup-probe"]
    for _ in range(SETUP_REPEATS):
        before = scale()
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            _, err = proc.communicate(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up process failed ({proc.returncode}): {err.strip()[-500:]}")
        times.append(elapsed * (before + scale()) / 2.0)
    return times


class Loop:
    """Closed loop over operations; records call times, calibrations and failures.

    The workload's calibration loop runs before each operation and once after
    the last; an operation's times are scaled by the mean of the scales on
    either side of it.
    """

    def __init__(self, workload):
        self.workload = workload
        self.calibrate = calibration_scale(workload.calibration)
        self.scales, self.calls, self.problems = [], [], []
        self.attempted = self.failed = 0

    def op(self, j: int, tracer=None) -> None:
        wl = self.workload
        self.scales.append(self.calibrate())
        if tracer is not None:
            tracer.op_id = j
        times = []
        for i in range(j * wl.calls_per_op, (j + 1) * wl.calls_per_op):
            start = perf_counter()
            try:
                result = wl.call(i)
            except Exception:  # a raised exception is a failed call, not a crash
                problems = [traceback.format_exc(limit=3)]
                elapsed = perf_counter() - start
            else:
                elapsed = perf_counter() - start
                try:
                    problems = wl.check(i, result)
                except Exception:
                    problems = [traceback.format_exc(limit=3)]
            times.append(elapsed)
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.extend(problems)
        self.calls.append(times)

    def close(self) -> None:
        self.scales.append(self.calibrate())

    def run_for(self, seconds: float, min_ops: int = 2) -> None:
        start = perf_counter()
        j = 0
        while j < min_ops or perf_counter() - start < seconds:
            self.op(j)
            j += 1
        self.close()

    def call_times(self, scaled: bool = True) -> list:
        """Per operation, the times of its calls (in reference seconds when scaled)."""
        k = self.scales
        return [[t * ((k[j] + k[j + 1]) / 2.0 if scaled else 1.0) for t in times]
                for j, times in enumerate(self.calls)]


def timing(workload, loop: Loop, scaled: bool = True) -> dict:
    """Throughput from the median operation time, and call latency percentiles."""
    per_op = loop.call_times(scaled)
    op_s = statistics.median(sum(times) for times in per_op)
    calls_ms = [t * 1e3 for times in per_op for t in times]
    return {
        "reps_per_s": workload.reps_per_op / op_s,
        "calls_per_s": workload.calls_per_op / op_s,
        "call_ms_p50": statistics.median(calls_ms),
        "call_ms_p90": statistics.quantiles(calls_ms, n=10, method="inclusive")[8],
    }


def traced(workload, seconds: float):
    """Untraced operations for half the time, then the same operations traced."""
    import metrics
    from tracing import Tracer

    plain = Loop(workload)
    plain.run_for(seconds / 2.0, min_ops=1)
    ops = len(plain.calls)
    for key in workload.counters:
        workload.counters[key] = 0
    ridge = [0]

    def count_ridge(result):
        ridge[0] += bool(result.ridge_used)

    loop = Loop(workload)
    with Tracer(on_return={"regression.fit_least_squares": count_ridge}) as tracer:
        for j in range(ops):
            loop.op(j, tracer)
    loop.close()
    values = metrics.per_layer(tracer.summary(), workload.counters, ops,
                               getattr(workload, "replications", 0), ridge[0])
    untraced_s, traced_s = (sum(map(sum, lp.call_times())) for lp in (plain, loop))
    values["trace.reps_per_s.untraced"] = workload.reps_per_op * ops / untraced_s
    values["trace.reps_per_s.traced"] = workload.reps_per_op * ops / traced_s
    values["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    return values, plain, loop, len(tracer.spans)


def _revision():
    """Commit of the checkout when it is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "betamix").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def context(args, workload, extra: dict) -> dict:
    return {
        "revision": _revision(),
        "source_sha256": _source_digest(),
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "generator_seeds": getattr(workload, "seeds", None),
        "seconds": args.seconds,
        "trace": args.trace,
        "reps_per_op": workload.reps_per_op,
        "calls_per_op": workload.calls_per_op,
        **extra,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        workload, warm_problems = set_up(args.workload, args.seed, workdir)
        if args.setup_probe:
            print("ready" if not warm_problems else "warm-up failed", flush=True)
            return 0 if not warm_problems else 1
        import metrics

        if args.trace:
            values, plain, loop, n_spans = traced(workload, args.seconds)
            units = {k: v[0] for k, v in metrics.PER_LAYER.items()}
            extra = {"ops": len(loop.calls), "calls": loop.attempted,
                     "reps": len(loop.calls) * workload.reps_per_op, "spans": n_spans}
            loops = (plain, loop)
        else:
            setup_times = measure_setup(args.workload, args.seed)
            loop = Loop(workload)
            loop.run_for(args.seconds)
            values = {
                "setup_s": statistics.median(setup_times),
                **timing(workload, loop),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = {k: v[0] for k, v in metrics.END_TO_END.items()}
            extra = {"ops": len(loop.calls), "calls": loop.attempted,
                     "reps": len(loop.calls) * workload.reps_per_op,
                     "setup_s_samples": setup_times,
                     "calibration": workload.calibration,
                     "calibration_scale_median": statistics.median(loop.scales),
                     "unscaled_wall": timing(workload, loop, scaled=False)}
            loops = (loop,)
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            workdir.parent.rmdir()

    # the warm-up counts as one attempted call
    attempted = 1 + sum(lp.attempted for lp in loops)
    failed = int(bool(warm_problems)) + sum(lp.failed for lp in loops)
    for problem in warm_problems + [p for lp in loops for p in lp.problems][:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"context": context(args, workload, extra)}))
    for name, value in values.items():
        print(f"{name:48s} {value:14.6g} {units[name]}")
    print(f"{'failed_frac':48s} {failed / attempted:14.6g} ratio")
    if args.trace:
        for workload_name, name, expected in metrics.PREDICTIONS:
            if workload_name == args.workload:
                state = "holds" if values[name] == expected else "does not hold"
                print(f"prediction {name} == {expected} on {workload_name}: {state} "
                      f"(measured {values[name]:g})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
