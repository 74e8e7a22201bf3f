"""divlab benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload chain-binary --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 1

Run from the repository root.  divlab is imported from ``src/`` of that
root and nothing else; without it the run fails.  BLAS is pinned to one
thread.  The client starts the next op only when the previous one returned.
It runs whole cycles of ops (one report per generator of the workload's
cycle, or one round of single calls) and starts no cycle that is expected
to end past ``--seconds``; the first cycle always runs.  The timings cover
the ops that did their whole work, each kind of op of the workload's mix
counting equally.  Ops with wrong outputs make ``correct`` false; ops whose only
findings are the program's two known defects (see
``workloads.KnownDefect``) are listed under ``known_defects``.  Both count
in ``failed_frac``.
The gated timings are scaled to a reference host speed by a probe timed
between cycles (see ``PROBE_REF_S``); the wall-clock ones are reported
beside them as ``wall_*``.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs a fixed
op list twice, untraced and then traced, and reports the per-layer metrics
of the traced pass with the tracing overhead; its spans are written to
``.bench_work/``.  The line before the last is a JSON summary with the
environment, every metric with its sample count, ``failed_frac``,
``estimate_shortfall`` and each failed op; the last line is the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--workload all`` runs every workload in its own process and prints a
table.  ``--smoke`` uses the smallest sizes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
WORKLOADS = ("chain-binary", "chain-wide", "quantum", "bounds")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# On a shared host the speed of the whole machine drifts, by up to a factor
# of two over minutes, so that runs of identical work a few minutes apart
# differ by more than any bound worth gating.  A fixed probe that divlab does
# not touch is timed after set-up, then after any op that ends 2 s or more
# past the last probe, and at the end; each op's time is scaled by
# PROBE_REF_S over the mean of the probes around it, i.e. to the speed at
# which the probe takes PROBE_REF_S (about its time on an idle 2-vCPU Xeon VM).
PROBE_REF_S = 0.010
PROBE_EVERY_S = 2.0


def host_probe() -> float:
    """Median seconds of five runs of a fixed mix of interpreter, small-array
    and 64x64 matrix work, the kinds of work divlab's ops do."""
    import numpy as np

    samples = []
    for _ in range(5):
        t = time.perf_counter()
        x = np.linspace(0.1, 0.9, 4)
        acc = 0.0
        for i in range(1500):
            y = x * (i % 7 + 1)
            acc += float(np.sum(y * np.log(y)))
        a = np.full((64, 64), 1.0 / 64)
        for _ in range(40):
            a = a @ a
        acc += sum(k * k for k in range(40000))
        samples.append(time.perf_counter() - t)
    return statistics.median(samples)


def pinned_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = SRC
    return env


def import_divlab() -> float:
    """Import divlab from ``src/`` and build the registry; seconds taken."""
    t = time.perf_counter()
    sys.path.insert(0, SRC)
    import divlab

    if os.path.dirname(os.path.abspath(divlab.__file__)) != os.path.join(SRC, "divlab"):
        raise ImportError(f"divlab imported from {divlab.__file__}, not from {SRC}")
    divlab.default_registry()
    return time.perf_counter() - t


def git_commit() -> str | None:
    """The commit of a git checkout, read from ``.git`` without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        ref = open(head).read().strip()
        if ref.startswith("ref: "):
            ref = open(os.path.join(ROOT, ".git", ref[5:])).read().strip()
        return ref
    except OSError:
        return None


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }


# ---------------------------------------------------------------------------


class Loop:
    """Runs ops back to back, checking each result after its timed call."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.times: list[float] = []
        # whether the op did its whole work: no wrong output and no known
        # defect that skips work
        self.timed: list[bool] = []
        self.kinds: list[str] = []
        self.cycles = 0
        self.probes: list[float] = []
        self.segments: list[int] = []  # the last probe before each op
        self.failures: list[dict] = []  # ops with a wrong output
        self.defects: list[dict] = []  # ops whose findings are all known defects
        self.shortfalls: list[float] = []

    def run(self, op) -> None:
        index = len(self.times)
        error = result = None
        if self.tracer is not None:
            self.tracer.begin_op(index)
        t = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # the op's outcome is judged below
            error = exc
        self.times.append(time.perf_counter() - t)
        if self.tracer is not None:
            self.tracer.end_op()
        from workloads import KnownDefect  # imports divlab, so not at the top

        problems = self._judge(op, result, error)
        known = all(isinstance(p, KnownDefect) for p in problems)
        self.timed.append(known and not any(p.skips_work for p in problems))
        self.kinds.append(op.kind)
        self.segments.append(len(self.probes) - 1)
        if problems:
            (self.defects if known else self.failures).append(
                {"op": index, "label": op.label, "problems": problems})
        if op.shortfall is not None and error is None:
            self._record_shortfall(op, result)

    def _judge(self, op, result, error) -> list[str]:
        if error is not None:
            if op.expect is not None and isinstance(error, op.expect):
                return []
            return [f"raised {type(error).__name__}: {error}"]
        if op.expect is not None:
            return [f"returned instead of raising {op.expect.__name__}"]
        try:
            return op.check(result)
        except Exception:  # a malformed output is a failed op
            return ["output check raised:\n" + traceback.format_exc(limit=2)]

    def _record_shortfall(self, op, result) -> None:
        """Every op whose report parsed and holds its estimate counts, passed
        or failed, so the mean covers the same kind of op on every run."""
        try:
            value = op.shortfall(json.loads(result[1]))
        except (ValueError, KeyError, TypeError):  # no report or no estimate
            return
        if value is not None:
            self.shortfalls.append(value)

    def scaled_times(self) -> list[float]:
        """Op times at the probe's reference speed (see PROBE_REF_S)."""
        p = self.probes
        return [t * PROBE_REF_S / (0.5 * (p[j] + p[j + 1]))
                for t, j in zip(self.times, self.segments)]

    def timed_times_by_kind(self, times: list[float]) -> dict[str, list[float]]:
        """Op times by op kind, of the ops that did their whole work.

        Failed ops and known defects are counted and listed apart.  Which
        ops have findings depends on the seed, and some end fast (a report
        that finds its channel not mixing skips nearly all of its work), so
        their times would make the timings measure the failure mix.  Ops
        whose only finding is ratio noise did their whole work and are kept.
        Times are kept per kind so that the kinds count equally however many
        of each were dropped; a kind none of whose ops did its whole work
        keeps all its times.
        """
        by_kind: dict[str, list[float]] = {}
        for kind in dict.fromkeys(self.kinds):
            of_kind = [t for t, k in zip(times, self.kinds) if k == kind]
            whole = [t for t, k, ok in zip(times, self.kinds, self.timed)
                     if k == kind and ok]
            by_kind[kind] = whole or of_kind
        return by_kind

    def until(self, cycles, seconds: float) -> float:
        """Run whole cycles of ops while the next cycle is expected to end
        within ``seconds`` (the first always runs), probing the host's speed
        on the way; returns the wall time."""
        start = time.perf_counter()
        self.probes.append(host_probe())
        probed = time.perf_counter()
        for cycle in cycles:
            for op in cycle:
                self.run(op)
                if time.perf_counter() - probed >= PROBE_EVERY_S:
                    self.probes.append(host_probe())
                    probed = time.perf_counter()
            self.cycles += 1
            wall = time.perf_counter() - start
            if wall + wall / self.cycles > seconds:
                if self.segments[-1] == len(self.probes) - 1:  # ops since the last probe
                    self.probes.append(host_probe())
                return wall


def quantile(values: list[float], q: float) -> float:
    """The q-quantile by the inclusive method of statistics.quantiles."""
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def set_up(args, workdir: str):
    """Import divlab, draw and write the inputs, run one untimed op; each
    once, timed."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    setup = {"import_s": import_divlab()}
    import divlab
    import workloads

    t = time.perf_counter()
    inputs = workloads.Inputs(args.workload, args.seed, workloads.Sizes.pick(args.smoke),
                              workdir)
    setup["inputs_s"] = time.perf_counter() - t
    warm = Loop()
    warm.run(workloads.warmup_op(inputs, divlab.default_registry(), workdir))
    setup["warmup_s"] = warm.times[0]
    setup["warmup_failures"] = warm.failures
    setup["setup_s"] = setup["import_s"] + setup["inputs_s"] + setup["warmup_s"]
    return inputs, setup


def mix_timings(by_kind: dict[str, list[float]]) -> tuple[float, float]:
    """Throughput and median op time of the workload's mix: every kind of op
    counts equally, by its mean and by its median."""
    return (len(by_kind) / sum(map(statistics.fmean, by_kind.values())),
            statistics.fmean(map(statistics.median, by_kind.values())))


def timed_metrics(inputs, setup: dict, seconds: float) -> tuple[Loop, dict]:
    """The end-to-end metrics of a closed loop of whole cycles; the timings
    at the probe's reference speed, with the wall-clock ones beside them."""
    import divlab
    import workloads

    loop = Loop()
    wall = loop.until(workloads.cycles(inputs, divlab.default_registry()), seconds)
    by_kind = loop.timed_times_by_kind(loop.scaled_times())
    ops_per_s, op_p50_s = mix_timings(by_kind)
    wall_ops_per_s, wall_op_p50_s = mix_timings(loop.timed_times_by_kind(loop.times))
    times = [t for kind_times in by_kind.values() for t in kind_times]
    n = len(times)
    metrics = {
        "ops_per_s": {"value": ops_per_s, "unit": "ops/s", "samples": n},
        "op_p50_s": {"value": op_p50_s, "unit": "s", "samples": n},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB", "samples": 1,
        },
        # scaled by the run's median probe: one probe alone is too noisy
        "setup_s": {"value": setup["setup_s"] * PROBE_REF_S / statistics.median(loop.probes),
                    "unit": "s", "samples": 1},
    }
    # reported but not gated: the p90 needs ten ops beyond it
    if n >= 100:
        metrics["op_p90_s"] = {"value": quantile(times, 0.9), "unit": "s", "samples": n}
    metrics["wall_ops_per_s"] = {"value": wall_ops_per_s, "unit": "ops/s", "samples": n}
    metrics["wall_op_p50_s"] = {"value": wall_op_p50_s, "unit": "s", "samples": n}
    metrics["wall_setup_s"] = {"value": setup["setup_s"], "unit": "s", "samples": 1}
    metrics["host_probe_s"] = {"value": statistics.median(loop.probes), "unit": "s",
                               "samples": len(loop.probes)}
    metrics["loop_wall_s"] = {"value": wall, "unit": "s", "samples": 1}
    metrics["cycles"] = {"value": loop.cycles, "unit": "count", "samples": 1}
    return loop, metrics


def traced_metrics(inputs, workload: str, seed: int) -> tuple[Loop, dict]:
    """Per-layer metrics of a fixed op list, run untraced and then traced."""
    import divlab
    import tracing
    import workloads

    plain = Loop()
    for op in workloads.trace_ops(inputs, divlab.default_registry()):
        plain.run(op)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # built after install, so the registry hands out counting generators
        ops = workloads.trace_ops(inputs, divlab.default_registry())
        loop = Loop(tracer)
        for op in ops:
            loop.run(op)
    finally:
        tracer.uninstall()
    os.makedirs(WORK, exist_ok=True)
    tracer.save(os.path.join(WORK, f"trace-{workload}-s{seed}.npz"))
    layers = tracer.layer_metrics()
    untraced = len(plain.times) / sum(plain.times)
    traced = len(loop.times) / sum(loop.times)
    layers["trace.untraced_ops_per_s"] = untraced
    layers["trace.traced_ops_per_s"] = traced
    layers["trace.overhead_frac"] = untraced / traced - 1.0
    n = len(loop.times)
    metrics = {
        name: {"value": layers.get(name, 0), "unit": unit, "samples": n}
        for name, unit in tracing.LAYER_METRICS
    }
    return loop, metrics


def measure(args) -> dict:
    """One run of one workload; returns the summary."""
    workdir = os.path.join(WORK, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        inputs, setup = set_up(args, workdir)
        if args.trace:
            loop, metrics = traced_metrics(inputs, args.workload, args.seed)
        else:
            loop, metrics = timed_metrics(inputs, setup, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed, attempted = len(loop.failures), len(loop.times)
    # reported but not gated: both can be 0, and the shortfall can change sign.
    # Every op with a finding counts, known defects included.
    metrics["failed_frac"] = {"value": (failed + len(loop.defects)) / attempted,
                              "unit": "ratio", "samples": attempted}
    sf = loop.shortfalls
    metrics["estimate_shortfall"] = {
        "value": statistics.fmean(sf) if sf else None, "unit": "ratio",
        "samples": len(sf),
    }
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "env": environment(),
        "setup": setup,
        "inputs": [meta for _, meta in inputs.files],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "failures": loop.failures,
        "known_defects": loop.defects,
        "op_times_s": loop.times,
        "op_timed": loop.timed,
        "op_kinds": loop.kinds,
        "host_probes_s": loop.probes,
    }


# the end-to-end metrics of BENCHMARK.json
END_TO_END = ("ops_per_s", "op_p50_s", "peak_rss_mb", "setup_s")


def result_line(summary: dict, trace: int) -> dict:
    if trace:
        names = [name for name, _ in sys.modules["tracing"].LAYER_METRICS]
    else:
        names = END_TO_END
    return {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {
            name: {"value": summary["metrics"][name]["value"],
                   "unit": summary["metrics"][name]["unit"]}
            for name in names
        },
    }


def run_all(args) -> int:
    """Each workload in its own process; prints one table row per metric."""
    rc = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, env=pinned_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{workload}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            rc = 1
            continue
        summary = json.loads(lines[-2])["summary"]
        print(f"== {workload}  attempted={summary['attempted']} "
              f"failed={summary['failed']}  python={summary['env']['python']} "
              f"numpy={summary['env']['numpy']} nproc={summary['env']['nproc']}")
        for name, m in summary["metrics"].items():
            print(f"  {name:48s} {m['value']!s:>24} {m['unit']:6s} n={m['samples']}")
        for f in summary["failures"]:
            print(f"  FAILED op {f['op']}: {f['label']}: {'; '.join(f['problems'])}")
        for f in summary["known_defects"]:
            print(f"  KNOWN DEFECT op {f['op']}: {f['label']}: {'; '.join(f['problems'])}")
    return rc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest sizes, for the benchmark's own test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    if args.workload == "all":
        return run_all(args)
    summary = measure(args)
    print(json.dumps({"summary": summary}, default=str))
    print(json.dumps(result_line(summary, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
