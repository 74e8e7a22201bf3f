"""Smoke test of the benchmark at its smallest sizes.

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "bench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    summary = json.loads(lines[-2])["summary"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["correct"] == (result["failed"] == 0)
    assert result["failed"] == len(summary["failures"])
    return summary, result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_reports_every_end_to_end_metric(workload):
    # report workloads always run one whole cycle; bounds needs time for the
    # certificate run and at least one round of single calls after it
    seconds = "15" if workload == "bounds" else "1"
    summary, result = result_of(
        bench("--workload", workload, "--seed", "3", "--seconds", seconds, "--smoke")
    )
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert list(result["metrics"]) == names
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got == {"value": got["value"], "unit": m["unit"]}
        assert got["value"] > 0
    assert summary["env"]["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert summary["metrics"]["failed_frac"]["samples"] == result["attempted"]
    if workload == "bounds":
        assert result["attempted"] > 100


def test_traced_run_reports_every_per_layer_metric():
    _, result = result_of(
        bench("--workload", "chain-wide", "--seed", "3", "--seconds", "1",
              "--trace", "1", "--smoke")
    )
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert result["metrics"]["markov.structure.calls"]["value"] > 0
    assert result["metrics"]["quantum.petz_f_divergence.calls"]["value"] == 0


def test_same_seed_same_inputs(tmp_path):
    import workloads

    sizes = workloads.Sizes.pick(True)
    a = workloads.Inputs("bounds", 11, sizes, str(tmp_path))
    b = workloads.Inputs("bounds", 11, sizes, str(tmp_path))
    for (p1, q1, _), (p2, q2, _) in zip(a.pairs[8], b.pairs[8]):
        assert (p1 == p2).all() and (q1 == q2).all()


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench("--workload", "bounds", "--seed", "1", "--seconds", "1", "--smoke",
                 cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_end_to_end_names_match_the_spec():
    assert tuple(m["name"] for m in SPEC["end_to_end"]) == run.END_TO_END


def test_timings_weigh_op_kinds_equally_and_skip_failed_ops():
    import workloads

    def op(kind, ok):
        return workloads.Op(kind, lambda: None, lambda _: [] if ok else ["bad"], kind=kind)

    loop = run.Loop()
    for kind, ok in [("a", True), ("b", False), ("a", True), ("b", True), ("c", False)]:
        loop.run(op(kind, ok))
    times = [1.0, 0.01, 3.0, 4.0, 5.0]
    assert loop.timed_times_by_kind(times) == {"a": [1.0, 3.0], "b": [4.0], "c": [5.0]}
    assert [f["label"] for f in loop.failures] == ["b", "c"]
    assert run.mix_timings({"a": [1.0, 3.0], "b": [4.0]}) == (2 / 6, 3.0)


def test_known_defects_are_listed_apart_from_failures():
    import workloads

    def op(label, finding):
        return workloads.Op(label, lambda: None, lambda _: [finding], kind="k")

    loop = run.Loop()
    loop.run(op("noise", workloads.RatioNoise("ratio noise")))
    loop.run(op("probe", workloads.MixingProbe("mixing probe")))
    loop.run(op("wrong", "wrong output"))
    assert [d["label"] for d in loop.defects] == ["noise", "probe"]
    assert [f["label"] for f in loop.failures] == ["wrong"]
    # a ratio-noise op did its whole work; a skipped contraction section did not
    assert loop.timed == [True, False, False]


def test_op_times_scale_by_the_probes_around_them():
    loop = run.Loop()
    loop.times, loop.segments = [1.0, 1.0, 1.0], [0, 0, 1]
    loop.probes = [run.PROBE_REF_S, run.PROBE_REF_S, 3 * run.PROBE_REF_S]
    assert loop.scaled_times() == [1.0, 1.0, 0.5]
