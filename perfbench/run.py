"""The repository benchmark: one workload per call, each in a fresh process.

Usage (from the repository root)::

    python3 perfbench/run.py --workload qmap-mtree-knn --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Workloads are described in ``perfbench/workloads.json``.  With
``--trace 0`` the workload runs untraced for ``--seconds`` and the run
reports the end-to-end metrics.  With ``--trace 1`` it runs twice, each
time in a fresh process: untraced for ``--seconds``, then traced over
exactly the same operations.  The traced run reports the per-layer
metrics; its answers and distance-evaluation counts must match the
untraced run's exactly, and the difference in wall time is the tracing
overhead.  Spans are written to ``.perfbench_out/``.

Every answer is checked against a numpy brute-force reference.  The last
line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable report with units and sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPAN_DIR = os.path.join(ROOT, ".perfbench_out")
#: A workload process still running after this many seconds is stopped,
#: so that one run of the benchmark ends within 180 s.
CHILD_TIMEOUT = 170


def load_manifest() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_child(args: list[str], timeout: float) -> dict:
    """Run ``workload.py`` in a fresh process and parse its last line."""
    cmd = [sys.executable, os.path.join(HERE, "workload.py"), *args]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"workload process timed out after {timeout:.0f} s")
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    lines = [ln for ln in out.splitlines() if ln.strip()]
    if not lines:
        raise RuntimeError("workload process printed no result")
    return json.loads(lines[-1])


def report(title: str, metrics: dict) -> None:
    print(f"== {title}")
    for name, m in metrics.items():
        samples = f"  (n={m['samples']})" if "samples" in m else ""
        print(f"   {name:<34} {m['value']:>14.6g} {m['unit']:<12}{samples}")


def run_workload(name: str, seed: int, seconds: float, trace: bool, manifest: dict) -> dict:
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    if not trace:
        res = run_child(base, CHILD_TIMEOUT)
        wanted = [m["name"] for m in manifest["end_to_end"]]
        print(f"workload {name}  seed {seed}  ops {res['ops']}  host {json.dumps(res['host'])}")
        report("end-to-end (untraced)", res["metrics"])
        metrics = {k: {"value": res["metrics"][k]["value"], "unit": res["metrics"][k]["unit"]} for k in wanted}
        failed, attempted = res["failed"], res["attempted"]
        correct = failed == 0
        for reason in res["failures"]:
            print(f"   FAILED {reason}")
        print(f"   failed_ops_frac {failed / attempted:.6g} ({failed} of {attempted})")
        return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}

    # Traced: an untraced run fixes the operation count, then a traced
    # run repeats exactly those operations for an outside comparison.
    half = CHILD_TIMEOUT / 2
    plain = run_child([*base, "--setups", "1"], half)
    os.makedirs(SPAN_DIR, exist_ok=True)
    spans = os.path.join(SPAN_DIR, f"spans-{name}-seed{seed}.npz")
    traced = run_child([*base, "--setups", "1", "--traced", "--ops", str(plain["ops"]), "--spans", spans], half)
    layers = traced["layers"]
    layers["trace.overhead_frac"] = {"value": traced["op_seconds"] / plain["op_seconds"] - 1.0, "unit": "ratio"}
    same_answers = plain["digest"] == traced["digest"]
    same_evals = plain["evals"] == traced["evals"]
    print(f"workload {name}  seed {seed}  ops {plain['ops']}  host {json.dumps(traced['host'])}")
    print(f"   {traced.get('spans')} spans written to {os.path.relpath(spans, ROOT)}")
    print(f"   answers identical traced/untraced: {same_answers}; evaluation counts identical: {same_evals}")
    coverage = layers["trace.coverage"]["value"]
    if coverage < 0.95:
        print(f"   WARNING trace.coverage {coverage:.3f}: time on the requesting thread outside any layer span")
    report("per-layer (traced)", layers)
    failed = plain["failed"] + traced["failed"]
    attempted = plain["attempted"] + traced["attempted"]
    for reason in plain["failures"] + traced["failures"]:
        print(f"   FAILED {reason}")
    wanted = [m["name"] for m in manifest["per_layer"]]
    metrics = {k: {"value": layers[k]["value"], "unit": layers[k]["unit"]} for k in wanted}
    correct = failed == 0 and same_answers and same_evals
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the repository benchmark.")
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("error: run from a checkout of the repository (src/repro not found)", file=sys.stderr)
        return 2
    manifest = load_manifest()
    names = [w["name"] for w in manifest["workloads"]]
    chosen = names if args.workload == "all" else [args.workload]
    if any(n not in names for n in chosen):
        print(f"error: unknown workload {args.workload!r}; choose from {names} or 'all'", file=sys.stderr)
        return 2
    try:
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace), manifest) for n in chosen]
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        print(json.dumps(results[0]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {f"{n}/{k}": v for n, r in zip(chosen, results) for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
