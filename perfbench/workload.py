"""Run one benchmark workload in this (fresh) process.

Usage::

    python3 perfbench/workload.py --workload qmap-mtree-knn --seed 1 \\
        --seconds 10 [--setups N] [--traced --ops N --spans PATH]

Generates the inputs from the seed, builds the index ``--setups`` times
(default 3), timing each ``build_index``, runs the workload's closed loop
on the last build, checks every answer against the numpy brute-force
reference, and prints one JSON object as its last line of output.
Untraced, the loop runs for ``--seconds`` (and, where the workload asks,
until it has ``min_knn`` kNN samples, at most three times as long).
Traced, it runs exactly ``--ops`` operations, so its answers and
evaluation counts can be compared with an untraced run of the same
operations.

BLAS is pinned to one thread here, before numpy loads, so that the batch
executor's workers are the only parallelism.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import platform
import resource
import shutil
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from oracle import BLOCK, Oracle, knn_distances  # noqa: E402

TMP_DIR = os.path.join(ROOT, ".perfbench_tmp")


def load_config(name: str) -> dict:
    with open(os.path.join(HERE, "workloads.json")) as fh:
        return json.load(fh)[name]


def host_record() -> dict:
    """Where and how the numbers were taken."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def process_threads() -> int | None:
    try:
        with open("/proc/self/status") as fh:
            return next(int(ln.split()[1]) for ln in fh if ln.startswith("Threads:"))
    except (OSError, StopIteration):
        return None


def make_inputs(cfg: dict, seed: int) -> dict:
    """Database, query pool, insert pool and range radius.

    The database and its held-out rows come from the workload's fixed
    ``dataset_seed``; *seed* draws the query and insert pools from the
    held-out rows.  Re-drawing the whole database per seed moved
    ``evals_per_query`` by more than 10% between seeds, which would hide
    any change smaller than that.
    """
    from repro.datasets import histogram_workload

    n_q = cfg["query_pool"]
    n_i = cfg.get("insert_pool", 0)
    n_s = cfg.get("radius_sample", 0)
    w = histogram_workload(cfg["m"], n_s + cfg["held_out"], bins_per_channel=cfg["bins_per_channel"],
                           seed=cfg["dataset_seed"])
    pool = w.queries[n_s:]
    order = np.random.default_rng(seed).permutation(pool.shape[0])
    inputs = {
        "matrix": w.matrix,
        "database": w.database,
        "queries": pool[order[:n_q]],
        "inserts": pool[order[n_q : n_q + n_i]],
    }
    if n_s:
        # Range radius: median exact 10-NN distance of a fixed held-out sample.
        kth = knn_distances(w.matrix, w.database, w.queries[:n_s], cfg["radius_k"])
        inputs["radius"] = float(np.median(kth))
    return inputs


class Built:
    """One built index plus what it takes to release it."""

    def __init__(self, cfg: dict, inputs: dict, tmpdir: str, serial: int) -> None:
        from repro.models import QFDModel, QMapModel

        model = QMapModel(inputs["matrix"]) if cfg["model"] == "qmap" else QFDModel(inputs["matrix"])
        kwargs = dict(cfg["method_kwargs"])
        self.page_path = None
        if cfg["method"] == "paged-mtree":
            self.page_path = kwargs["path"] = os.path.join(tmpdir, f"pages-{serial}.bin")
        start = perf_counter()
        self.index = model.build_index(cfg["method"], inputs["database"], **kwargs)
        self.seconds = perf_counter() - start

    def close(self) -> None:
        close = getattr(self.index.access_method, "close", None)
        if close is not None:
            close()
        if self.page_path is not None and os.path.exists(self.page_path):
            os.remove(self.page_path)


def percentile_tail(samples: list[float]) -> tuple[str, float] | None:
    """Highest of p99/p90 with at least ten samples beyond it."""
    n = len(samples)
    for label, q in (("p99", 99), ("p90", 90)):
        if n * (100 - q) / 100 >= 10:
            return label, float(np.percentile(samples, q))
    return None


def run_loop(cfg, inputs, index, *, seconds, fixed_ops, min_knn=0, tracer=None):
    """The closed loop: one client sends the next request when the
    previous one returns.

    Runs for *seconds* and *min_knn* kNN requests (at most three times as
    long), or for exactly *fixed_ops* operations.  Each operation is
    timed alone; the evaluation counter is read between operations,
    outside the timed region.  Returns ``(records, loop wall seconds)``.
    """
    pattern = cfg["pattern"]
    queries, inserts = inputs["queries"], inputs["inserts"]
    k, radius = cfg["k"], inputs.get("radius")
    batch = cfg.get("batch", 1)
    size = index.access_method.size
    qi = ii = n_knn = 0
    records: list[dict] = []
    evals = index.query_costs().distance_computations
    loop_start = perf_counter()
    while True:
        i = len(records)
        if fixed_ops is not None:
            if i >= fixed_ops:
                break
        else:
            elapsed = perf_counter() - loop_start
            if elapsed >= 3 * seconds or (elapsed >= seconds and n_knn >= min_knn):
                break
        kind = pattern[i % len(pattern)]
        if kind == "insert":
            if ii >= len(inserts):
                break
            payload = inserts[ii]
            ii += 1
        elif kind == "knn_batch":
            payload = np.take(queries, np.arange(qi, qi + batch), axis=0, mode="wrap")
            qi += batch
        else:
            payload = queries[qi % len(queries)]
            qi += 1
        if tracer is not None:
            tracer.begin_request(i)
        error = None
        start = perf_counter()
        try:
            if kind == "knn":
                result = index.knn_search(payload, k)
            elif kind == "range":
                result = index.range_search(payload, radius)
            elif kind == "insert":
                result = index.insert(payload)
            else:
                result = index.knn_search_batch(
                    payload, k, executor=cfg["executor"], workers=cfg["workers"]
                )
        except Exception as exc:  # a failed operation is counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        latency = perf_counter() - start
        now = index.query_costs().distance_computations
        records.append({"kind": kind, "seconds": latency, "evals": now - evals,
                        "size": size, "payload": payload, "result": result, "error": error})
        evals = now
        if kind == "insert" and error is None:
            size += 1
        if kind in ("knn", "knn_batch"):
            n_knn += 1
    return records, perf_counter() - loop_start


def check_answers(cfg, inputs, records) -> tuple[int, list[str], str]:
    """Brute-force check of every record; returns (failed ops, reasons, digest)."""
    inserted = [r["payload"] for r in records if r["kind"] == "insert" and r["error"] is None]
    rows = np.vstack([inputs["database"], *inserted]) if inserted else inputs["database"]
    oracle = Oracle(inputs["matrix"], rows)
    digest = hashlib.sha256()
    k, radius = cfg["k"], inputs.get("radius")
    # One entry per query: (record, position in batch, query vector).
    entries = []
    for rec in records:
        if rec["error"] is not None or rec["kind"] == "insert":
            continue
        if rec["kind"] == "knn_batch":
            entries += [(rec, j, q) for j, q in enumerate(rec["payload"])]
        else:
            entries.append((rec, None, rec["payload"]))
    bad: dict[int, str] = {}
    for start in range(0, len(entries), BLOCK):
        block = entries[start : start + BLOCK]
        sq = oracle.screen(np.array([q for _, _, q in block]))
        for row, (rec, j, q) in enumerate(block):
            result = rec["result"] if j is None else rec["result"][j]
            if rec["kind"] == "range":
                why = oracle.check_range(q, rec["size"], radius, result, sq[row])
            else:
                why = oracle.check_knn(q, rec["size"], k, result, sq[row])
            if why is not None:
                bad.setdefault(id(rec), why)
    failed, reasons = 0, []
    for rec in records:
        weight = len(rec["payload"]) if rec["kind"] == "knn_batch" else 1
        why = rec["error"] or bad.get(id(rec))
        if rec["kind"] == "insert" and rec["error"] is None and rec["result"] != rec["size"]:
            why = f"insert returned id {rec['result']}, expected {rec['size']}"
        if why is not None:
            failed += weight
            if len(reasons) < 5:
                reasons.append(f"{rec['kind']}: {why}")
        digest.update(rec["kind"].encode())
        results = rec["result"] if rec["kind"] == "knn_batch" else [rec["result"]]
        for res in results if rec["error"] is None else [None]:
            if isinstance(res, list):
                digest.update(np.array([n.index for n in res], dtype=np.int64).tobytes())
                digest.update(np.array([n.distance for n in res], dtype=np.float64).tobytes())
            else:
                digest.update(repr(res).encode())
        digest.update(np.int64(rec["evals"]).tobytes())
    return failed, reasons, digest.hexdigest()


def summarize(cfg, records, loop_wall, setups, built, rss_mb) -> dict:
    """End-to-end figures of one run, with sample counts."""
    batch = cfg.get("batch", 1)
    lat = {}
    for rec in records:
        lat.setdefault(rec["kind"], []).append(rec["seconds"] * 1e3)
    knn = lat.get("knn", []) + lat.get("knn_batch", [])
    queries = [r for r in records if r["kind"] != "insert"]
    inserts = [r for r in records if r["kind"] == "insert"]
    n_queries = sum(batch if r["kind"] == "knn_batch" else 1 for r in queries)
    ops = sum(batch if r["kind"] == "knn_batch" else 1 for r in records)
    out = {
        "setup_s": {"value": float(np.median(setups)), "unit": "s", "samples": len(setups)},
        "knn_p50_ms": {"value": float(np.median(knn)), "unit": "ms", "samples": len(knn)},
        "throughput_ops_s": {"value": ops / loop_wall, "unit": "1/s", "samples": ops},
        "evals_per_query": {"value": sum(r["evals"] for r in queries) / n_queries, "unit": "count", "samples": n_queries},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB", "samples": 1},
    }
    tail = percentile_tail(knn)
    if tail is not None:
        out[f"knn_{tail[0]}_ms"] = {"value": tail[1], "unit": "ms", "samples": len(knn)}
    if "range" in lat:
        out["range_p50_ms"] = {"value": float(np.median(lat["range"])), "unit": "ms", "samples": len(lat["range"])}
        tail = percentile_tail(lat["range"])
        if tail is not None:
            out[f"range_{tail[0]}_ms"] = {"value": tail[1], "unit": "ms", "samples": len(lat["range"])}
    if inserts:
        out["insert_p50_ms"] = {"value": float(np.median(lat["insert"])), "unit": "ms", "samples": len(inserts)}
        tail = percentile_tail(lat["insert"])
        if tail is not None:
            out[f"insert_{tail[0]}_ms"] = {"value": tail[1], "unit": "ms", "samples": len(inserts)}
        out["evals_per_insert"] = {"value": sum(r["evals"] for r in inserts) / len(inserts), "unit": "count", "samples": len(inserts)}
    am = built.index.access_method
    if hasattr(am, "node_pages"):
        page_bytes = am.node_pages() * am.cache.backing.page_size
        out["bytes_per_user_byte"] = {"value": page_bytes / am.database.nbytes, "unit": "ratio", "samples": 1}
        out["node_pages"] = {"value": am.node_pages(), "unit": "count", "samples": 1}
    return out


def storage_counters(index) -> dict:
    cache = getattr(index.access_method, "cache", None)
    if cache is None:
        return {}
    s = cache.stats
    return {"hits": s.hits, "faults": s.faults, "writes": s.write_hits + s.write_faults,
            "physical_reads": cache.backing.stats.reads}


#: Layers whose set-up self time the traced run reports.
SETUP_LAYERS = ("models", "core.qmap", "mam", "mam.charge", "kernels", "distances", "storage")


def layer_metrics(cfg, tracer, records, storage_before, storage_after, build_evals) -> dict:
    """Per-layer figures of a traced run, normalised per operation."""
    from tracer import QUERY, SETUP, ENGINE_CHUNK, ENGINE_MAP

    batch = cfg.get("batch", 1)
    ops = sum(batch if r["kind"] == "knn_batch" else 1 for r in records)
    inserts = sum(1 for r in records if r["kind"] == "insert")
    q = tracer.aggregates(QUERY)
    s = tracer.aggregates(SETUP)

    def layer(agg, name, field):
        return sum(v[field] for v in agg.values() if v["layer"] == name)

    def named(agg, name, field):
        return agg.get(name, {}).get(field, 0)

    per_op = lambda x: x / ops  # noqa: E731
    per_insert = lambda x: x / inserts if inserts else 0.0  # noqa: E731
    results = sum(
        sum(len(r) for r in rec["result"]) if rec["kind"] == "knn_batch" else len(rec["result"])
        for rec in records if rec["kind"] != "insert" and rec["error"] is None
    )
    query_evals = sum(r["evals"] for r in records if r["kind"] != "insert")
    wall = named(q, ENGINE_MAP, "seconds")
    busy = named(q, ENGINE_CHUNK, "seconds")
    workers = cfg.get("workers", 1)
    st = {k: storage_after.get(k, 0) - storage_before.get(k, 0) for k in ("hits", "faults", "writes", "physical_reads")}
    reads = st["hits"] + st["faults"]
    traced_wall = sum(r["seconds"] for r in records)
    m = {
        "mam.self_seconds": (per_op(layer(q, "mam", "self_seconds")), "s/op"),
        "mam.results_per_eval": (results / query_evals if query_evals else 0.0, "ratio"),
        "mam.charge.seconds": (per_op(layer(q, "mam.charge", "self_seconds")), "s/op"),
        "mam.charge.calls": (per_op(named(q, "mam.DistancePort.charge", "calls")), "count/op"),
        "mam.insert.seconds": (per_insert(named(q, "mam.AccessMethod.insert", "seconds")), "s/insert"),
        "kernels.seconds": (per_op(layer(q, "kernels", "self_seconds")), "s/op"),
        "kernels.calls": (per_op(layer(q, "kernels", "calls")), "count/op"),
        "kernels.rows": (per_op(layer(q, "kernels", "rows")), "count/op"),
        "distances.seconds": (per_op(layer(q, "distances", "self_seconds")), "s/op"),
        "distances.calls": (per_op(layer(q, "distances", "calls")), "count/op"),
        "distances.rows": (per_op(layer(q, "distances", "rows")), "count/op"),
        "core.qmap.seconds": (per_op(layer(q, "core.qmap", "self_seconds")), "s/op"),
        "core.qmap.rows": (per_op(layer(q, "core.qmap", "rows")), "count/op"),
        "models.self_seconds": (per_op(layer(q, "models", "self_seconds")), "s/op"),
        "engine.wall_seconds": (per_op(wall), "s/op"),
        "engine.busy_seconds": (per_op(busy), "s/op"),
        "engine.queue_wait_seconds": (per_op(tracer.queue_wait_ns / 1e9), "s/op"),
        "engine.utilisation": (busy / (wall * workers) if wall else 0.0, "ratio"),
        "engine.chunks": (per_op(named(q, ENGINE_CHUNK, "calls")), "count/op"),
        "storage.read_seconds": (per_op(named(q, "storage.LRUPageCache.read_page", "seconds")), "s/op"),
        "storage.write_seconds": (per_op(named(q, "storage.LRUPageCache.write_page", "seconds")), "s/op"),
        "storage.hit_rate": (st["hits"] / reads if reads else 0.0, "ratio"),
        "storage.page_reads_per_op": (per_op(reads), "count/op"),
        "storage.physical_reads": (per_op(st["physical_reads"]), "count/op"),
        "storage.page_writes_per_insert": (per_insert(st["writes"]), "count/insert"),
    }
    for name in SETUP_LAYERS:
        m[f"setup.{name}_seconds"] = (layer(s, name, "self_seconds"), "s")
    m["setup.build_evals"] = (build_evals, "count")
    m["trace.coverage"] = (tracer.client_root_seconds(QUERY) / traced_wall, "ratio")
    return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--setups", type=int, default=3, help="builds to time")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--ops", type=int, default=None)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    cfg = load_config(args.workload)

    tracer = None
    if args.traced:
        from tracer import QUERY, SETUP, OFF, Tracer

        tracer = Tracer()
        tracer.install()
    inputs = make_inputs(cfg, args.seed)
    os.makedirs(TMP_DIR, exist_ok=True)
    tmpdir = tempfile.mkdtemp(dir=TMP_DIR)
    built = None
    try:
        setups = []
        for serial in range(args.setups):
            if built is not None:
                built.close()
                built = None
                gc.collect()
            if tracer is not None:
                tracer.phase = SETUP
            built = Built(cfg, inputs, tmpdir, serial)
            if tracer is not None:
                tracer.phase = OFF
            setups.append(built.seconds)
        index = built.index
        threads = process_threads()
        # Warm-up: a few read-only requests outside the measurement.
        warm = dict(cfg, pattern=[p for p in cfg["pattern"] if p != "insert"][:1])
        run_loop(warm, inputs, index, seconds=0, fixed_ops=3)
        index.reset_query_costs()
        storage_before = storage_counters(index)
        if tracer is not None:
            tracer.queue_wait_ns = 0
            tracer.phase = QUERY
        records, loop_wall = run_loop(cfg, inputs, index, seconds=args.seconds, fixed_ops=args.ops,
                                      min_knn=cfg["min_knn"], tracer=tracer)
        if tracer is not None:
            tracer.phase = OFF
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        storage_after = storage_counters(index)
        failed, reasons, digest = check_answers(cfg, inputs, records)
        batch = cfg.get("batch", 1)
        out = {
            "workload": args.workload,
            "seed": args.seed,
            "traced": args.traced,
            "ops": len(records),
            "attempted": sum(batch if r["kind"] == "knn_batch" else 1 for r in records),
            "failed": failed,
            "failures": reasons,
            "digest": digest,
            "loop_wall_s": loop_wall,
            "op_seconds": sum(r["seconds"] for r in records),
            "evals": {kind: sum(r["evals"] for r in records if r["kind"] == kind) for kind in set(cfg["pattern"])},
            "radius": inputs.get("radius"),
            "host": dict(host_record(), process_threads=threads),
            "metrics": summarize(cfg, records, loop_wall, setups, built, rss_mb),
        }
        if tracer is not None:
            out["layers"] = layer_metrics(
                cfg, tracer, records, storage_before, storage_after,
                built.index.build_costs.distance_computations,
            )
            if args.spans:
                out["spans"] = tracer.write(args.spans)
    finally:
        if built is not None:
            built.close()
        shutil.rmtree(tmpdir, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
