#!/usr/bin/env python3
"""Benchmark of record for the KG change-history engine.

Run from the repository root:

    python3 perfbench/run.py --workload long_tail --seed 1 --seconds 20 \
        --trace 0

It drives the public pipeline entry points from outside -- `run_extraction`,
`materialize_graph` and `dedup_changes` of `pipelines.kg` -- on a local Ray
session sized to `nproc` CPUs, and checks every output against the
generator's ground truth.

Workloads (inputs are generated from --seed outside timing, and cached; see
workloads.py):
- long_tail: 1,200 short-history entities (2-4 revisions, ~15% media spans,
  scholarly-article / astronomical-object / other types, so every write-gate
  route fires); the per-document, per-row and sink layers carry the time.
- hot_entities: 8 entities with 100 revisions each over snapshots of 160+
  statements; re-parsing and re-diffing the entity JSON on every revision
  carries the extraction time.

Each iteration of the window runs a fresh `run_extraction`
(docs_per_ncpu_s, revisions_per_ncpu_s), a re-run over the finished
directory (resume_ncpu_s), `materialize_graph(...).materialize()`
(graph_ncpu_s) and `dedup_changes(...).materialize()` over the table plus
re-read duplicates (dedup_ncpu_s). Iterations repeat until --seconds is used
up, at least three; reported times are medians over iterations. setup_s is
the median over SETUP_CYCLES `ray.init` + warm-up cycles.

Every reported time is in normalized CPU seconds. A block's CPU seconds are
user plus system time of the benchmark's whole process tree: the driver and
every process of its Ray session. Wall time also counts the time the
hypervisor steals and the time other processes hold a CPU. Yet on a shared
host even CPU time grows when the neighbours are busy, since cores, caches
and memory bandwidth are shared. So before each timed block the driver
times a fixed reference work that does not touch the program
(tracing.reference_cpu_s), and the CPU seconds are scaled by REF_NOMINAL_S
over the run's mean reading. On a 4-vCPU VM, over ten runs of long_tail
whose steal ranged from 0.4% to 19%, the run-to-run spread (quartile
distance over median) of the four timed blocks was 0.13-0.42 for wall time
and 0.08-0.21 for CPU time; with steal under 5%, normalized times spread
0.06-0.19 on both workloads. The wall seconds are in the traced run's
per-layer metrics (`*.wall_s`) and in the report.

Correctness gate, in every iteration: no failed document; value_change keys
and graph triples each P = R = 1 against the generator; the resume run
reports every partition resumed and leaves the output byte-identical; the
dedup output holds each primary key of value_change exactly once. A failed
check fails the run: it reports no numbers and exits 1.

--trace 1 alternates traced and untraced iterations and reports the
per-layer metrics of layers.py plus the tracing overhead. Reports, spans and
the host-weather stamp are written under .bench_out/.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import shutil
import sys
import time
import traceback
from contextlib import contextmanager

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH_OUT = os.path.join(ROOT, ".bench_out")
CACHE_DIR = os.path.join(ROOT, ".bench_cache")
# Ray's session files go inside the checkout, as everything the benchmark
# writes does. A Unix socket path holds at most 107 bytes and Ray appends up
# to ~64 to its temp dir, so from a checkout whose path is too long Ray keeps
# its default temp dir.
RAY_TMP = os.path.join(ROOT, ".ray")
RAY_TMP_MAX_LEN = 42
SETUP_CYCLES = 2
MIN_ITERATIONS = 3
HARD_STOP_S = 60.0
OBJECT_STORE_BYTES = 512 * 2**20

E2E_UNITS = {
    "setup_s": "s", "docs_per_ncpu_s": "1/s", "revisions_per_ncpu_s": "1/s",
    "resume_ncpu_s": "s", "graph_ncpu_s": "s", "dedup_ncpu_s": "s",
    "triple_precision": "ratio", "triple_recall": "ratio",
    "out_bytes_per_in_byte": "ratio", "peak_worker_rss_mb": "MB",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["long_tail", "hot_entities"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full",
                    help="input size; tiny is for the self-test")
    return ap.parse_args(argv)


def _sha1(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha1(f.read()).hexdigest()


class CheckFailed(Exception):
    pass


def _pr(got: list, truth: set) -> tuple:
    hit = len(set(got) & truth)
    return hit / max(len(got), 1), hit / max(len(truth), 1)


class Bench:
    def __init__(self, args, ncpus: int):
        from perfbench import tracing, workloads
        from wikidata_edit_history_ray.sources import corpus

        self.args = args
        self.ncpus = ncpus
        self.tracer = tracing.Tracer(bool(args.trace))
        self.work = os.path.join(BENCH_OUT, f"work-{os.getpid()}")
        self.inputs = workloads.materialize(args.workload, args.size,
                                            args.seed, CACHE_DIR)
        self.warm_inputs = workloads.materialize("long_tail", "tiny", 0,
                                                 CACHE_DIR)
        self.truth_vc = self.inputs.truth_value_change()
        self.truth_triples = self.inputs.truth_triples()
        self.attempted = 0
        self.failed = 0
        self.setups: list[dict] = []
        self.iterations: list[dict] = []
        self.out_dir = None
        self.out_files = None
        self.partitions = 0
        self.vc_rows = 0
        self.vc_pk = None
        self.session_dirs: list[str] = []
        self.extract_kw = {"sa_types": corpus.SA_TYPES,
                           "ao_types": corpus.AO_TYPES}

    @contextmanager
    def _timed(self, rec: dict, name: str):
        """clock(), after a reading of how fast this host runs the reference
        work right now."""
        from perfbench.tracing import clock, reference_cpu_s

        rec[f"{name}_ref_cpu_s"] = reference_cpu_s()
        with clock(rec, name):
            yield

    # ---- Ray session ----
    def _ray_init(self):
        import ray

        # Ray workers import the program from the checkout, wherever the
        # benchmark was started from
        paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
        if paths[0] != ROOT:
            os.environ["PYTHONPATH"] = os.pathsep.join(
                [ROOT] + [p for p in paths if p])
        os.environ.setdefault("RAY_USAGE_STATS_ENABLED", "0")
        # the same string hashes, so the same dict layouts, in every run
        os.environ["PYTHONHASHSEED"] = "0"
        kw = dict(address="local", num_cpus=self.ncpus,
                  include_dashboard=False, log_to_driver=False,
                  object_store_memory=OBJECT_STORE_BYTES)
        if len(RAY_TMP) <= RAY_TMP_MAX_LEN:
            kw["_temp_dir"] = RAY_TMP
        ray.init(**kw)
        import ray.data

        ctx = ray.data.DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False
        logging.getLogger("ray.data").setLevel(logging.WARNING)
        self.session_dirs.append(
            ray._private.worker._global_node.address_info["session_dir"])

    def _warm(self, k: int):
        """First extraction, graph replay and dedup, on a tiny corpus:
        starts the worker, imports the program into it and starts Ray Data's
        internal actors. Later extractions in the session run about 3 s
        faster than this one, and a first graph replay or dedup often takes
        a fifth to a third more CPU than later ones."""
        import ray.data

        from perfbench import workloads
        from wikidata_edit_history_ray.pipelines.kg import (dedup_changes,
                                                            materialize_graph,
                                                            run_extraction)

        out = os.path.join(self.work, f"warm-{k}")
        run_extraction(self.warm_inputs.docs_dir, out, **self.extract_kw)
        vc = ray.data.read_parquet(os.path.join(out, "value_change"))
        materialize_graph(vc).materialize()
        dedup_changes(vc, workloads.DEDUP_PK).materialize()
        shutil.rmtree(out, ignore_errors=True)

    def setup(self):
        import ray

        from perfbench.tracing import clock

        for k in range(SETUP_CYCLES):
            rec: dict = {}
            with self.tracer.span("setup", cycle=k), \
                    self._timed(rec, "setup"):
                with self.tracer.span("setup.ray_init"), \
                        clock(rec, "ray_init"):
                    self._ray_init()
                with self.tracer.span("setup.warm"), clock(rec, "warm"):
                    self._warm(k)
            self.setups.append(rec)
            if k < SETUP_CYCLES - 1:
                ray.shutdown()

    # ---- the timed operations ----
    def _extract(self, tag: str, traced: bool, rec: dict):
        """A fresh `run_extraction` into a new directory, then its checks:
        no failed document, value_change P = R = 1 against the generator."""
        import pyarrow.parquet as pq

        from perfbench import layers, workloads
        from wikidata_edit_history_ray.pipelines.kg import run_extraction
        from wikidata_edit_history_ray.stages.extract import \
            list_partition_specs

        docs = self.inputs.docs_dir
        if self.out_dir:
            shutil.rmtree(self.out_dir, ignore_errors=True)
        out = self.out_dir = os.path.join(self.work, f"out-{tag}")
        if traced:
            with self.tracer.span("sources.io.list_partition_specs"):
                t0 = time.perf_counter()
                specs = list_partition_specs(docs)
                rec["sources.io.list_s"] = time.perf_counter() - t0
            rec["sources.io.partitions"] = float(len(specs))

        self.attempted += 1
        with self.tracer.span("pipelines.kg.run_extraction"), \
                self._timed(rec, "extract"):
            manifest = run_extraction(docs, out, **self.extract_kw)
        wall = rec["extract_s"]
        rows = manifest.take_all()
        errors = sum(json.loads(m["rows_per_table"]).get("errors", 0)
                     for m in rows)
        vc = pq.read_table(os.path.join(out, "value_change"),
                           columns=list(workloads.VC_KEY))
        keys = list(zip(*(vc.column(c).to_pylist()
                          for c in workloads.VC_KEY)))
        p, r = _pr(keys, self.truth_vc)
        rec["vc_precision"], rec["vc_recall"] = p, r
        rec["bytes_written"] = float(sum(
            layers.dir_files(out, skip=()).values()))
        if errors or p < 1.0 or r < 1.0 or any(m["resumed"] for m in rows):
            self.failed += 1
            raise CheckFailed(f"extraction: errors={errors} P={p} R={r}")
        # what the resume gate and the dedup gate compare against
        self.partitions = len(rows)
        self.out_files = {f: _sha1(os.path.join(out, f))
                          for f in layers.dir_files(out)}
        self.vc_rows = vc.num_rows
        self.vc_pk = set(zip(*(vc.column(c).to_pylist()
                               for c in workloads.DEDUP_PK)))
        if traced:
            rec.update(layers.extraction_layers(
                rows, out, wall, self.inputs.meta["text_spans"],
                self.inputs.meta["docs"]))

    def _resume(self, rec: dict):
        """A re-run over the finished directory: every partition must report
        `resumed` and the output file set must stay byte-identical."""
        from perfbench import layers
        from wikidata_edit_history_ray.pipelines.kg import run_extraction

        self.attempted += 1
        with self.tracer.span("pipelines.kg.resume"), \
                self._timed(rec, "resume"):
            manifest = run_extraction(self.inputs.docs_dir, self.out_dir,
                                      **self.extract_kw)
        rows = manifest.take_all()
        resumed = sum(bool(m["resumed"]) for m in rows)
        after = {f: _sha1(os.path.join(self.out_dir, f))
                 for f in layers.dir_files(self.out_dir)}
        rec["pipelines.kg.resume_skipped_ratio"] = resumed / max(len(rows), 1)
        if resumed != self.partitions or len(rows) != self.partitions \
                or after != self.out_files:
            self.failed += 1
            raise CheckFailed(f"resume: {resumed}/{len(rows)} resumed, "
                              f"files identical={after == self.out_files}")

    def _graph(self, traced: bool, rec: dict):
        import pyarrow as pa
        import ray
        import ray.data

        from perfbench import layers
        from wikidata_edit_history_ray.pipelines.kg import materialize_graph

        vc = ray.data.read_parquet(os.path.join(self.out_dir, "value_change"))
        self.attempted += 1
        with self.tracer.span("pipelines.kg.materialize_graph"), \
                self._timed(rec, "graph"):
            graph = materialize_graph(vc).materialize()
            graph.count()
        t = pa.concat_tables(ray.get(graph.to_arrow_refs()))
        triples = list(zip(t.column("subj").to_pylist(),
                           t.column("pred").to_pylist(),
                           t.column("value_id").to_pylist()))
        p, r = _pr(triples, self.truth_triples)
        rec["graph_precision"], rec["graph_recall"] = p, r
        if traced:
            rec["graph_ops"] = layers.shuffle_layers(graph, "local_last",
                                                     "replay_bucket")
        if p < 1.0 or r < 1.0:
            self.failed += 1
            raise CheckFailed(f"graph: P={p} R={r}")

    def _dedup(self, traced: bool, rec: dict):
        import pyarrow as pa
        import ray
        import ray.data

        from perfbench import layers, workloads
        from wikidata_edit_history_ray.pipelines.kg import dedup_changes

        vc_dir = os.path.join(self.out_dir, "value_change")
        files = sorted(os.path.join(vc_dir, f) for f in os.listdir(vc_dir))
        # a partial re-run: every other partition's rows appear twice
        ds = ray.data.read_parquet(files + files[::2])
        self.attempted += 1
        with self.tracer.span("pipelines.kg.dedup_changes"), \
                self._timed(rec, "dedup"):
            deduped = dedup_changes(ds, workloads.DEDUP_PK).materialize()
            n = deduped.count()
        if traced:
            rec["dedup_ops"] = layers.shuffle_layers(
                deduped, "drop_local_dupes", "dedup_bucket")
        t = pa.concat_tables(ray.get(deduped.to_arrow_refs()))
        pk = list(zip(*(t.column(c).to_pylist() for c in workloads.DEDUP_PK)))
        if n != len(pk) or len(set(pk)) != n or set(pk) != self.vc_pk:
            self.failed += 1
            raise CheckFailed(f"dedup: {n} rows out, {len(set(pk))} distinct "
                              f"keys, {len(self.vc_pk)} expected")

    def iteration(self, i: int, traced: bool) -> dict:
        rec = {"index": i, "traced": traced}
        t0 = time.perf_counter()
        with self.tracer.span("iteration", index=i, traced=traced):
            self._extract(str(i), traced, rec)
            self._resume(rec)
            self._graph(traced, rec)
            self._dedup(traced, rec)
        rec["wall_s"] = time.perf_counter() - t0
        self.iterations.append(rec)
        return rec

    def measure(self):
        """Iterate until the window is used up: at least MIN_ITERATIONS, and
        in a traced run, which alternates traced and untraced iterations, at
        least two of each."""
        need = 4 if self.args.trace else MIN_ITERATIONS
        t_start = time.perf_counter()
        i = 0
        while True:
            rec = self.iteration(i, traced=bool(self.args.trace)
                                 and i % 2 == 0)
            i += 1
            elapsed = time.perf_counter() - t_start
            if elapsed > HARD_STOP_S:
                break
            if i >= need and elapsed + rec["wall_s"] > self.args.seconds:
                break

    # ---- reporting ----
    def end_to_end(self, rss_mb: float) -> dict:
        from perfbench import tracing
        from perfbench.layers import median

        its = self.iterations
        meta = self.inputs.meta
        # value_change keys and graph triples, whichever is worse
        prec = min(min(r["vc_precision"], r["graph_precision"]) for r in its)
        rec = min(min(r["vc_recall"], r["graph_recall"]) for r in its)
        # CPU seconds -> normalized CPU seconds
        scale = tracing.REF_NOMINAL_S / self.reference_cpu_s()

        def ncpu(recs, name):
            return scale * median([r[f"{name}_cpu_s"] for r in recs])

        values = {
            "setup_s": ncpu(self.setups, "setup"),
            "docs_per_ncpu_s": meta["docs"] / ncpu(its, "extract"),
            "revisions_per_ncpu_s": meta["text_spans"] / ncpu(its, "extract"),
            "resume_ncpu_s": ncpu(its, "resume"),
            "graph_ncpu_s": ncpu(its, "graph"),
            "dedup_ncpu_s": ncpu(its, "dedup"),
            "triple_precision": prec,
            "triple_recall": rec,
            "out_bytes_per_in_byte": median(
                [r["bytes_written"] / meta["input_bytes"] for r in its]),
            "peak_worker_rss_mb": rss_mb,
        }
        return {k: {"value": v, "unit": E2E_UNITS[k]}
                for k, v in values.items()}

    def reference_cpu_s(self) -> float:
        """Mean of the run's readings of the reference work: the timed
        blocks' CPU seconds add up over the host's fast and slow spells, and
        so do these."""
        refs = [v for r in self.setups + self.iterations
                for k, v in r.items() if k.endswith("_ref_cpu_s")]
        return sum(refs) / len(refs) if refs else 0.0

    def per_layer(self) -> dict:
        from perfbench import layers
        from perfbench.layers import median

        traced = [r for r in self.iterations if r["traced"]]
        its = self.iterations
        values = {
            "setup.wall_s": median([s["setup_s"] for s in self.setups]),
            "setup.ray_init_s": median([s["ray_init_s"] for s in self.setups]),
            "setup.warm_s": median([s["warm_s"] for s in self.setups]),
            "pipelines.kg.run_extraction.wall_s":
                median([r["extract_s"] for r in its]),
            "pipelines.kg.resume.wall_s": median([r["resume_s"] for r in its]),
            "pipelines.kg.materialize_graph.wall_s":
                median([r["graph_s"] for r in its]),
            "pipelines.kg.dedup_changes.wall_s":
                median([r["dedup_s"] for r in its]),
        }
        for key in ("sources.io.list_s", "sources.io.partitions",
                    "core.values.parse_s", "core.values.parse_us_per_revision",
                    "core.differ.diff_s", "core.features.s",
                    "core.differ.self_s", "core.differ.useful_revision_ratio",
                    "stages.extract.convert_s", "stages.extract.write_s",
                    "pipelines.kg.extract_wait_s",
                    "pipelines.kg.extract.parse_diff_share",
                    "pipelines.kg.extract.after_diff_share",
                    "stages.extract.files_written",
                    "stages.extract.bytes_written",
                    "stages.extract.failed_doc_ratio"):
            values[key] = median([r[key] for r in traced])
        values["pipelines.kg.resume_skipped_ratio"] = median(
            [r["pipelines.kg.resume_skipped_ratio"] for r in traced])
        parts = [s for r in traced for s in r["_partition_s"]]
        tail_pct = layers.tail_percentile(len(parts))
        values["stages.extract.partition_s.p50"] = layers.percentile(parts, 50)
        values["stages.extract.partition_s.tail"] = layers.percentile(
            parts, tail_pct)

        def per_iter(fn):
            return median([fn(r["graph_ops"], r["dedup_ops"], r)
                           for r in traced])

        rows_in = self.vc_rows
        values.update({
            "pipelines.kg.local_last.busy_s":
                per_iter(lambda g, d, r: g["local_busy_s"]),
            "pipelines.kg.local_last.collapse_ratio":
                per_iter(lambda g, d, r: g["local_rows"] / max(rows_in, 1)),
            "pipelines.kg.replay.busy_s":
                per_iter(lambda g, d, r: g["bucket_busy_s"]),
            "pipelines.kg.dedup_local.busy_s":
                per_iter(lambda g, d, r: d["local_busy_s"]),
            "pipelines.kg.dedup_bucket.busy_s":
                per_iter(lambda g, d, r: d["bucket_busy_s"]),
            "stages.distributed.shuffle.busy_s":
                per_iter(lambda g, d, r: g["shuffle_busy_s"]
                         + d["shuffle_busy_s"]),
            "stages.distributed.shuffle.wall_s":
                per_iter(lambda g, d, r: g["shuffle_wall_s"]
                         + d["shuffle_wall_s"]),
            "stages.distributed.shuffle.wait_s":
                per_iter(lambda g, d, r: g["shuffle_wall_s"]
                         + d["shuffle_wall_s"] - g["shuffle_busy_s"]
                         - d["shuffle_busy_s"]),
            "stages.distributed.shuffle.rows":
                per_iter(lambda g, d, r: g["shuffle_rows"]
                         + d["shuffle_rows"]),
            "stages.distributed.shuffle.bytes":
                per_iter(lambda g, d, r: g["shuffle_bytes"]
                         + d["shuffle_bytes"]),
            "stages.distributed.shuffle.wall_share":
                per_iter(lambda g, d, r: (g["shuffle_wall_s"]
                                          + d["shuffle_wall_s"])
                         / (r["graph_s"] + r["dedup_s"])),
            "stages.distributed.reduce_skew":
                per_iter(lambda g, d, r: max(g["reduce_skew"],
                                             d["reduce_skew"])),
            "ray.spilled_bytes":
                per_iter(lambda g, d, r: max(g["spilled_bytes"],
                                             d["spilled_bytes"])),
        })
        # traced minus untraced iteration wall
        values["trace.overhead_s"] = (
            median([r["wall_s"] for r in traced])
            - median([r["wall_s"] for r in its if not r["traced"]]))
        return {k: {"value": float(v), "unit": layers.LAYER_MAP[k][0]}
                for k, v in values.items()}, tail_pct

    def run(self, weather) -> dict:
        import ray

        from perfbench import layers, tracing

        os.makedirs(self.work, exist_ok=True)
        report = {"workload": self.args.workload, "seed": self.args.seed,
                  "size": self.args.size, "trace": self.args.trace,
                  "input": dict(self.inputs.meta, gen_s=self.inputs.gen_s,
                                cached=self.inputs.cached)}
        result = {"correct": False, "attempted": 0, "failed": 0,
                  "metrics": {}}
        try:
            self.setup()
            self.measure()
            rss = tracing.peak_worker_rss_mb(self.session_dirs[-1])
            if self.args.trace:
                metrics, tail_pct = self.per_layer()
                report["partition_tail_percentile"] = tail_pct
                report["layer_map"] = layers.LAYER_MAP
                report["self_s"] = self.tracer.self_times()
                report["spans"] = self.tracer.spans
            else:
                metrics = self.end_to_end(rss)
            result["metrics"] = metrics
            result["correct"] = self.failed == 0
        except CheckFailed as e:
            print(f"perfbench: correctness check failed: {e}", file=sys.stderr)
        except Exception:  # noqa: BLE001 - report the failed run, then exit 1
            traceback.print_exc()
            self.failed += 1
        finally:
            if ray.is_initialized():
                ray.shutdown()
            shutil.rmtree(self.work, ignore_errors=True)
            for d in self.session_dirs:
                shutil.rmtree(d, ignore_errors=True)
        result["attempted"] = max(self.attempted, 1)
        result["failed"] = self.failed
        if not result["correct"]:
            result["metrics"] = {}
        report["reference_cpu_s"] = self.reference_cpu_s()
        report.update(setups=self.setups, iterations=[
            {k: v for k, v in r.items() if not k.startswith("_")}
            for r in self.iterations], host=weather.stamp(), result=result)
        name = f"{self.args.workload}-s{self.args.seed}-t{self.args.trace}"
        with open(os.path.join(BENCH_OUT, f"{name}.json"), "w") as f:
            json.dump(report, f, indent=1, default=str)
        print("perfbench host: " + json.dumps(report["host"]), file=sys.stderr)
        return result


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, ROOT)
    try:
        import wikidata_edit_history_ray  # noqa: F401
    except ImportError as e:
        print(f"perfbench: the program is not importable from {ROOT}: {e}",
              file=sys.stderr)
        return 2
    from perfbench import tracing

    ncpus = tracing.nproc()
    weather = tracing.HostWeather(ncpus)
    os.makedirs(BENCH_OUT, exist_ok=True)
    result = Bench(args, ncpus).run(weather)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
