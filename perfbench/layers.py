"""Per-layer metrics, derived from counters the program already emits.

Sources:
- the manifest dataset `run_extraction` returns (`extract_seconds`,
  `write_seconds`, `num_spans`, `rows_per_table`, `resumed`);
- the `entity_stats` table (`total_xml_parse_time_sec`,
  `total_revision_diff_time_sec`, `total_feature_creation_sec`,
  `total_process_time_sec`); feature time is nested inside diff time;
- Ray Data's per-operator `Dataset.stats()` summary of the graph replay and
  the dedup.

LAYER_MAP records, for each per-layer metric, the end-to-end metric it should
move and on which workload; the traced run writes it next to the numbers.
"""
from __future__ import annotations

import json
import os
import statistics

import pyarrow.parquet as pq

_ALL = ("long_tail", "hot_entities")
_LT, _HOT = ("long_tail",), ("hot_entities",)

# name: (unit, better, end-to-end metric it should move, on which workloads)
LAYER_MAP = {
    "setup.wall_s": ("s", "lower", "setup_s", _ALL),
    "setup.ray_init_s": ("s", "lower", "setup_s", _ALL),
    "setup.warm_s": ("s", "lower", "setup_s", _ALL),
    "pipelines.kg.run_extraction.wall_s": ("s", "lower", "docs_per_ncpu_s",
                                           _ALL),
    "pipelines.kg.resume.wall_s": ("s", "lower", "resume_ncpu_s", _ALL),
    "pipelines.kg.materialize_graph.wall_s": ("s", "lower", "graph_ncpu_s",
                                              _ALL),
    "pipelines.kg.dedup_changes.wall_s": ("s", "lower", "dedup_ncpu_s", _ALL),
    "sources.io.list_s": ("s", "lower", "resume_ncpu_s", _LT),
    "sources.io.partitions": ("count", "lower", "resume_ncpu_s", _LT),
    "pipelines.kg.resume_skipped_ratio": ("ratio", "higher", "resume_ncpu_s",
                                          _LT),
    "core.values.parse_s": ("s", "lower", "revisions_per_ncpu_s", _HOT),
    "core.values.parse_us_per_revision": ("us", "lower",
                                          "revisions_per_ncpu_s", _HOT),
    "core.differ.diff_s": ("s", "lower", "revisions_per_ncpu_s", _HOT),
    "core.features.s": ("s", "lower", "revisions_per_ncpu_s", _HOT),
    "pipelines.kg.extract.parse_diff_share": ("ratio", "lower",
                                              "revisions_per_ncpu_s", _HOT),
    "core.differ.self_s": ("s", "lower", "docs_per_ncpu_s", _LT),
    "core.differ.useful_revision_ratio": ("ratio", "higher", "docs_per_ncpu_s",
                                          _LT),
    "stages.extract.convert_s": ("s", "lower", "docs_per_ncpu_s", _LT),
    "stages.extract.write_s": ("s", "lower", "docs_per_ncpu_s", _LT),
    "stages.extract.partition_s.p50": ("s", "lower", "docs_per_ncpu_s", _LT),
    "stages.extract.partition_s.tail": ("s", "lower", "docs_per_ncpu_s", _LT),
    "pipelines.kg.extract_wait_s": ("s", "lower", "docs_per_ncpu_s", _LT),
    "pipelines.kg.extract.after_diff_share": ("ratio", "lower",
                                              "docs_per_ncpu_s", _LT),
    "stages.extract.files_written": ("count", "lower",
                                     "out_bytes_per_in_byte", _ALL),
    "stages.extract.bytes_written": ("bytes", "lower",
                                     "out_bytes_per_in_byte", _ALL),
    "stages.extract.failed_doc_ratio": ("ratio", "lower", "triple_recall",
                                        _ALL),
    "pipelines.kg.local_last.busy_s": ("s", "lower", "graph_ncpu_s", _ALL),
    "pipelines.kg.local_last.collapse_ratio": ("ratio", "lower",
                                               "graph_ncpu_s", _HOT),
    "pipelines.kg.replay.busy_s": ("s", "lower", "graph_ncpu_s", _ALL),
    "pipelines.kg.dedup_local.busy_s": ("s", "lower", "dedup_ncpu_s", _ALL),
    "pipelines.kg.dedup_bucket.busy_s": ("s", "lower", "dedup_ncpu_s", _ALL),
    "stages.distributed.shuffle.busy_s": ("s", "lower", "graph_ncpu_s", _ALL),
    "stages.distributed.shuffle.wall_s": ("s", "lower", "graph_ncpu_s", _ALL),
    "stages.distributed.shuffle.wait_s": ("s", "lower", "graph_ncpu_s", _ALL),
    "stages.distributed.shuffle.wall_share": ("ratio", "lower", "graph_ncpu_s",
                                              _HOT),
    "stages.distributed.shuffle.rows": ("count", "lower", "dedup_ncpu_s",
                                        _ALL),
    "stages.distributed.shuffle.bytes": ("bytes", "lower", "dedup_ncpu_s",
                                         _ALL),
    "stages.distributed.reduce_skew": ("ratio", "lower", "graph_ncpu_s", _ALL),
    "ray.spilled_bytes": ("bytes", "lower", "dedup_ncpu_s", _ALL),
    "trace.overhead_s": ("s", "lower", None, _ALL),
}


def dir_files(root: str, skip=("_run_manifest",)) -> dict:
    """{relative path: size} of every file under root, minus `skip` dirs."""
    out = {}
    for dirpath, dirnames, filenames in os.walk(root):
        if os.path.relpath(dirpath, root) == ".":
            dirnames[:] = [d for d in dirnames if d not in skip]
        for name in filenames:
            p = os.path.join(dirpath, name)
            out[os.path.relpath(p, root)] = os.path.getsize(p)
    return out


def tail_percentile(n: int) -> float:
    """Highest percentile with at least ten samples beyond it, floored at the
    median."""
    return max(50.0, 100.0 * (1.0 - 10.0 / n)) if n else 50.0


def percentile(values: list, pct: float) -> float:
    values = sorted(values)
    if not values:
        return 0.0
    k = (len(values) - 1) * pct / 100.0
    lo = int(k)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (k - lo)


def extraction_layers(manifest_rows: list, out_dir: str, wall_s: float,
                      text_spans: int, docs: int) -> dict:
    """Per-layer numbers of one fresh `run_extraction` pass."""
    es = pq.read_table(os.path.join(out_dir, "entity_stats"), columns=[
        "total_xml_parse_time_sec", "total_revision_diff_time_sec",
        "total_feature_creation_sec", "total_process_time_sec",
        "num_revisions"]).to_pydict()
    parse = sum(es["total_xml_parse_time_sec"])
    diff_total = sum(es["total_revision_diff_time_sec"])
    feats = sum(es["total_feature_creation_sec"])
    process = sum(es["total_process_time_sec"])
    extract = sum(m["extract_seconds"] for m in manifest_rows)
    write = sum(m["write_seconds"] for m in manifest_rows)
    errors = sum(json.loads(m["rows_per_table"]).get("errors", 0)
                 for m in manifest_rows)
    files = dir_files(out_dir, skip=())
    differ_self = process - parse - diff_total
    convert = extract - process
    wait = wall_s - extract - write
    return {
        "core.values.parse_s": parse,
        "core.values.parse_us_per_revision": 1e6 * parse / max(text_spans, 1),
        "core.differ.diff_s": diff_total - feats,
        "core.features.s": feats,
        "core.differ.self_s": differ_self,
        "core.differ.useful_revision_ratio":
            sum(es["num_revisions"]) / max(text_spans, 1),
        "stages.extract.convert_s": convert,
        "stages.extract.write_s": write,
        "pipelines.kg.extract_wait_s": wait,
        "pipelines.kg.extract.parse_diff_share": (parse + diff_total) / wall_s,
        "pipelines.kg.extract.after_diff_share":
            (differ_self + convert + write + wait) / wall_s,
        "stages.extract.files_written": float(len(files)),
        "stages.extract.bytes_written": float(sum(files.values())),
        "stages.extract.failed_doc_ratio": errors / max(docs, 1),
        "_partition_s": [m["extract_seconds"] + m["write_seconds"]
                         for m in manifest_rows],
    }


def _walk(summary):
    yield summary
    for p in summary.parents or ():
        yield from _walk(p)


def _sum(d: dict, key: str = "sum") -> float:
    return float((d or {}).get(key) or 0.0)


def shuffle_layers(materialized, local_op: str, bucket_op: str) -> dict:
    """Operator numbers of one materialized graph-replay or dedup dataset:
    the block-local map, the sort-based groupby shuffle, the per-bucket
    reducer."""
    summary = materialized._plan.stats().to_summary()
    out = {"local_busy_s": 0.0, "local_rows": 0.0, "bucket_busy_s": 0.0,
           "shuffle_busy_s": 0.0, "shuffle_wall_s": 0.0, "shuffle_rows": 0.0,
           "shuffle_bytes": 0.0, "reduce_skew": 0.0,
           "spilled_bytes": float(summary.global_bytes_spilled or 0.0)}
    for stage in _walk(summary):
        subs = [op for op in stage.operators_stats if op.is_sub_operator]
        if subs:
            out["shuffle_wall_s"] += float(stage.time_total_s or 0.0)
        for op in stage.operators_stats:
            busy = _sum(op.wall_time)
            if op.operator_name.endswith(f"MapBatches({local_op})"):
                out["local_busy_s"] += busy
                out["local_rows"] += _sum(op.output_num_rows)
            elif op.operator_name == f"MapBatches({bucket_op})":
                out["bucket_busy_s"] += busy
            elif op.is_sub_operator:
                out["shuffle_busy_s"] += busy
                if op.operator_name.endswith("Map"):
                    out["shuffle_rows"] += _sum(op.output_num_rows)
                    out["shuffle_bytes"] += _sum(op.output_size_bytes)
                else:
                    mean = _sum(op.output_num_rows, "mean")
                    if mean:
                        out["reduce_skew"] = max(
                            out["reduce_skew"],
                            _sum(op.output_num_rows, "max") / mean)
    return out


def median(values: list) -> float:
    return float(statistics.median(values)) if values else 0.0
