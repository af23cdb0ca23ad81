"""The KG change-history construction pipeline, on plain Ray tasks.

- `run_extraction(input_path, output_dir, ...)` — the one extraction path:
  one Ray task per input partition diffs each document once and fans out ALL
  logical tables to partitioned Parquet with a per-partition lineage manifest;
  restartable (the driver skips partitions whose manifest is committed under
  the same run key). This replaces the reference's db_writer process +
  processed-files claim protocol (scripts/db_writer.py, main.py:62-131).
- `read_table(output_dir, table)` — a Dataset of one table it wrote.
- `materialize_graph`, `dedup_changes` — keyed reductions of a change table:
  one Ray Data map over its blocks, then one Ray task per bucket of the
  partials, with the bucket count taken from the partials' bytes.
- `run_enrichment` — the second pass over the feature tables, on Ray Data
  actor pools.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..core.differ import DiffConfig
from ..stages.distributed import adjacent_equal_mask, salt_from_columns
from ..stages.schemas import TABLE_SCHEMAS


def run_extraction(input_path: str, output_dir: str,
                   config: DiffConfig | None = None, property_labels=None,
                   sa_types=None, ao_types=None,
                   target_rows_per_partition: int | None = None):
    """Full multi-table extraction with lineage manifest; returns the manifest
    as a small materialized Dataset (one row per partition, in spec order).

    The work units are DETERMINISTIC partitions of the input, runs of
    consecutive row groups of one file sized by `list_partition_specs`
    (~32 MiB of uncompressed input by default, or
    `target_rows_per_partition` rows) — never Ray batch boundaries, which
    vary run to run. The driver lists `_manifest/` once: committed
    partitions are `resumed`, and only the missing ones run, each as one
    Ray task (`stages.extract.extract_partition`; none when all are
    committed), with no duplicate part files. The input must be addressable
    parquet/Lance. When a task fails, the call raises only after every
    other task has finished: the healthy partitions are committed and
    nothing is left running.

    Raises ValueError when `output_dir` holds partitions this call would not
    produce: committed under another run key (config, aux tables or engine
    changed), or with partition ids not in the input's current spec list
    (input rewritten in place, or another `target_rows_per_partition`).
    """
    import ray
    import ray.data

    from ..stages.extract import (extract_partition, list_partition_specs,
                                  read_manifests, resolve_filesystem, run_key)
    from ..stages.schemas import MANIFEST_SCHEMA

    cfg = (config or DiffConfig()).to_dict()
    labels = property_labels or {}
    sa, ao = sorted(sa_types or ()), sorted(ao_types or ())
    key = run_key(cfg, labels, sa, ao)
    out_fs, out_root = resolve_filesystem(output_dir)
    out_fs.create_dir(out_root, recursive=True)
    specs = list_partition_specs(
        input_path, target_rows_per_partition=target_rows_per_partition)
    done = read_manifests(output_dir)
    foreign = sorted(set(done) - {s["partition_id"] for s in specs})
    if foreign:
        raise ValueError(
            f"{output_dir} holds partitions {foreign[:3]} that are not "
            f"partitions of {input_path}: the input was rewritten or "
            f"repartitioned; extract into a new output dir")
    stale = sorted(p for p, m in done.items() if m.get("run_key") != key)
    if stale:
        raise ValueError(
            f"{output_dir} holds partitions {stale[:3]} extracted under "
            f"another config, aux tables or engine; extract into a new "
            f"output dir")
    rows = {p: {**m, "resumed": True} for p, m in done.items()}
    todo = [s for s in specs if s["partition_id"] not in done]
    if todo:
        # ray.put the small side tables once; Ray resolves them in each task
        aux = [ray.put(labels), ray.put(sa), ray.put(ao)]
        task = ray.remote(num_cpus=1)(extract_partition)
        refs = [task.remote(spec, cfg, *aux, output_dir, key) for spec in todo]
        # wait for every task before ray.get raises on a failed one
        ray.wait(refs, num_returns=len(refs))
        for m in ray.get(refs):
            rows[m["partition_id"]] = m
    # from_blocks wraps the table as the Dataset's one block; from_arrow
    # would run a remote metadata task, the only Ray work of a resumed call
    # (from_blocks is a DeveloperAPI)
    return ray.data.from_blocks([pa.Table.from_pylist(
        [rows[s["partition_id"]] for s in specs], schema=MANIFEST_SCHEMA)])


def read_table(output_dir: str, table: str):
    """Dataset of one table `run_extraction` wrote under `output_dir` (one
    of the 12 change tables, or 'errors'). A table with no part file —
    zero-row tables get none, and a rerun removes the ones it no longer
    writes — reads as an empty Dataset of its schema."""
    import ray.data
    from pyarrow import fs as pafs

    from ..stages.extract import resolve_filesystem
    from ..stages.schemas import ERRORS_SCHEMA, TABLE_SCHEMAS

    fs, root = resolve_filesystem(output_dir)
    files = fs.get_file_info(
        pafs.FileSelector(f"{root}/{table}", allow_not_found=True))
    if any(f.base_name.endswith(".parquet") for f in files):
        return ray.data.read_parquet(f"{output_dir.rstrip('/')}/{table}")
    schema = ERRORS_SCHEMA if table == "errors" else TABLE_SCHEMAS[table]
    return ray.data.from_arrow(schema.empty_table())


def run_enrichment(output_dir: str, closure_dir: str | None = None,
                   entity_labels=None, labels_dir: str | None = None,
                   embedder=None, num_gpus=None, concurrency=None):
    """Second pass (the compute_remaining_features analog,
    scripts/compute_remaining_features.py + feature_creation.py:1207-1466):
    stream the features_entity / features_text parquet written by
    run_extraction through the enrichment actor pools and write the enriched
    tables back next to the originals. Resumable at the directory level: if
    the enriched dir already has files, the pass skips.

    Label dimension: `entity_labels` (broadcast dict, fits-in-worker case) or
    `labels_dir` (hash-partitioned parquet from partition_entity_labels, for
    dimensions beyond broadcast size). `embedder` is a make_embedder spec —
    'st:all-MiniLM-L6-v2' + num_gpus=1 reproduces the reference's GPU model.
    """
    import ray.data
    from pyarrow import fs as pafs

    from ..stages.enrich import (enrich_entity_features,
                                 enrich_entity_features_partitioned,
                                 enrich_text_features)
    from ..stages.extract import resolve_filesystem

    fs, root = resolve_filesystem(output_dir)
    base = output_dir.rstrip("/")

    def is_dir(name):
        return fs.get_file_info(f"{root}/{name}").type == pafs.FileType.Directory

    def is_empty(name):
        if not is_dir(name):
            return True
        return not fs.get_file_info(pafs.FileSelector(f"{root}/{name}"))

    results = {}
    if is_dir("features_entity"):
        out_dir = f"{base}/features_entity_enriched"
        if is_empty("features_entity_enriched"):
            ds = ray.data.read_parquet(f"{base}/features_entity")
            if labels_dir:
                enriched = enrich_entity_features_partitioned(
                    ds, labels_dir, closure_dir=closure_dir,
                    embedder=embedder, concurrency=concurrency)
            else:
                enriched = enrich_entity_features(
                    ds, closure_dir=closure_dir, entity_labels=entity_labels,
                    embedder=embedder, num_gpus=num_gpus,
                    concurrency=concurrency)
            enriched.write_parquet(out_dir)
        results["features_entity_enriched"] = out_dir
    if is_dir("features_text"):
        out_dir = f"{base}/features_text_enriched"
        if is_empty("features_text_enriched"):
            ds = ray.data.read_parquet(f"{base}/features_text")
            enrich_text_features(ds, embedder=embedder, num_gpus=num_gpus,
                                 concurrency=concurrency).write_parquet(out_dir)
        results["features_text_enriched"] = out_dir
    return results


_GRAPH_KEY = ["entity_id", "property_id", "value_id"]
# the replay's columns of value_change, in its types
_REPLAY_SCHEMA = pa.schema([
    TABLE_SCHEMAS["value_change"].field(c) for c in _GRAPH_KEY + [
        "revision_id", "timestamp", "action", "new_value", "new_datatype",
        "doc_id"]])
# materialize_graph's output: the same columns, the triple ones renamed
GRAPH_SCHEMA = pa.schema([
    f.with_name({"entity_id": "subj", "property_id": "pred",
                 "new_value": "obj"}.get(f.name, f.name))
    for f in _REPLAY_SCHEMA])


def _last_per_key(t: pa.Table, key_cols: list) -> pa.Table:
    """The max-revision row of each key; among equal revisions the stable
    sort keeps the last one."""
    t = t.take(pc.sort_indices(t, sort_keys=[
        (c, "ascending") for c in key_cols + ["revision_id"]]))
    if t.num_rows:
        t = t.filter(pa.array(np.append(~adjacent_equal_mask(t, key_cols),
                                        True)))
    return t


def _first_per_key(t: pa.Table, key_cols: list, order: list) -> pa.Table:
    """The first row of each key once `t` is sorted on `order` (the key
    columns first), so the row kept depends on the rows, not on `t`'s order
    when `order` names every column."""
    t = t.take(pc.sort_indices(t, sort_keys=[(c, "ascending")
                                             for c in order]))
    if t.num_rows:
        t = t.filter(pa.array(np.insert(~adjacent_equal_mask(t, key_cols), 0,
                                        True)))
    return t


def _split_by_salt(part: pa.Table, key_cols: list, buckets: int):
    """`part`'s rows cut into `buckets` tables by the salt of `key_cols`,
    each in `part`'s row order. An empty `part` may lack the key columns
    (see `_reduce_bucket`): it is every bucket's empty cut."""
    if not part.num_rows:
        return (part,) * buckets
    salt = salt_from_columns(part, key_cols, buckets)
    part = part.take(pa.array(np.argsort(salt, kind="stable")))
    ends = np.cumsum(np.bincount(salt, minlength=buckets))
    return tuple(part.slice(start, end - start)
                 for start, end in zip(np.append(0, ends[:-1]), ends))


def _reduce_bucket(schema: pa.Schema, reducer, *parts: pa.Table) -> pa.Table:
    """`reducer` over one bucket: its non-empty partials, cut to `schema`'s
    columns, concatenated. An empty partial may lack `schema`'s columns (Ray
    Data skips a map on an empty block and passes the block on), and a
    bucket with no rows at all reduces `schema`'s empty table, so its output
    is typed."""
    parts = [p.select(schema.names) for p in parts if p.num_rows]
    return reducer(pa.concat_tables(parts) if parts else schema.empty_table())


def _reduce_by_key(partial, schema: pa.Schema, key_cols: list, reducer):
    """Run `reducer` once per bucket of the block-local partials `partial`
    (a lazy Dataset of `schema`'s columns), over every partial row of the
    bucket's keys, as plain Ray tasks; a Dataset of one block per bucket.

    Materializing `partial` is the call's only Ray Data execution. The
    bucket count B is one per `TARGET_PARTITION_BYTES` of partial bytes,
    the unit of work of an extraction partition, so the output's blocks and
    row order follow from the input, not from the cluster's CPUs. At one
    bucket a single task reduces every partial. Above it, one task per
    partial cuts it into B buckets by `salt_from_columns` (a key's rows share
    a bucket, a hot entity's statements spread across them), and B tasks
    reduce. The call waits for every reduce task, so it returns, or raises
    on a failed task, with no task of its own still running."""
    import ray
    import ray.data

    from ..stages.extract import TARGET_PARTITION_BYTES

    partial = partial.materialize()
    refs = partial.to_arrow_refs()
    buckets = max(1, -(-(partial.size_bytes() or 0) // TARGET_PARTITION_BYTES))
    reduce = ray.remote(num_cpus=1)(_reduce_bucket)
    if buckets == 1:
        outs = [reduce.remote(schema, reducer, *refs)]
    else:
        split = ray.remote(num_cpus=1, num_returns=buckets)(_split_by_salt)
        cuts = [split.remote(ref, key_cols, buckets) for ref in refs]
        outs = [reduce.remote(schema, reducer, *(c[b] for c in cuts))
                for b in range(buckets)]
    ray.wait(outs, num_returns=len(outs))
    return ray.data.from_arrow_refs(outs)


def materialize_graph(value_change_ds):
    """Materialize the CURRENT knowledge graph from the change history:
    (subj=entity_id, pred=property_id, obj=value) triples that exist after
    replaying every change in revision order, typed by `GRAPH_SCHEMA`.

    Shape: block-local replay (keep the max-revision row per statement inside
    each block, one Ray Data map) -> every partial of a statement into one
    bucket -> final per-key replay -> filter DELETEd statements. The buckets
    are plain Ray tasks (`_reduce_by_key`): one bucket per 32 MiB of partial
    bytes, bucketed by a salt over the full statement key, value_id
    included, so hot entities spread across buckets. One row per statement
    per block moves, not the full history. Every output block carries
    `GRAPH_SCHEMA`, also for an empty history.

    Runs eagerly: the call returns once every bucket is reduced, as a
    materialized Dataset of one block per bucket.
    """
    def local_last(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.equal(batch.column("change_target"), "")).select(
            _REPLAY_SCHEMA.names)
        return _last_per_key(t, _GRAPH_KEY)

    def replay_bucket(block: pa.Table) -> pa.Table:
        # all of a statement's partials land in its bucket: replay per bucket
        # with one vectorized Arrow pass, not one task per statement
        g = _last_per_key(block, _GRAPH_KEY)
        g = g.filter(pc.fill_null(pc.not_equal(g.column("action"), "DELETE"),
                                  True))
        return g.rename_columns(GRAPH_SCHEMA.names)

    partial = value_change_ds.map_batches(local_last, batch_format="pyarrow")
    return _reduce_by_key(partial, _REPLAY_SCHEMA, _GRAPH_KEY, replay_bucket)


def dedup_changes(ds, pk_cols):
    """Exact dedup on a composite PK — the ON CONFLICT DO NOTHING analog
    (scripts/utils.py:205-212), needed only across partition boundaries or
    after a partial re-run.

    The row kept for a key is a pure function of the key's rows: the least
    of them in the order of (pk_cols, then every other column in schema
    order). So it does not depend on partitioning, block boundaries or the
    bucket count; identical duplicates, as a re-run produces, are one row.

    Shape: a block-local dedup first (one Ray Data map), so only each
    block's distinct keys move, then one dedup per bucket as plain Ray
    tasks (`_reduce_by_key`): one bucket per 32 MiB of local survivors,
    bucketed by a salt = hash(full PK) % buckets. Every duplicate of a key
    shares it, while a hot entity's rows — same entity/doc prefix, other PK
    components — spread across the buckets. Every output block carries
    `ds`'s schema, also for an empty `ds`.

    Runs eagerly: the call returns once every bucket is deduplicated, as a
    materialized Dataset of one block per bucket.
    """
    schema = ds.schema().base_schema
    order = pk_cols + [c for c in schema.names if c not in pk_cols]

    def keep_least(t: pa.Table) -> pa.Table:
        # per block, then per bucket: all duplicates of a key share its bucket
        return _first_per_key(t, pk_cols, order)

    return _reduce_by_key(ds.map_batches(keep_least, batch_format="pyarrow"),
                          schema, pk_cols, keep_least)
