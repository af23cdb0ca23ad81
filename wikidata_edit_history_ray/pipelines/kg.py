"""The KG change-history construction pipeline, Ray-Data-first.

- `run_extraction(input_path, output_dir, ...)` — the one extraction path:
  one Ray task per input partition diffs each document once and fans out ALL
  logical tables to partitioned Parquet with a per-partition lineage manifest;
  restartable (the driver skips partitions whose manifest is committed under
  the same run key). This replaces the reference's db_writer process +
  processed-files claim protocol (scripts/db_writer.py, main.py:62-131).
- `read_table(output_dir, table)` — a Dataset of one table it wrote.
- `run_enrichment`, `materialize_graph`, `dedup_changes` — passes over those
  tables.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..core.differ import DiffConfig
from ..stages.distributed import (adjacent_equal_mask, default_reduce_buckets,
                                  salt_from_columns)
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


def _tag(t: pa.Table, key_cols: list, buckets: int) -> pa.Table:
    """A block-local partial, ready for `_reduce_by_key`: a null `_seed`
    (a real row) and, above one bucket, the key's `_salt`."""
    t = t.append_column("_seed", pa.nulls(t.num_rows, pa.bool_()))
    if buckets > 1:
        t = t.append_column("_salt", pa.array(
            salt_from_columns(t, key_cols, buckets), type=pa.int64()))
    return t


def _untag(block: pa.Table) -> pa.Table:
    """The real rows of one bucket, without the `_tag` columns."""
    block = block.filter(pc.is_null(block.column("_seed")))
    return block.drop_columns(
        [c for c in ("_seed", "_salt") if c in block.schema.names])


def _reduce_by_key(partial, schema: pa.Schema, reducer, buckets: int):
    """Run `reducer` once per bucket of `_tag`ged partials of `schema`, over
    a block holding every partial row of the bucket's keys.

    At one bucket the partials coalesce into one block: no shuffle. Above
    it, a sort on `_salt` with one partition per salt value makes each block
    one bucket (`groupby().map_groups` samples its sort boundaries instead,
    so some of its partitions hold no salt at all). Ray Data skips a map UDF on a zero-row block and passes that
    block on untyped or with its input's columns, so one seed row per bucket
    (`_seed` true, null elsewhere) is added: every bucket is non-empty, the
    reducer runs on each, and every output block, empty input included,
    carries the reducer's schema."""
    import ray.data

    seeds = pa.Table.from_arrays(
        [pa.nulls(buckets, f.type) for f in schema]
        + [pa.array([True] * buckets)], names=schema.names + ["_seed"])
    if buckets > 1:
        seeds = seeds.append_column(
            "_salt", pa.array(range(buckets), type=pa.int64()))
    ds = partial.union(ray.data.from_arrow(seeds))
    if buckets == 1:
        ds = ds.repartition(1)
    else:
        ds = ds.sort("_salt", boundaries=list(range(1, buckets)))
    return ds.map_batches(reducer, batch_format="pyarrow", batch_size=None)


def materialize_graph(value_change_ds):
    """Materialize the CURRENT knowledge graph from the change history:
    (subj=entity_id, pred=property_id, obj=value) triples that exist after
    replaying every change in revision order, typed by `GRAPH_SCHEMA`.

    Shape: block-local replay (keep the max-revision row per statement inside
    each block) -> every partial of a statement into one reducer block ->
    final per-key replay -> filter DELETEd statements. The reducer count is
    `default_reduce_buckets()`, one per CPU. At one bucket the partials
    coalesce into one block and the replay runs once, with no shuffle and no
    salt. Above it, a sort on a salt (a hash of the full statement key,
    value_id included, so hot entities spread across reducers) gives one
    block per bucket. Either way one row per statement per block moves, not
    the full history. Every output block carries `GRAPH_SCHEMA`, also for
    an empty history.
    """
    buckets = default_reduce_buckets()

    def local_last(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.equal(batch.column("change_target"), "")).select(
            _REPLAY_SCHEMA.names)
        return _tag(_last_per_key(t, _GRAPH_KEY), _GRAPH_KEY, buckets)

    def replay_bucket(block: pa.Table) -> pa.Table:
        # all of a statement's partials land in its bucket: replay per bucket
        # with one vectorized Arrow pass, not one task per statement
        g = _last_per_key(_untag(block), _GRAPH_KEY)
        g = g.filter(pc.fill_null(pc.not_equal(g.column("action"), "DELETE"),
                                  True))
        return g.rename_columns(GRAPH_SCHEMA.names)

    partial = value_change_ds.map_batches(local_last, batch_format="pyarrow")
    return _reduce_by_key(partial, _REPLAY_SCHEMA, replay_bucket, buckets)


def dedup_changes(ds, pk_cols):
    """Exact dedup on a composite PK — the ON CONFLICT DO NOTHING analog
    (scripts/utils.py:205-212), needed only across partition boundaries or
    after a partial re-run.

    The row kept for a key is a pure function of the key's rows: the least
    of them in the order of (pk_cols, then every other column in schema
    order). So it does not depend on partitioning, block boundaries or the
    bucket count; identical duplicates, as a re-run produces, are one row.

    Shape: a block-local dedup first, so only each block's distinct keys
    move, then one dedup per bucket of
    `default_reduce_buckets()` (one per CPU). At one bucket the local
    survivors coalesce into one block, with no shuffle and no salt. Above
    it, the bucket is a salt = hash(full PK) % buckets: every duplicate of a
    key shares it, while a hot entity's rows — same entity/doc prefix, other
    PK components — spread across all reducers. Every output block carries
    `ds`'s schema, also for an empty `ds`.
    """
    buckets = default_reduce_buckets()
    schema = ds.schema().base_schema
    order = pk_cols + [c for c in schema.names if c not in pk_cols]

    def drop_local_dupes(batch: pa.Table) -> pa.Table:
        return _tag(_first_per_key(batch, pk_cols, order), pk_cols, buckets)

    def dedup_bucket(block: pa.Table) -> pa.Table:
        # one vectorized keep-least per BUCKET (not per PK): all duplicates
        # of a key share its bucket
        return _first_per_key(_untag(block), pk_cols, order)

    return _reduce_by_key(
        ds.map_batches(drop_local_dupes, batch_format="pyarrow"), schema,
        dedup_bucket, buckets)
