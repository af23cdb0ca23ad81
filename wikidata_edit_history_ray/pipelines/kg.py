"""The KG change-history construction pipeline, Ray-Data-first.

- `run_extraction(input_path, output_dir, ...)` — the one extraction path:
  one streaming pass that diffs each document once and fans out ALL logical
  tables to partitioned Parquet with a per-partition lineage manifest;
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


def run_extraction(input_path: str, output_dir: str,
                   config: DiffConfig | None = None, property_labels=None,
                   sa_types=None, ao_types=None,
                   target_rows_per_partition: int | None = None):
    """Full multi-table extraction with lineage manifest; returns the manifest
    as a small materialized Dataset (one row per partition, in spec order).

    The work units are DETERMINISTIC (file, row-group) partitions of the
    input — never Ray batch boundaries, which vary run to run. The driver
    lists `_manifest/` once: committed partitions are `resumed`, and only the
    missing ones run, as one Ray Data job (none when all are committed), with
    no duplicate part files. The input must be addressable parquet/Lance.

    Raises ValueError when `output_dir` holds partitions this call would not
    produce: committed under another run key (config, aux tables or engine
    changed), or with partition ids not in the input's current spec list
    (input rewritten in place, or another `target_rows_per_partition`).
    """
    import ray
    import ray.data

    from ..stages.extract import (ChangeExtractor, list_partition_specs,
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
        # ray.put the small side tables once so every task reads the same
        # object-store copy, resolved once per worker process
        extractor = ChangeExtractor(
            config=cfg, property_labels=ray.put(labels), sa_types=ray.put(sa),
            ao_types=ray.put(ao), output_dir=output_dir, run_key=key)
        for m in ray.data.from_items(todo).map_batches(
                extractor, batch_format="pyarrow", batch_size=1).take_all():
            rows[m["partition_id"]] = m
    return ray.data.from_arrow(pa.Table.from_pylist(
        [rows[s["partition_id"]] for s in specs], schema=MANIFEST_SCHEMA))


def read_table(output_dir: str, table: str):
    """Dataset of one table `run_extraction` wrote under `output_dir` (one
    of the 12 change tables, or 'errors'). A table no partition wrote —
    zero-row tables get no files — reads as an empty Dataset of its schema."""
    import ray.data
    from pyarrow import fs as pafs

    from ..stages.extract import resolve_filesystem
    from ..stages.schemas import ERRORS_SCHEMA, TABLE_SCHEMAS

    fs, root = resolve_filesystem(output_dir)
    if fs.get_file_info(f"{root}/{table}").type == pafs.FileType.Directory:
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


def _last_per_key(t: pa.Table, key_cols: list) -> pa.Table:
    """The max-revision row of each key; among equal revisions the stable
    sort keeps the last one."""
    t = t.take(pc.sort_indices(t, sort_keys=[
        (c, "ascending") for c in key_cols + ["revision_id"]]))
    if t.num_rows:
        t = t.filter(pa.array(np.append(~adjacent_equal_mask(t, key_cols),
                                        True)))
    return t


def _first_per_key(t: pa.Table, key_cols: list) -> pa.Table:
    """The first row of each key in `t`'s order (stable sort, keep-first)."""
    t = t.take(pc.sort_indices(t, sort_keys=[(c, "ascending")
                                             for c in key_cols]))
    if t.num_rows:
        t = t.filter(pa.array(np.insert(~adjacent_equal_mask(t, key_cols), 0,
                                        True)))
    return t


def _with_salt(t: pa.Table, key_cols: list, buckets: int) -> pa.Table:
    return t.append_column("_salt", pa.array(
        salt_from_columns(t, key_cols, buckets), type=pa.int64()))


def materialize_graph(value_change_ds):
    """Materialize the CURRENT knowledge graph from the change history:
    (subj=entity_id, pred=property_id, obj=value) triples that exist after
    replaying every change in revision order.

    Shape: block-local replay (keep the max-revision row per statement inside
    each block) -> one groupby shuffle on the statement key
    (entity_id, property_id, value_id) -> final per-key replay -> filter
    DELETEd statements. The shuffle moves one row per statement per block,
    not the full history. Hot entities spread across reducers because the
    bucket is a hash of the full key, value_id (statement id) included.
    Arrow end to end: no block carries pandas schema metadata.
    """
    key_cols = ["entity_id", "property_id", "value_id"]
    buckets = default_reduce_buckets()

    def local_last(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.equal(batch.column("change_target"), "")).select(
            key_cols + ["revision_id", "timestamp", "action", "new_value",
                        "new_datatype", "doc_id"])
        return _with_salt(_last_per_key(t, key_cols), key_cols, buckets)

    partial = value_change_ds.map_batches(local_last, batch_format="pyarrow")

    def replay_bucket(group: pa.Table) -> pa.Table:
        # all of a statement's partials land in its bucket: replay per bucket
        # with one vectorized Arrow pass, not one task per statement
        g = _last_per_key(group, key_cols)
        g = g.filter(pc.fill_null(pc.not_equal(g.column("action"), "DELETE"),
                                  True)).drop_columns(["_salt"])
        return g.rename_columns(
            [{"entity_id": "subj", "property_id": "pred",
              "new_value": "obj"}.get(c, c) for c in g.schema.names])

    return partial.groupby("_salt").map_groups(replay_bucket,
                                               batch_format="pyarrow")


def dedup_changes(ds, pk_cols, salt_buckets: int = 0):
    """Exact keep-first dedup on a composite PK — the ON CONFLICT DO NOTHING
    analog (scripts/utils.py:205-212), needed only across partition boundaries
    or after a partial re-run.

    Skew handling (hot entities, north rule): with salt_buckets > 0 the
    groupby key becomes (salt, *pk) where salt = hash(full PK) % buckets.
    Because the salt is a pure function of the full PK, every duplicate of a
    key lands in the same salted group (correctness preserved), while a hot
    entity's millions of rows — which share entity/doc prefix but differ in
    the remaining PK components — spread across `salt_buckets` reducers
    instead of hammering one. A local per-block dedup runs first so the
    shuffle moves each block's distinct keys only.
    """
    buckets = salt_buckets or default_reduce_buckets()

    def drop_local_dupes(batch: pa.Table) -> pa.Table:
        # partial dedup inside each block before any shuffle, then tag each
        # surviving row with its PK-hash bucket — the shuffle key
        return _with_salt(_first_per_key(batch, pk_cols), pk_cols, buckets)

    ds = ds.map_batches(drop_local_dupes, batch_format="pyarrow")

    def dedup_bucket(group: pa.Table) -> pa.Table:
        # one vectorized keep-first per BUCKET (not per PK) — all duplicates
        # of a key share its bucket, so this is exact with ~buckets groups
        # instead of one group per distinct key
        return _first_per_key(group, pk_cols).drop_columns(["_salt"])

    return ds.groupby("_salt").map_groups(dedup_bucket,
                                          batch_format="pyarrow")
