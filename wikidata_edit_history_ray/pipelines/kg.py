"""The KG change-history construction pipeline, Ray-Data-first.

Two consumption shapes:
- `extract_table(ds, table, ...)` — lazy Dataset of ONE logical change table
  (used by queries / tests / downstream aggregates).
- `run_extraction(input_path, output_dir, ...)` — one streaming pass that fans
  out ALL logical tables to partitioned Parquet with a per-partition lineage
  manifest; restartable (completed partitions are skipped via their manifest
  files). This replaces the reference's db_writer process + processed-files
  claim protocol (scripts/db_writer.py, main.py:62-131).
"""
from __future__ import annotations

from ..core.differ import DiffConfig
from ..stages.extract import ChangeExtractor, MultiSinkExtractor


def _broadcast_aux(property_labels, sa_types, ao_types):
    """ray.put the small side tables once so every task reads the same
    object-store copy, resolved once per worker process."""
    import ray

    return (
        ray.put(property_labels or {}),
        ray.put(sorted(sa_types or ())),
        ray.put(sorted(ao_types or ())),
    )


def extract_table(ds, table: str = "value_change", config: DiffConfig | None = None,
                  property_labels=None, sa_types=None, ao_types=None):
    """documents Dataset -> Dataset of one logical change table.

    One task call per input block: block count (OVERRIDE at read time to ~2x
    the core count) is the parallelism knob; per-batch slicing only adds
    overhead here because rows are whole documents. The extractor instance
    pickles into each task and tasks land on Ray's prestarted workers
    immediately (no actor-pool ramp-up latency).
    """
    pl_ref, sa_ref, ao_ref = _broadcast_aux(property_labels, sa_types, ao_types)
    extractor = ChangeExtractor(
        config=(config or DiffConfig()).to_dict(), property_labels=pl_ref,
        sa_types=sa_ref, ao_types=ao_ref, emit=table)
    return ds.map_batches(extractor, batch_format="pyarrow", batch_size=None,
                          zero_copy_batch=True)


def run_extraction(input_path: str, output_dir: str,
                   config: DiffConfig | None = None, property_labels=None,
                   sa_types=None, ao_types=None,
                   target_rows_per_partition: int | None = None):
    """Full multi-table extraction with lineage manifest; returns the manifest
    as a small materialized Dataset (one row per partition).

    The work units are DETERMINISTIC (file, row-group) partitions of the
    input — never Ray batch boundaries, which vary run to run — so a re-run
    with the same input + output_dir skips exactly the partitions whose
    manifest files exist and recomputes only the missing ones, with no
    duplicate part files. The input must be addressable parquet/Lance.
    """
    import ray.data

    from ..stages.extract import list_partition_specs, resolve_filesystem

    out_fs, out_root = resolve_filesystem(output_dir)
    out_fs.create_dir(out_root, recursive=True)
    specs = list_partition_specs(
        input_path, target_rows_per_partition=target_rows_per_partition)
    pl_ref, sa_ref, ao_ref = _broadcast_aux(property_labels, sa_types, ao_types)
    sink = MultiSinkExtractor(
        output_dir=output_dir, config=(config or DiffConfig()).to_dict(),
        property_labels=pl_ref, sa_types=sa_ref, ao_types=ao_ref)
    mat = ray.data.from_items(specs).map_batches(
        sink, batch_format="pyarrow", batch_size=1).materialize()
    # persist the run-level manifest next to the outputs (throughput accounting,
    # the analog of the reference's per-file metrics CSV, scripts/file_parser.py:393-417)
    mat.write_parquet(f"{output_dir.rstrip('/')}/_run_manifest")
    return mat


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
    """
    import numpy as np
    import pyarrow as pa

    from ..stages.distributed import default_reduce_buckets, salt_from_columns

    key_cols = ["entity_id", "property_id", "value_id"]
    buckets = default_reduce_buckets()

    def local_last(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df = df[df["change_target"] == ""]
        if not df.empty:
            df = df.sort_values("revision_id").groupby(key_cols, as_index=False).tail(1)
        df = df[key_cols + ["revision_id", "timestamp", "action", "new_value",
                            "new_datatype", "doc_id"]]
        salts = salt_from_columns(df, key_cols, buckets) if len(df) \
            else np.array([], dtype=np.int64)
        return pa.Table.from_pandas(df, preserve_index=False).append_column(
            "_salt", pa.array(salts, type=pa.int64()))

    partial = value_change_ds.map_batches(local_last, batch_format="pyarrow")

    def replay_bucket(group: pa.Table) -> pa.Table:
        # all of a statement's partials land in its bucket: replay per bucket
        # with one vectorized Arrow pass, not one task per statement — sort
        # by (key, revision) and keep each key run's LAST row
        import pyarrow.compute as pc

        from ..stages.distributed import adjacent_equal_mask

        idx = pc.sort_indices(
            group, sort_keys=[(c, "ascending") for c in key_cols]
            + [("revision_id", "ascending")])
        g = group.take(idx)
        if g.num_rows:
            same = adjacent_equal_mask(g, key_cols)
            is_last = np.concatenate([~same, [True]])
            keep = is_last & pc.fill_null(pc.not_equal(
                g.column("action"), "DELETE"), True).to_numpy(
                zero_copy_only=False)
            g = g.filter(pa.array(keep))
        g = g.drop_columns(["_salt"])
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
    import numpy as np
    import pyarrow as pa

    from ..stages.distributed import default_reduce_buckets, salt_from_columns

    buckets = salt_buckets or default_reduce_buckets()

    def drop_local_dupes(batch: pa.Table) -> pa.Table:
        # partial dedup inside each block before any shuffle, then tag each
        # surviving row with its PK-hash bucket — the shuffle key
        df = batch.to_pandas()
        df = df.drop_duplicates(subset=pk_cols, keep="first")
        out = pa.Table.from_pandas(df, preserve_index=False)
        salts = salt_from_columns(df, pk_cols, buckets) if len(df) \
            else np.array([], dtype=np.int64)
        return out.append_column("_salt", pa.array(salts, type=pa.int64()))

    ds = ds.map_batches(drop_local_dupes, batch_format="pyarrow")

    def dedup_bucket(group: pa.Table) -> pa.Table:
        # one vectorized keep-first per BUCKET (not per PK) — all duplicates
        # of a key share its bucket, so this is exact with ~buckets groups
        # instead of one group per distinct key; Arrow end to end, so the
        # shuffled blocks keep their exact types
        import pyarrow.compute as pc

        from ..stages.distributed import adjacent_equal_mask

        idx = pc.sort_indices(
            group, sort_keys=[(c, "ascending") for c in pk_cols])
        g = group.take(idx)
        if g.num_rows:
            same = adjacent_equal_mask(g, pk_cols)
            g = g.filter(pa.array(np.concatenate([[True], ~same])))
        return g.drop_columns(["_salt"])

    return ds.groupby("_salt").map_groups(dedup_bucket,
                                          batch_format="pyarrow")
