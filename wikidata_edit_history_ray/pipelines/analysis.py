"""Analysis aggregates over the extracted change tables (operators A2-A5).

Ray-Data-first shapes:
- pre-aggregate inside map_batches (combiner) before the groupby so the
  shuffle moves per-(key)-partials, not raw change rows;
- distinct counts via two-phase groupby;
- global stats via Dataset.aggregate.

Reference analogs: analysis/sql/stats_properties.sql, stats_entity_type.sql,
stats_sa_ao.sql, analysis/scripts/general_analysis.py:268-336.
"""
from __future__ import annotations

import pyarrow as pa


def _partial_property_counts(batch: pa.Table) -> pa.Table:
    """Combiner: value_change rows -> (property_id, entity_id) partial counts
    with per-action breakdowns."""
    import pyarrow.compute as pc

    keys = ["property_id", "entity_id"]
    action = batch.column("action")
    t = batch.select(keys).append_column(
        "num_changes", pa.array([1] * batch.num_rows, type=pa.int64()))
    for act, col in (("CREATE", "num_creates"), ("DELETE", "num_deletes"),
                     ("UPDATE", "num_updates")):
        t = t.append_column(col, pc.cast(pc.equal(action, act), pa.int64()))
    return t.group_by(keys).aggregate([
        ("num_changes", "sum"), ("num_creates", "sum"),
        ("num_deletes", "sum"), ("num_updates", "sum"),
    ]).rename_columns(keys + ["num_changes", "num_creates", "num_deletes", "num_updates"])


def property_stats(value_change_ds):
    """Per-property: distinct entity count + change counts by action (A2).

    ONE shuffle: block-local combine to (property_id, entity_id) partials,
    a coarse hash-bucket groupby on property_id (all partials of a property
    share a bucket; ~buckets reduce groups, not one per property), and a
    vectorized per-bucket pandas rollup that sums the partials and counts
    distinct entities (`nunique` over partial rows — exact, because the
    combine key includes entity_id). The r2 version paid two Aggregate
    shuffles for the same distinct count.
    """
    from ..stages.distributed import default_reduce_buckets

    buckets = default_reduce_buckets()

    def tag(batch: pa.Table) -> pa.Table:
        import numpy as np

        pids = np.asarray(batch.column("property_id").to_pylist(),
                          dtype=np.int64)
        return batch.append_column(
            "_pb", pa.array(pids % buckets, type=pa.int64()))

    def rollup(group):
        g = group.groupby("property_id", sort=False)
        out = g.agg(num_changes=("num_changes", "sum"),
                    num_creates=("num_creates", "sum"),
                    num_deletes=("num_deletes", "sum"),
                    num_updates=("num_updates", "sum"))
        out.insert(0, "num_entities", g["entity_id"].nunique())
        return out.reset_index()[
            ["property_id", "num_entities", "num_changes", "num_creates",
             "num_deletes", "num_updates"]]

    partial = value_change_ds.map_batches(
        _partial_property_counts, batch_format="pyarrow")
    return partial.map_batches(tag, batch_format="pyarrow") \
        .groupby("_pb").map_groups(rollup, batch_format="pandas")


def entity_type_stats(entity_stats_ds, type_labels=None):
    """Explode the comma-separated P31 type list, count entities per type, and
    enrich with a broadcast label lookup (A3)."""
    from ray.data.aggregate import Count, Sum

    labels = dict(type_labels or {})

    def explode(batch: pa.Table) -> pa.Table:
        types_col = batch.column("entity_types_31").to_pylist()
        nvc = batch.column("num_value_changes").to_pylist()
        out_type, out_label, out_nvc = [], [], []
        for types, n in zip(types_col, nvc):
            for t in (types or "").split(", "):
                if t:
                    out_type.append(t)
                    out_label.append(labels.get(t, ""))
                    out_nvc.append(n)
        return pa.table({
            "individual_type": pa.array(out_type, type=pa.string()),
            "type_label": pa.array(out_label, type=pa.string()),
            "num_value_changes": pa.array(out_nvc, type=pa.int64()),
        })

    return entity_stats_ds.map_batches(explode, batch_format="pyarrow").groupby(
        ["individual_type", "type_label"]).aggregate(
        Count(alias_name="num_entities"),
        Sum("num_value_changes", alias_name="num_value_changes"))


def corpus_stats(entity_stats_ds):
    """Global corpus aggregates (A4, the stats_sa_ao.sql metric set): one
    Dataset.aggregate pass plus a tiny filtered count."""
    import pyarrow as pa
    import pyarrow.compute as pc
    from ray.data.aggregate import Count, Max, Mean, Min, Sum

    def add_no_update_flag(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "no_updates",
            pc.cast(pc.equal(batch.column("num_value_change_updates"), 0),
                    pa.int64()))

    ds = entity_stats_ds.map_batches(add_no_update_flag, batch_format="pyarrow")
    return ds.aggregate(
        Count(alias_name="num_entities"),
        Sum("num_revisions", alias_name="total_revisions"),
        Sum("num_value_changes", alias_name="total_value_changes"),
        Sum("num_value_change_creates", alias_name="total_value_change_creates"),
        Sum("num_value_change_deletes", alias_name="total_value_change_deletes"),
        Sum("num_value_change_updates", alias_name="total_value_change_updates"),
        Sum("no_updates", alias_name="num_entities_no_updates"),
        Mean("num_value_changes", alias_name="avg_value_changes"),
        Mean("num_value_change_creates", alias_name="avg_value_change_creates"),
        Mean("num_value_change_deletes", alias_name="avg_value_change_deletes"),
        Mean("num_value_change_updates", alias_name="avg_value_change_updates"),
        Sum("num_rank_changes", alias_name="total_rank_changes"),
        Sum("num_qualifier_changes", alias_name="total_qualifier_changes"),
        Sum("num_reference_changes", alias_name="total_reference_changes"),
        Sum("num_bot_edits", alias_name="total_bot_edits"),
        Sum("num_anonymous_edits", alias_name="total_anonymous_edits"),
        Sum("num_human_edits", alias_name="total_human_edits"),
        Sum("num_reverted_edits", alias_name="total_reverted_edits"),
        Sum("num_reversions", alias_name="total_reversions"),
        Sum("num_reverted_edits_create", alias_name="total_reverted_creates"),
        Sum("num_reverted_edits_delete", alias_name="total_reverted_deletes"),
        Sum("num_reverted_edits_update", alias_name="total_reverted_updates"),
        Mean("num_revisions", alias_name="avg_revisions_per_entity"),
        Min("num_revisions", alias_name="min_revisions"),
        Max("num_revisions", alias_name="max_revisions"),
    )


def revision_distribution(entity_stats_ds, exclude_entity_ids=None):
    """Histogram of revisions-per-entity (A5).

    `exclude_entity_ids`: iterable of entity ids to drop first — the
    reference excludes sandbox entities from its distributions
    (analysis/scripts/general_analysis.py:148, 298); pass the sandbox QID
    list (or any pathological-entity set) here."""
    from ray.data.aggregate import Count

    ds = entity_stats_ds
    if exclude_entity_ids:
        import ray

        excl_ref = ray.put(frozenset(exclude_entity_ids))

        def drop(batch: pa.Table) -> pa.Table:
            excl = ray.get(excl_ref)
            mask = pa.array([v not in excl
                             for v in batch.column("entity_id").to_pylist()])
            return batch.filter(mask)

        ds = ds.map_batches(drop, batch_format="pyarrow")
    return ds.groupby("num_revisions").aggregate(
        Count(alias_name="num_entities"))

