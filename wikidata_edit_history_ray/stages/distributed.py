"""Shuffle and small-side exchange helpers.

Shared by the keyed reducers of `pipelines/kg.py` (graph replay and dedup):

- `salt_from_columns`: a process-stable hash bucket per composite key, so
  every duplicate of a key reaches the same reducer;
- `adjacent_equal_mask`: the run-segmentation kernel the Arrow-format
  reducers use after sorting a bucket on its key.

Used by `pipelines/analysis.py` and the corpus operators:

- `default_reduce_buckets`: the reducer count of their Ray Data shuffles,
  one per CPU.

Used by the corpus dedup and text operators:

- `broadcast_dataset` / `_get_broadcast_table`: materialize a (small) Dataset
  into object-store blocks and hand its block REFS to downstream tasks — the
  rows are fetched and concatenated once per worker process, never through
  the driver heap.
- `filter_out_ids`: anti-join `ds` against a drop-id Dataset. Broadcast path
  for small drop sets; hash-partitioned shuffle anti-join for drop sets too
  big to broadcast (both sides co-partition on the id hash, so each reduce
  bucket filters locally).
"""
from __future__ import annotations

import os

import numpy as np
import pyarrow as pa


def default_reduce_buckets() -> int:
    """The reducer count of a keyed Ray Data shuffle: one bucket per CPU of
    the Ray cluster (of this host when no session is up), resolved on the
    driver at pipeline build time. Each bucket is one reduce call, so
    buckets beyond the CPUs only add tasks. The graph replay and the dedup
    of `pipelines/kg.py` do not use it: they take their bucket count from
    their partials' bytes."""
    import ray

    if ray.is_initialized():
        return max(1, int(ray.cluster_resources().get("CPU", 1)))
    return os.cpu_count() or 1


def adjacent_equal_mask(table: pa.Table, cols) -> np.ndarray:
    """For a SORTED table, a boolean mask of length n-1: True where row i+1
    equals row i on every column in `cols`, with SQL GROUP BY null semantics
    (null == null). The shared segmentation kernel for Arrow-format shuffle
    reducers: one slice-compare per key column, no pandas round-trip, no
    per-row Python."""
    import pyarrow.compute as pc

    n = table.num_rows
    same = np.ones(max(0, n - 1), dtype=bool)
    if n <= 1:
        return same
    for c in cols:
        a = table.column(c).combine_chunks()
        eq = pc.fill_null(pc.equal(a.slice(1), a.slice(0, n - 1)), False) \
            .to_numpy(zero_copy_only=False)
        # nan_is_null: float NaN groups with null (pandas isna semantics —
        # Arrow batches read straight from parquet carry NaN, not null, and
        # pc.equal(NaN, NaN) is False, which would make every NaN-keyed row
        # its own segment)
        isnull = pc.is_null(a, nan_is_null=True) \
            .to_numpy(zero_copy_only=False)
        same &= eq | (isnull[1:] & isnull[:-1])
    return same


# per-worker cache of fetched broadcast tables, keyed by the ref tuple
_BCAST_CACHE: dict = {}

# driver-side pins: the MaterializedDataset that owns the broadcast blocks
# must outlive the downstream execution — if it is GC'd, Ray may reclaim the
# blocks under object-store pressure and the captured refs dangle (observed
# as a rare UserCodeException in the filter stage on small-memory sessions)
_BCAST_PINS: list = []


def _pin(mat):
    # eviction must lag far behind any pipeline still executing: dropping a
    # pin while a downstream stage holds its refs dangles them (observed as a
    # flaky UserCodeException in long pytest sessions at the old cap of 64)
    _BCAST_PINS.append(mat)
    if len(_BCAST_PINS) > 512:
        del _BCAST_PINS[:64]


def broadcast_dataset(ds):
    """Materialize a Dataset and return a lightweight handle (tuple of Arrow
    block refs) that tasks can capture in closures."""
    mat = ds.materialize()
    _pin(mat)
    return tuple(mat.to_arrow_refs())


def _get_broadcast_table(refs) -> pa.Table:
    """Fetch + concat the broadcast blocks, once per worker process."""
    import ray

    key = tuple(r.hex() for r in refs)
    hit = _BCAST_CACHE.get(key)
    if hit is None:
        if len(_BCAST_CACHE) > 16:
            _BCAST_CACHE.clear()
        tables = [t for t in ray.get(list(refs)) if t.num_rows > 0]
        hit = pa.concat_tables(tables) if tables else None
        _BCAST_CACHE[key] = hit
    return hit


def broadcast_id_set(ds, col: str):
    """Broadcast handle for a single-column id set."""
    return broadcast_dataset(ds.select_columns([col]))


def _get_broadcast_set(refs, col: str) -> set:
    key = (tuple(r.hex() for r in refs), col, "set")
    hit = _BCAST_CACHE.get(key)
    if hit is None:
        t = _get_broadcast_table(refs)
        hit = set(t.column(col).to_pylist()) if t is not None else set()
        _BCAST_CACHE[key] = hit
    return hit


def _get_broadcast_value_array(refs, col: str):
    """Broadcast column as one combined Arrow array (None when empty) —
    the value_set operand for vectorized pc.is_in membership probes, built
    once per worker process."""
    key = (tuple(r.hex() for r in refs), col, "arr")
    hit = _BCAST_CACHE.get(key)
    if hit is None and key not in _BCAST_CACHE:
        t = _get_broadcast_table(refs)
        hit = t.column(col).combine_chunks() if t is not None else None
        _BCAST_CACHE[key] = hit
    return hit


def _get_broadcast_dict(refs, key_col: str, val_col: str) -> dict:
    """Fetch a broadcast two-column table as a lookup dict, built once per
    worker process (the dict build is O(rows) Python — not per batch)."""
    key = (tuple(r.hex() for r in refs), key_col, val_col, "dict")
    hit = _BCAST_CACHE.get(key)
    if hit is None:
        t = _get_broadcast_table(refs)
        hit = (dict(zip(t.column(key_col).to_pylist(),
                        t.column(val_col).to_pylist()))
               if t is not None else {})
        _BCAST_CACHE[key] = hit
    return hit


def filter_out_ids(ds, drop_ds, id_col: str, drop_col: str = "drop_id",
                   broadcast_limit: int = 2_000_000, buckets: int | None = None):
    """Remove from `ds` every row whose `id_col` appears in `drop_ds[drop_col]`.

    drop count <= broadcast_limit: drop ids are broadcast as block refs and
    each filter task tests membership locally (one object-store fetch per
    worker, zero shuffle of `ds`).
    Beyond the limit: shuffle anti-join — both sides co-partition on
    hash(id) % buckets and each bucket filters with a local hash set, so
    neither side ever materializes centrally.
    """
    drop_small = drop_ds.select_columns([drop_col]).materialize()
    _pin(drop_small)
    if buckets is None:
        buckets = default_reduce_buckets()
    if drop_small.count() <= broadcast_limit:
        refs = tuple(drop_small.to_arrow_refs())

        def filter_batch(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            drops = _get_broadcast_value_array(refs, drop_col)
            if drops is None or len(drops) == 0:
                return batch
            # vectorized membership: is_in maps null inputs to false, the
            # same "null ids are never droppable" the set probe had
            return batch.filter(pc.invert(
                pc.is_in(batch.column(id_col), value_set=drops)))

        return ds.map_batches(filter_batch, batch_format="pyarrow")
    return _anti_join_shuffle(ds, drop_small, id_col, drop_col, buckets)


def membership_flags(ds, ids_ds, id_col: str, flag_col: str = "flag",
                     member_col: str | None = None,
                     broadcast_limit: int = 2_000_000,
                     buckets: int | None = None):
    """Append an int64 0/1 `flag_col` to `ds` marking whether `id_col` is in
    `ids_ds[member_col]` — the flag-emitting sibling of filter_out_ids,
    same dual path: broadcast set below `broadcast_limit`, hash-partitioned
    shuffle join beyond (neither side materializes centrally)."""
    member_col = member_col or id_col
    small = ids_ds.select_columns([member_col]).materialize()
    _pin(small)
    if buckets is None:
        buckets = default_reduce_buckets()

    if small.count() <= broadcast_limit:
        refs = tuple(small.to_arrow_refs())

        def flag_batch(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            members = _get_broadcast_value_array(refs, member_col)
            if members is None or len(members) == 0:
                flags = pa.array(
                    np.zeros(batch.num_rows, dtype=np.int64))
            else:
                flags = pc.cast(
                    pc.is_in(batch.column(id_col), value_set=members),
                    pa.int64())
            return batch.append_column(flag_col, flags)

        return ds.map_batches(flag_batch, batch_format="pyarrow")

    # shuffle path: union main rows (+marker) with member-id rows, one
    # groupby on the id-hash bucket, per-bucket local membership mark
    def tag_main(batch: pa.Table) -> pa.Table:
        b = batch.append_column(
            "_is_member_row",
            pa.array(np.zeros(batch.num_rows, dtype=np.int8)))
        return b.append_column("_mf_bucket", _hash_bucket_array(
            batch.column(id_col).to_pylist(), buckets))

    schema = ds.schema()

    id_type = schema.types[schema.names.index(id_col)]

    def tag_members(batch: pa.Table) -> pa.Table:
        # cast to ds's id type: a member column of different integer width
        # (int32 parquet vs int64 main) must not split the union schema
        ids = batch.column(member_col).cast(id_type)
        n = len(ids)
        cols = []
        for name, typ in zip(schema.names, schema.types):
            cols.append(ids if name == id_col
                        else pa.nulls(n, type=typ))
        t = pa.table(dict(zip(schema.names, cols)))
        t = t.append_column(
            "_is_member_row", pa.array(np.ones(n, dtype=np.int8)))
        return t.append_column("_mf_bucket", _hash_bucket_array(
            ids.to_pylist(), buckets))

    unioned = ds.map_batches(tag_main, batch_format="pyarrow") \
        .union(ids_ds.map_batches(tag_members, batch_format="pyarrow"))

    # arrow group format: pandas would coerce the null-padded id column of
    # the member rows to float64 and silently retype the output ids
    def mark(group: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        is_m = pc.equal(group.column("_is_member_row"), 1)
        members = pc.drop_null(
            group.filter(is_m).column(id_col)).combine_chunks()
        main = group.filter(pc.invert(is_m)) \
            .drop_columns(["_is_member_row", "_mf_bucket"])
        if len(members) == 0:
            flags = pa.array(np.zeros(main.num_rows, dtype=np.int64))
        else:
            flags = pc.cast(
                pc.is_in(main.column(id_col), value_set=members), pa.int64())
        return main.append_column(flag_col, flags)

    return unioned.groupby("_mf_bucket").map_groups(
        mark, batch_format="pyarrow")


def _hash_bucket_array(values, buckets: int) -> pa.Array:
    """Process-stable id-hash buckets (Python's str hash is salted per
    process, which would scatter the two join sides into different buckets).
    Vectorized: ints bucket directly; strings through pandas' fixed-key
    siphash (hash_pandas_object — deterministic across processes)."""
    import numpy as np
    import pandas as pd
    from pandas.util import hash_pandas_object

    if len(values) == 0:
        return pa.array([], type=pa.int64())
    arr = np.asarray(values)
    if np.issubdtype(arr.dtype, np.integer):
        out = arr.astype(np.int64) % buckets
    else:
        # bucket routing must depend only on the VALUE, never on which batch
        # it arrived in: a nullable-int column yields object arrays for
        # null-containing batches and int arrays for null-free ones, and the
        # two sides of a shuffle join see different batch compositions — so
        # ints always take the modulo path, only genuinely non-int keys take
        # the string hash, and a None routes to bucket 0 on BOTH paths (an
        # all-null batch must not fall through to hashing the string 'None')
        first = next((v for v in values if v is not None), None)
        if first is None:
            out = np.zeros(len(values), dtype=np.int64)
        elif isinstance(first, (int, np.integer)) \
                and not isinstance(first, bool):
            out = np.fromiter(
                (0 if v is None else int(v) % buckets for v in values),
                dtype=np.int64, count=len(values))
        else:
            h = hash_pandas_object(
                pd.Series(values, dtype=object).astype(str),
                index=False).to_numpy()
            out = (h % np.uint64(buckets)).astype(np.int64)
            nulls = np.fromiter((v is None for v in values),
                                dtype=bool, count=len(values))
            if nulls.any():
                out[nulls] = 0
    return pa.array(out, type=pa.int64())


def salt_from_columns(table: pa.Table, cols, buckets: int) -> np.ndarray:
    """Deterministic per-row salt from a composite key: column-wise fixed-key
    hashes mixed with a 64-bit LCG step — vectorized, process-stable, every
    duplicate of a key lands in the same bucket on every worker."""
    from pandas.util import hash_pandas_object

    acc = np.zeros(table.num_rows, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for c in cols:
            acc = acc * np.uint64(6364136223846793005) + hash_pandas_object(
                table.column(c).to_pandas(), index=False).to_numpy()
    return (acc % np.uint64(buckets)).astype(np.int64)


def _anti_join_shuffle(ds, drop_ds, id_col: str, drop_col: str, buckets: int):
    """Hash-partitioned anti-join: union main rows (+marker) with drop-id rows
    null-padded to the main schema, one groupby shuffle on the id-hash bucket,
    per-bucket local filter."""
    schema = ds.schema()
    full = pa.schema(list(zip(schema.names, schema.types))
                     + [pa.field("_is_drop", pa.bool_())])

    def tag_main(batch: pa.Table) -> pa.Table:
        b = batch.append_column(
            "_is_drop", pa.array([False] * batch.num_rows, type=pa.bool_()))
        return b.append_column(
            "_aj_bucket",
            _hash_bucket_array(batch.column(id_col).to_pylist(), buckets))

    def tag_drop(batch: pa.Table) -> pa.Table:
        ids = batch.column(drop_col)
        n = len(ids)
        cols = []
        for f in full:
            if f.name == id_col:
                cols.append(ids.cast(f.type))
            elif f.name == "_is_drop":
                cols.append(pa.array([True] * n, type=pa.bool_()))
            else:
                cols.append(pa.nulls(n, type=f.type))
        t = pa.Table.from_arrays(cols, schema=full)
        return t.append_column(
            "_aj_bucket", _hash_bucket_array(ids.to_pylist(), buckets))

    main = ds.map_batches(tag_main, batch_format="pyarrow")
    drop_tagged = drop_ds.map_batches(tag_drop, batch_format="pyarrow")
    unioned = main.union(drop_tagged)

    # arrow group format: a bucket whose rows include a null id would have
    # pandas coerce the int id column to float64 and retype output blocks
    def bucket_filter(group: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        is_drop = group.column("_is_drop")
        dropped = pc.drop_null(
            group.filter(is_drop).column(id_col)).combine_chunks()
        keep = group.filter(pc.invert(is_drop))
        if len(dropped) > 0:
            keep = keep.filter(pc.invert(
                pc.is_in(keep.column(id_col), value_set=dropped)))
        return keep.drop_columns(["_is_drop", "_aj_bucket"])

    return unioned.groupby("_aj_bucket").map_groups(
        bucket_filter, batch_format="pyarrow")


def gather_pair_values(ds, edges, id_col: str, val_col: str,
                       a_col: str = "cand_a", b_col: str = "cand_b",
                       buckets: int | None = None):
    """Resolve the `val_col` payload for BOTH endpoints of every edge without
    broadcasting anything: the scale path behind pair verification when the
    candidate set is too big for fetch_rows_by_ids.

    Two hash-partitioned passes, no driver materialization, no per-worker
    copy of the candidate table:
    1. key shuffle — value rows (id, val) and edge-endpoint rows (one per
       side) co-partition on hash(id); each bucket resolves its endpoints
       from its LOCAL value slice (memory per task = corpus/buckets values).
       Shuffled volume: the value column once + two slim rows per edge.
    2. pair shuffle — resolved endpoint rows co-partition on hash(pair);
       each bucket zips side-a and side-b into one row per edge.
       Shuffled volume: two resolved values per edge (candidate-sized).

    Returns a Dataset with columns (a_col, b_col, val_a, val_b)."""
    import numpy as np

    if buckets is None:
        buckets = default_reduce_buckets()
    e_schema, d_schema = edges.schema(), ds.schema()
    id_type = e_schema.types[e_schema.names.index(a_col)]
    val_type = d_schema.types[d_schema.names.index(val_col)]

    union_schema = pa.schema([
        pa.field("_key", id_type), pa.field("_pa", id_type),
        pa.field("_pb", id_type), pa.field("_side", pa.int8()),
        pa.field("_val", val_type)])

    def tag_values(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        ids = batch.column(id_col).cast(id_type)
        t = pa.Table.from_arrays(
            [ids, pa.nulls(n, id_type), pa.nulls(n, id_type),
             pa.array(np.zeros(n, dtype=np.int8), type=pa.int8()),
             batch.column(val_col).cast(val_type)],
            schema=union_schema)
        return t.append_column(
            "_gb", _hash_bucket_array(ids.to_pylist(), buckets))

    def tag_edges(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        a = batch.column(a_col).cast(id_type)
        b = batch.column(b_col).cast(id_type)
        parts = []
        for key, side in ((a, 1), (b, 2)):
            t = pa.Table.from_arrays(
                [key, a, b,
                 pa.array(np.full(n, side, dtype=np.int8), type=pa.int8()),
                 pa.nulls(n, val_type)],
                schema=union_schema)
            parts.append(t.append_column(
                "_gb", _hash_bucket_array(key.to_pylist(), buckets)))
        return pa.concat_tables(parts) if parts else \
            union_schema.empty_table().append_column(
                "_gb", pa.array([], type=pa.int64()))

    unioned = ds.map_batches(tag_values, batch_format="pyarrow").union(
        edges.map_batches(tag_edges, batch_format="pyarrow"))

    # arrow group format: pandas would coerce the null-padded _pa/_pb int
    # columns to float64, corrupting ids above 2^53 and widening narrower
    # int types; Arrow filtering keeps the declared id_type exactly
    def resolve_bucket(group: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        is_val = pc.equal(group.column("_side"), 0)
        vals = group.filter(is_val)
        lookup = dict(zip(vals.column("_key").to_pylist(),
                          vals.column("_val").to_pylist()))
        probes = group.filter(pc.invert(is_val))
        resolved_vals = pa.array(
            [lookup.get(k) for k in probes.column("_key").to_pylist()],
            type=val_type)
        probes = probes.set_column(
            probes.schema.get_field_index("_val"), "_val", resolved_vals)
        return probes.drop_columns(["_key", "_gb"])

    resolved = unioned.groupby("_gb").map_groups(
        resolve_bucket, batch_format="pyarrow")

    def tag_pairs(batch: pa.Table) -> pa.Table:
        keys = [f"{a}|{b}" for a, b in zip(batch.column("_pa").to_pylist(),
                                           batch.column("_pb").to_pylist())]
        return batch.append_column("_pbk", _hash_bucket_array(keys, buckets))

    def zip_pairs(group):
        import pandas as pd

        # an edge can be proposed by several LSH buckets: dedupe per side so
        # the merge stays 1:1 per pair
        a_side = group[group["_side"] == 1].drop_duplicates(subset=["_pa", "_pb"])
        b_side = group[group["_side"] == 2].drop_duplicates(subset=["_pa", "_pb"])
        merged = a_side.merge(b_side, on=["_pa", "_pb"], suffixes=("_a", "_b"))
        return pd.DataFrame({
            a_col: merged["_pa"], b_col: merged["_pb"],
            "val_a": merged["_val_a"], "val_b": merged["_val_b"]})

    return resolved.map_batches(tag_pairs, batch_format="pyarrow") \
        .groupby("_pbk").map_groups(zip_pairs, batch_format="pandas")


def fetch_rows_by_ids(ds, id_ds, id_col: str, columns=None,
                      warn_above: int = 5_000_000):
    """Small-result point lookup: scan `ds`, keep rows whose id is in the
    (broadcast) id set, return a broadcast handle for the result table.

    The scan is shuffle-free (a filter pass); the result must be small (the
    candidate set of a dedup pass, not the corpus). When the id set exceeds
    `warn_above`, a warning is logged — at that size the fetched rows may not
    fit a worker heap and the caller should switch to a partitioned join
    (no silent degradation)."""
    n_ids = id_ds.count()
    if n_ids > warn_above:
        import logging

        logging.getLogger(__name__).warning(
            "fetch_rows_by_ids: %d candidate ids exceed the broadcast "
            "comfort zone (%d); fetched rows are broadcast per worker — "
            "consider a partitioned join for this dup rate", n_ids, warn_above)
    refs = broadcast_id_set(id_ds, id_col)

    def filt(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ids = _get_broadcast_value_array(refs, id_col)
        if ids is None or len(ids) == 0:
            return batch.slice(0, 0)
        return batch.filter(
            pc.is_in(batch.column(id_col), value_set=ids))

    out = ds.map_batches(filt, batch_format="pyarrow")
    if columns:
        out = out.select_columns(columns)
    return broadcast_dataset(out)
