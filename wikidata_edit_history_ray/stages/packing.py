"""Sequence packing for training-data pipelines: assign each document to a
fixed-token-budget pack by its position in the global token stream.

Semantics (exactly SQL-expressible, so the driver hard-oracles it):
    pack_id(doc) = floor(prefix_tokens_before(doc) / max_tokens)
with documents ordered by `order_col` — i.e. concatenate all docs in order
and start a new pack every `max_tokens` tokens; a doc belongs to the pack its
FIRST token lands in (packs can overflow by at most one doc — the standard
"greedy contiguous fill" used to build packed pretraining batches).

Distributed shape — a global ordered PREFIX SUM, a pattern none of the other
operators need:
1. range-partition on `order_col` (uniform cutpoints over the observed
   min/max; skew affects balance only, never results);
2. ONE tiny aggregate: per-range token totals -> driver computes the B-row
   running offsets (B = number of ranges, bytes not gigabytes);
3. per-range finalize: sort within the range, local cumulative sum + the
   broadcast range offset -> pack id. One shuffle of slim (order, tokens)
   rows; the text column never moves.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa


def pack_sequences(ds, token_col: str, max_tokens: int,
                   order_col: str = "doc_id", num_ranges: int | None = None):
    """Dataset with (order_col, token_col) -> Dataset of
    (order_col, token_col, pack_id). Exact: equals the SQL window
    floor((sum(tokens) over (order by order_col) - tokens) / max_tokens)."""
    import ray.data
    from ray.data.aggregate import Max, Min, Sum

    from .distributed import default_reduce_buckets

    if num_ranges is None:
        num_ranges = default_reduce_buckets()

    # materialize the SLIM projection once: the prefix sum needs three
    # passes over it (min/max bounds, per-range totals, per-range finalize)
    # plus whatever the caller does with the result — without this, every
    # pass re-executes the full upstream lineage (in a composed dedup +
    # decontamination chain, measured 4x the whole job). The pin is 16 bytes/row
    # (order, tokens) — ~160 GB at 10^10 docs, object-store-resident
    # across a cluster and spillable; the text columns are NOT included.
    slim = ds.select_columns([order_col, token_col]).materialize()
    schema = slim.schema()
    if schema is None:
        # fully-empty upstream (e.g. a filter chain that dropped every row)
        # yields blocks with no schema at all — same contract as lo is None
        return ray.data.from_arrow(pa.table({
            order_col: pa.array([], type=pa.int64()),
            token_col: pa.array([], type=pa.int64()),
            "pack_id": pa.array([], type=pa.int64())}))
    o_type = schema.types[schema.names.index(order_col)]
    if not (pa.types.is_integer(o_type) or pa.types.is_floating(o_type)):
        raise TypeError(
            f"pack_sequences needs a numeric order column; {order_col!r} is "
            f"{o_type} (range partitioning cuts the key space numerically)")
    bounds = slim.aggregate(Min(order_col, alias_name="lo"),
                            Max(order_col, alias_name="hi"))
    lo, hi = bounds["lo"], bounds["hi"]
    if lo is None:
        return ray.data.from_arrow(pa.table({
            order_col: pa.array([], type=pa.int64()),
            token_col: pa.array([], type=pa.int64()),
            "pack_id": pa.array([], type=pa.int64())}))
    # float cutpoint math: int64 `(keys - lo) * num_ranges` overflows for
    # key spans wider than 2^63/num_ranges (64-bit snowflake-style ids) and
    # wraps NEGATIVE, destroying range monotonicity. Double conversion and
    # multiply-by-positive-constant are weakly monotone, which is all range
    # partitioning needs (ties collapsing into one range only affects
    # balance, never the per-range prefix sums).
    span = max(1.0, float(int(hi) - int(lo)) + 1.0)
    scale = num_ranges / span

    def tag_range(batch: pa.Table) -> pa.Table:
        keys = batch.column(order_col).combine_chunks().to_numpy()
        rel = keys.astype(np.float64) - float(int(lo))
        rng = (rel * scale).astype(np.int64).clip(0, num_ranges - 1)
        return batch.append_column("_range", pa.array(rng, type=pa.int64()))

    tagged = slim.map_batches(tag_range, batch_format="pyarrow")

    # tiny pass: token total per range -> running offsets on the driver
    totals = tagged.groupby("_range").aggregate(
        Sum(token_col, alias_name="tok")).take_all()
    per_range = {int(r["_range"]): int(r["tok"]) for r in totals}
    offsets, acc = {}, 0
    for r in range(num_ranges):
        offsets[r] = acc
        acc += per_range.get(r, 0)

    def finalize(group: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        idx = pc.sort_indices(group,
                              sort_keys=[(order_col, "ascending")])
        g = group.take(idx)
        toks = g.column(token_col).combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        start = offsets[g.column("_range")[0].as_py()]
        prefix_excl = start + np.cumsum(toks) - toks
        return g.drop_columns(["_range"]).append_column(
            "pack_id", pa.array(prefix_excl // max_tokens,
                                type=pa.int64()))

    return tagged.groupby("_range").map_groups(finalize,
                                               batch_format="pyarrow")


_SPAN_IDX_BITS = 20  # span order key = qnum << 20 | span_index


def interleaved_span_pack(docs_ds, max_tokens: int = 2048,
                          media_token_cost: int = 64,
                          doc_col: str = "doc_id", spans_col: str = "spans",
                          num_ranges: int | None = None):
    """Multimodal sequence assembly over interleaved documents: explode each
    doc's ordered text/media spans, cost text spans by whitespace tokens
    (RE2 \\S+, same kernel as token_counts) and media spans at a fixed
    `media_token_cost` (the patch-token budget of a vision encoder), then
    pack the GLOBAL (doc, span) stream into fixed-`max_tokens` training
    sequences -> Dataset of (doc_col, span_index, span_tokens, pack_id).

    Rides pack_sequences' distributed ordered prefix sum: the only moved
    rows are slim (order, tokens) pairs — span text never shuffles. The
    order key packs (numeric doc id, span index) into one int64, so the
    pack assignment is decoded arithmetically afterwards with no join.
    Docs above 2^20 spans are rejected loudly (key collision, never silent
    misorder)."""
    import pyarrow.compute as pc

    limit = 1 << _SPAN_IDX_BITS

    def explode(batch: pa.Table) -> pa.Table:
        orders, tokens = [], []
        for qid, spans in zip(batch.column(doc_col).to_pylist(),
                              batch.column(spans_col).to_pylist()):
            qnum = int(qid[1:])
            if len(spans) > limit:  # max index limit-1 still fits the field
                raise ValueError(
                    f"doc {qid} has {len(spans)} spans >= 2^{_SPAN_IDX_BITS}"
                    f" — span order key would collide; raise _SPAN_IDX_BITS")
            texts = pa.array([s["text"] or "" for s in spans],
                             type=pa.string())
            ws = pc.count_substring_regex(texts, pattern=r"\S+").to_numpy(
                zero_copy_only=False)
            for i, s in enumerate(spans):
                orders.append((qnum << _SPAN_IDX_BITS) | i)
                tokens.append(int(ws[i]) if s["kind"] == "text"
                              else media_token_cost)
        return pa.table({
            "span_order": pa.array(orders, type=pa.int64()),
            "span_tokens": pa.array(tokens, type=pa.int64())})

    packed = pack_sequences(
        docs_ds.map_batches(explode, batch_format="pyarrow"),
        token_col="span_tokens", max_tokens=max_tokens,
        order_col="span_order", num_ranges=num_ranges)

    def decode(batch: pa.Table) -> pa.Table:
        order = batch.column("span_order").to_numpy(zero_copy_only=False)
        qnum = order >> _SPAN_IDX_BITS
        idx = order & (limit - 1)
        doc = pc.binary_join_element_wise(
            "Q", pc.cast(pa.array(qnum), pa.string()), "")
        return pa.table({
            doc_col: doc,
            "span_index": pa.array(idx, type=pa.int64()),
            "span_tokens": batch.column("span_tokens"),
            "pack_id": batch.column("pack_id")})

    return packed.map_batches(decode, batch_format="pyarrow")


def materialize_packs(docs_ds, packed_ds, text_col: str = "text",
                      order_col: str = "doc_id", token_col: str | None = None,
                      sep: str = "\n",
                      broadcast_limit: int = 2_000_000,
                      buckets: int | None = None):
    """The producer step after pack assignment: concatenate each pack's
    document texts (in `order_col` order, `sep`-joined) into one training
    shard row -> Dataset of (pack_id, pack_text, n_docs[, total_tokens]).

    100-TB shape: the (order, pack_id[, tokens]) assignment is SLIM — it
    broadcasts (block refs, dicts built once per worker; ~24 bytes/doc,
    so the 2M default — aligned with the other dual-path ops' broadcast
    limits — keeps each worker's lookup dict under ~100 MB of heap).
    Beyond `broadcast_limit` assignment rows the op switches to a bucketed
    order-hash co-partition (differentially tested equal): the text then
    pays one extra attach shuffle before the assembling groupby(pack_id)
    — which is the op's output contract, not overhead; pack sizes are
    bounded by the token budget, so no reduce group exceeds ~max_tokens
    of text.

    The slim assignment projection is materialized ONCE up front: both the
    path-choosing count and the chosen path read the pinned copy, so the
    upstream pack-assignment lineage (in a composed pipeline, the whole
    dedup chain) executes exactly once and the routing count always matches
    the rows actually attached."""
    from .distributed import (_get_broadcast_dict, broadcast_dataset,
                              default_reduce_buckets)

    slim_cols = [order_col, "pack_id"] + (
        [token_col] if token_col is not None else [])
    assign_slim = packed_ds.select_columns(slim_cols).materialize()
    n_assign = assign_slim.count()
    if n_assign > broadcast_limit:
        # beyond-broadcast path: co-partition docs and assignment rows on
        # an order-hash bucket and attach pack ids within each bucket —
        # the text pays ONE extra shuffle (attach) before the assembling
        # groupby; the slim assignment never centralizes anywhere
        if buckets is None:
            buckets = default_reduce_buckets()
        return _materialize_packs_bucketed(
            docs_ds, assign_slim, text_col, order_col, token_col, sep,
            buckets)
    pack_refs = broadcast_dataset(
        assign_slim.select_columns([order_col, "pack_id"]))
    tok_refs = (broadcast_dataset(
        assign_slim.select_columns([order_col, token_col]))
        if token_col is not None else None)

    def attach(batch: pa.Table) -> pa.Table:
        pmap = _get_broadcast_dict(pack_refs, order_col, "pack_id")
        tmap = (_get_broadcast_dict(tok_refs, order_col, token_col)
                if tok_refs is not None else None)
        ids = batch.column(order_col).to_pylist()
        keep, packs, toks = [], [], []
        for i, d in enumerate(ids):
            p = pmap.get(d)
            if p is None:
                continue  # doc not packed (filtered upstream)
            keep.append(i)
            packs.append(p)
            if tmap is not None:
                toks.append(tmap[d])
        out = batch.take(pa.array(keep, type=pa.int64()))
        out = out.append_column("pack_id", pa.array(packs, type=pa.int64()))
        if tmap is not None:
            out = out.append_column("_tok",
                                    pa.array(toks, type=pa.int64()))
        return out

    def assemble(group: pa.Table) -> pa.Table:
        order = np.argsort(np.asarray(group.column(order_col).to_pylist()))
        texts = group.column(text_col).to_pylist()
        joined = sep.join((texts[i] or "") for i in order)
        cols = {
            "pack_id": pa.array([group.column("pack_id")[0].as_py()],
                                type=pa.int64()),
            "pack_text": pa.array([joined], type=pa.string()),
            "n_docs": pa.array([group.num_rows], type=pa.int64()),
        }
        if "_tok" in group.schema.names:
            import pyarrow.compute as pc
            cols["total_tokens"] = pa.array(
                [pc.sum(group.column("_tok")).as_py() or 0],
                type=pa.int64())
        return pa.table(cols)

    return docs_ds.map_batches(attach, batch_format="pyarrow") \
        .groupby("pack_id").map_groups(assemble, batch_format="pyarrow")


def _materialize_packs_bucketed(docs_ds, packed_ds, text_col, order_col,
                                token_col, sep, buckets):
    """Shuffle path of materialize_packs: union docs (+text payload) with
    the slim assignment rows on an order-hash bucket, attach pack ids
    locally per bucket, then the same assembling pack groupby.
    Differentially tested equal to the broadcast path."""
    import pyarrow.compute as pc

    from .distributed import _hash_bucket_array

    def tag_docs(batch: pa.Table) -> pa.Table:
        ids = batch.column(order_col)
        return pa.table({
            order_col: ids,
            "_text": pa.array(batch.column(text_col).to_pylist(),
                              type=pa.string()),
            "pack_id": pa.nulls(batch.num_rows, type=pa.int64()),
            "_tok": pa.nulls(batch.num_rows, type=pa.int64()),
            "_is_doc": pa.array(np.ones(batch.num_rows, dtype=np.int8)),
            "_b": _hash_bucket_array(ids.to_pylist(), buckets)})

    def tag_assign(batch: pa.Table) -> pa.Table:
        ids = batch.column(order_col)
        toks = (pc.cast(batch.column(token_col), pa.int64())
                if token_col is not None
                else pa.nulls(batch.num_rows, type=pa.int64()))
        return pa.table({
            order_col: ids,
            "_text": pa.nulls(batch.num_rows, type=pa.string()),
            "pack_id": pc.cast(batch.column("pack_id"), pa.int64()),
            "_tok": toks,
            "_is_doc": pa.array(np.zeros(batch.num_rows, dtype=np.int8)),
            "_b": _hash_bucket_array(ids.to_pylist(), buckets)})

    def bucket_attach(group: pa.Table) -> pa.Table:
        is_doc = pc.equal(group.column("_is_doc"), 1)
        docs = group.filter(is_doc)
        assign = group.filter(pc.invert(is_doc))
        pmap = dict(zip(assign.column(order_col).to_pylist(),
                        zip(assign.column("pack_id").to_pylist(),
                            assign.column("_tok").to_pylist())))
        keep, packs, toks = [], [], []
        for i, d in enumerate(docs.column(order_col).to_pylist()):
            hit = pmap.get(d)
            if hit is None:
                continue
            keep.append(i)
            packs.append(hit[0])
            toks.append(hit[1])
        kept = docs.take(pa.array(keep, type=pa.int64()))
        return pa.table({
            order_col: kept.column(order_col),
            "_text": kept.column("_text"),
            "pack_id": pa.array(packs, type=pa.int64()),
            "_tok": pa.array(toks, type=pa.int64())})

    def assemble(group: pa.Table) -> pa.Table:
        order = np.argsort(np.asarray(group.column(order_col).to_pylist()))
        texts = group.column("_text").to_pylist()
        joined = sep.join((texts[i] or "") for i in order)
        cols = {
            "pack_id": pa.array([group.column("pack_id")[0].as_py()],
                                type=pa.int64()),
            "pack_text": pa.array([joined], type=pa.string()),
            "n_docs": pa.array([group.num_rows], type=pa.int64()),
        }
        if token_col is not None:
            cols["total_tokens"] = pa.array(
                [pc.sum(group.column("_tok")).as_py() or 0],
                type=pa.int64())
        return pa.table(cols)

    return docs_ds.map_batches(tag_docs, batch_format="pyarrow") \
        .union(packed_ds.map_batches(tag_assign, batch_format="pyarrow")) \
        .groupby("_b").map_groups(bucket_attach, batch_format="pyarrow") \
        .groupby("pack_id").map_groups(assemble, batch_format="pyarrow")
