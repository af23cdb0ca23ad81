"""Deduplication operators for training-data pipelines.

- exact_dedup:      hash-partitioned keep-first on a content hash
- minhash_lsh_dedup: shingle -> minhash -> slim LSH band-bucket rows ->
                     candidate edges -> exact n-gram Jaccard verify ->
                     distributed anti-join filter
- simhash_dedup:    64-bit simhash, pigeonhole block buckets, exact Hamming
                    verify, distributed anti-join filter
- ngram_jaccard:    exact n-gram Jaccard verification for candidate pairs
- embedding_dedup:  cosine near-dup over an embedding column (multi-table
                    random-hyperplane LSH, exact cosine verify, anti-join)

All shuffles move only (key, id, sketch) columns — never full text — and no
path materializes ids on the driver (stages/distributed.py carries the drop
set as object-store block refs or a hash-partitioned anti-join), so at 100 TB
the exchange volume is the sketch table and the driver heap stays flat.
"""
from __future__ import annotations

import hashlib
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_TOKEN_RE = re.compile(r"\w+")


def _sha1_int(b: bytes) -> int:
    return int.from_bytes(hashlib.sha1(b).digest()[:8], "little")


# --------------------------------------------------------------------------
# exact dedup
# --------------------------------------------------------------------------

def exact_dedup(ds, text_col: str = "text", id_col: str = "doc_id",
                buckets: int | None = None):
    """Keep the min-id row per exact content hash; deterministic tie-break.

    100-TB shape: only SLIM (content_hash, id) sketch rows ride the shuffle —
    a local per-block pre-dedup first, then a coarse-bucket reduce (all rows
    of one hash share a bucket; ~`buckets` reduce groups total, never one per
    distinct document) emits the LOSER ids, and the original dataset is
    filtered through the distributed anti-join
    (stages/distributed.filter_out_ids). The full rows — text included —
    never transit a shuffle; the drop set is dup-rate-sized. Bucket count
    scales with the cluster (default_reduce_buckets)."""
    from .distributed import default_reduce_buckets, filter_out_ids

    if buckets is None:
        buckets = default_reduce_buckets()

    def slim_hash(batch: pa.Table) -> pa.Table:
        import pandas as pd

        texts = batch.column(text_col).to_pylist()
        hashes = [hashlib.sha1((t or "").encode("utf-8")).digest()[:12]
                  for t in texts]
        df = pd.DataFrame({"content_hash": hashes,
                           id_col: batch.column(id_col).to_pylist()})
        # local pre-dedup: keep the min id per hash inside this block so the
        # shuffle moves one sketch row per (block, distinct hash) — the block
        # losers are emitted as definite drops right away
        df = df.sort_values(["content_hash", id_col], kind="stable")
        winners = df.drop_duplicates(subset=["content_hash"], keep="first")
        keys = np.fromiter(
            (int.from_bytes(h[:8], "little") % buckets
             for h in winners["content_hash"]),
            dtype=np.int64, count=len(winners))
        local_losers = df[df.duplicated(subset=["content_hash"], keep="first")]
        # local losers are definite drops: route them to a disjoint bucket
        # range [buckets, 2*buckets) so the reducer passes them through, still
        # spread across ~buckets reduce groups (no single hot loser bucket)
        loser_keys = np.fromiter(
            (buckets + int.from_bytes(h[:8], "little") % buckets
             for h in local_losers["content_hash"]),
            dtype=np.int64, count=len(local_losers))
        out = pa.table({
            "content_hash": pa.array(
                list(winners["content_hash"]) + list(local_losers["content_hash"]),
                type=pa.binary()),
            id_col: pa.array(
                list(winners[id_col]) + list(local_losers[id_col]),
                type=batch.column(id_col).type),
            "_bucket": pa.array(np.concatenate([keys, loser_keys]),
                                type=pa.int64()),
        })
        return out

    slim = ds.map_batches(slim_hash, batch_format="pyarrow")

    def bucket_losers(group: pa.Table) -> pa.Table:
        from .distributed import adjacent_equal_mask

        if group.column("_bucket")[0].as_py() >= buckets:
            # pre-identified local losers
            return pa.table(
                {"drop_id": group.column(id_col).combine_chunks()})
        idx = pc.sort_indices(group,
                              sort_keys=[("content_hash", "ascending"),
                                         (id_col, "ascending")])
        g = group.take(idx)
        dup = np.concatenate([[False], adjacent_equal_mask(
            g, ["content_hash"])])
        return pa.table({"drop_id": g.column(id_col)
                        .filter(pa.array(dup)).combine_chunks()})

    drop_ds = slim.groupby("_bucket").map_groups(
        bucket_losers, batch_format="pyarrow")
    return filter_out_ids(ds, drop_ds, id_col)


# --------------------------------------------------------------------------
# minhash + LSH
# --------------------------------------------------------------------------

class MinHasher:
    """Stateful minhash signatures: permutation parameters generated once per
    actor (shared seed => identical across actors)."""

    def __init__(self, num_perm: int = 64, shingle_size: int = 3, seed: int = 1):
        rng = np.random.RandomState(seed)
        # 31-bit Mersenne prime modulus: a*h products stay inside int64
        self._mod = (1 << 31) - 1
        self.a = rng.randint(1, self._mod, size=num_perm, dtype=np.int64)
        self.b = rng.randint(0, self._mod, size=num_perm, dtype=np.int64)
        self.num_perm = num_perm
        self.shingle_size = shingle_size

    def shingles(self, text: str) -> np.ndarray:
        toks = _TOKEN_RE.findall((text or "").lower())
        k = self.shingle_size
        if len(toks) < k:
            grams = [" ".join(toks)] if toks else [""]
        else:
            grams = [" ".join(toks[i:i + k]) for i in range(len(toks) - k + 1)]
        return np.fromiter((_sha1_int(g.encode()) & 0x7FFFFFFF for g in set(grams)),
                           dtype=np.int64)

    def signature(self, text: str) -> np.ndarray:
        h = self.shingles(text)
        if h.size == 0:
            return np.zeros(self.num_perm, dtype=np.int64)
        # (num_perm, n_shingles) affine hash, min over shingles — vectorized
        vals = (np.outer(self.a, h) + self.b[:, None]) % self._mod
        return vals.min(axis=1)

    def signatures_batch(self, texts) -> np.ndarray:
        """(n_docs, num_perm) signatures for a whole batch: one flat shingle
        array + per-doc minimum.reduceat segments, chunked so the affine-hash
        matrix stays bounded — no per-doc numpy-call overhead (identical
        values to signature(); differentially tested)."""
        per_doc = [self.shingles(t) for t in texts]
        n = len(texts)
        sigs = np.zeros((n, self.num_perm), dtype=np.int64)
        lens = np.array([len(h) for h in per_doc], dtype=np.int64)
        flat = np.concatenate(per_doc) if per_doc else np.empty(0, np.int64)
        offsets = np.concatenate([[0], np.cumsum(lens)])
        # shingles() never returns an empty array (empty text -> the ''
        # shingle), so reduceat segments are never empty.
        # ~256k-element working set per chunk: measured cliff on this class
        # of host — (64, 176k) one-shot ran 17s where 69-doc chunks ran 0.2s
        # (cache-sized intermediates; same flops)
        docs_per_chunk = max(1, 262_144 // (self.num_perm *
                                            max(1, int(lens.max() if n else 1))))
        for s in range(0, n, docs_per_chunk):
            e = min(n, s + docs_per_chunk)
            lo, hi = offsets[s], offsets[e]
            vals = (self.a[:, None] * flat[None, lo:hi]
                    + self.b[:, None]) % self._mod
            sigs[s:e] = np.minimum.reduceat(
                vals, offsets[s:e] - lo, axis=1).T
        return sigs


class MinHashStage:
    """map_batches stage: SLIM per-band bucket rows (id, bucket) only — the
    full signature never rides the shuffle (round 1 shipped it 16x; candidate
    pairs are verified by exact n-gram Jaccard on fetched text instead)."""

    def __init__(self, num_perm=64, shingle_size=3, bands=16, text_col="text",
                 id_col="doc_id"):
        assert num_perm % bands == 0
        self.hasher = MinHasher(num_perm, shingle_size)
        self.bands = bands
        self.rows_per_band = num_perm // bands
        self.text_col = text_col
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column(self.text_col).to_pylist()
        ids = batch.column(self.id_col)
        n = len(texts)
        sigs = self.hasher.signatures_batch(texts)
        # per-band bucket key: LCG-mix the band segment, tag the band index in
        # the high bits — one vectorized pass (equal segments => equal keys,
        # which is the only LSH property candidate generation relies on)
        segs = sigs.reshape(n, self.bands, self.rows_per_band).astype(np.uint64)
        mix = np.zeros((n, self.bands), dtype=np.uint64)
        with np.errstate(over="ignore"):
            for r in range(self.rows_per_band):
                mix = mix * np.uint64(6364136223846793005) + segs[:, :, r]
        keys = ((mix & np.uint64((1 << 56) - 1))
                | (np.arange(self.bands, dtype=np.uint64)[None, :] << np.uint64(56)))
        out_ids = pa.concat_arrays([ids.combine_chunks()] * self.bands) \
            if self.bands > 1 else ids.combine_chunks()
        return pa.table({
            self.id_col: out_ids,
            "bucket": pa.array(keys.T.reshape(-1).astype(np.int64),
                               type=pa.int64()),
        })


def _coarse_from_bucket(batch: pa.Table, buckets: int) -> pa.Table:
    keys = batch.column("bucket").combine_chunks().to_numpy()
    return batch.append_column(
        "_coarse", pa.array(keys % buckets, type=pa.int64()))


def minhash_lsh_verified_edges(ds, text_col: str = "text",
                               id_col: str = "doc_id",
                               num_perm: int = 64, bands: int = 16,
                               jaccard_threshold: float = 0.8,
                               shingle_size: int = 3,
                               max_compare: int = 4, concurrency=None,
                               candidate_broadcast_limit: int = 2_500_000):
    """VERIFIED near-dup edges (cand_a=earlier id, cand_b=later id): pairs
    sharing an LSH band bucket whose EXACT n-gram Jaccard >= threshold.

    100-TB shape, two shuffle-light passes over slim tables:
    1. sketch pass: slim (id, band-bucket) rows -> ONE groupby shuffle ->
       per-bucket candidate edges (member, one of its `max_compare` earliest
       bucket peers) — no signatures, no text, no all-pairs blowup.
    2. verify pass: exact ngram_jaccard per candidate edge. Below
       `candidate_broadcast_limit` edges the candidate texts are fetched via
       a filtered scan and broadcast once per worker (cheap at normal dup
       rates). Above it — extreme dup rates where the per-worker candidate
       table would not fit — the texts resolve through the hash-partitioned
       pair join (stages/distributed.gather_pair_values): no broadcast, no
       per-worker copy, memory per task = corpus/buckets.

    No LSH candidates -> an EMPTY (cand_a, cand_b) dataset typed by the id
    column, so consumers need no special case.

    Consumers: `minhash_lsh_dedup` (drops cand_b per edge) and
    `cluster.connected_components` (duplicate-cluster canonicalization).
    """
    from .distributed import (_get_broadcast_table, default_reduce_buckets,
                              fetch_rows_by_ids, gather_pair_values)

    n_coarse = default_reduce_buckets()
    sig_ds = ds.map_batches(
        MinHashStage(num_perm=num_perm, shingle_size=shingle_size, bands=bands,
                     text_col=text_col, id_col=id_col),
        batch_format="pyarrow", concurrency=concurrency)

    def bucket_edges(group):
        """Per coarse partition: emit (cand_a=earlier peer, cand_b=member)
        edges per LSH bucket, capped at max_compare peers per member.

        Vectorized via the sorted-shift trick: after one (bucket, id) sort,
        'j pairs with its k-th predecessor inside the same bucket' is
        exactly 'bucket[j-k] == bucket[j]' (buckets are contiguous when
        sorted), so the candidate set is max_compare boolean shift-compares
        — no per-LSH-bucket Python loop. The previous per-bucket pandas
        iteration was the measured bottleneck at scale: ~1 sub-group per
        1-2 rows across millions of band rows (~50us each) dominated the
        whole dedup pass."""
        idx = pc.sort_indices(group, sort_keys=[("bucket", "ascending"),
                                                (id_col, "ascending")])
        g = group.take(idx)
        b = g.column("bucket").combine_chunks().to_numpy(
            zero_copy_only=False)
        ids = g.column(id_col).combine_chunks()
        n = g.num_rows
        a_parts, b_parts = [], []
        for k in range(1, max_compare + 1):
            if k >= n:
                break
            same = np.nonzero(b[k:] == b[:-k])[0]
            a_parts.append(same)
            b_parts.append(same + k)
        ai = np.concatenate(a_parts) if a_parts else np.array([], np.int64)
        bi = np.concatenate(b_parts) if b_parts else np.array([], np.int64)
        return pa.table(
            {"cand_a": ids.take(pa.array(ai, type=pa.int64())),
             "cand_b": ids.take(pa.array(bi, type=pa.int64()))})

    raw_edges = sig_ds.map_batches(
            lambda b: _coarse_from_bucket(b, n_coarse),
            batch_format="pyarrow") \
        .groupby("_coarse").map_groups(bucket_edges, batch_format="pyarrow")

    # Distinct pairs BEFORE verify: the same (a, b) pair collides in many
    # bands (a true near-dup at J~threshold^{1/rows} hits nearly all of
    # them), and each band emits its own edge row — without this pass the
    # exact-Jaccard verify re-tokenizes both texts once PER COLLIDING BAND
    # (measured ~11x redundant verify work on the corpus-scale bench).
    # Shape: local per-block distinct, then one slim (a, b) shuffle bucketed
    # on cand_a (all copies of a pair share cand_a, so they co-locate), then
    # per-group distinct. Edge rows are two ids — the cheapest possible
    # exchange — and the verify stage downstream does the expensive work
    # exactly once per unique candidate pair.
    from .distributed import _hash_bucket_array

    def local_distinct(batch: pa.Table) -> pa.Table:
        t = batch.group_by(["cand_a", "cand_b"]).aggregate([])
        return t.append_column(
            "_pb", _hash_bucket_array(t.column("cand_a").to_pylist(),
                                      n_coarse))

    def group_distinct(group: pa.Table) -> pa.Table:
        return group.group_by(["cand_a", "cand_b"]).aggregate([])

    edges = raw_edges.map_batches(local_distinct, batch_format="pyarrow") \
        .groupby("_pb").map_groups(group_distinct, batch_format="pyarrow") \
        .materialize()

    n_edges = edges.count()
    if n_edges == 0:
        # empty but correctly typed — consumers (anti-join, connected
        # components) run unconditionally on it, no None special case
        import ray.data

        schema = ds.schema()
        id_type = schema.types[schema.names.index(id_col)]
        return ray.data.from_arrow(pa.table({
            "cand_a": pa.array([], type=id_type),
            "cand_b": pa.array([], type=id_type)}))

    if n_edges * 2 > candidate_broadcast_limit:
        # partitioned verify: resolve both endpoint texts per edge through
        # two co-partitioned shuffles — never a per-worker candidate table
        pairs = gather_pair_values(ds.select_columns([id_col, text_col]),
                                   edges, id_col, text_col)

        def verify_pair(batch: pa.Table) -> pa.Table:
            # gram sets memoized per endpoint id: one doc typically verifies
            # against several peers, and tokenization dominates the kernel
            memo: dict = {}

            def grams_of(key, text):
                g = memo.get(key)
                if g is None:
                    g = memo[key] = _gram_set(text, shingle_size)
                return g

            keep = []
            for i, (a, b, ta, tb) in enumerate(zip(
                    batch.column("cand_a").to_pylist(),
                    batch.column("cand_b").to_pylist(),
                    batch.column("val_a").to_pylist(),
                    batch.column("val_b").to_pylist())):
                if _set_jaccard(grams_of(a, ta),
                                grams_of(b, tb)) >= jaccard_threshold:
                    keep.append(i)
            return batch.select(["cand_a", "cand_b"]).take(
                pa.array(keep, type=pa.int64()))

        return pairs.map_batches(verify_pair, batch_format="pyarrow")

    cand_ids = edges.map_batches(
        lambda b: pa.table({id_col: pa.array(
            b.column("cand_a").to_pylist() + b.column("cand_b").to_pylist(),
            type=b.column("cand_a").type)}),
        batch_format="pyarrow")
    text_refs = fetch_rows_by_ids(ds, cand_ids, id_col,
                                  columns=[id_col, text_col])

    def verify(batch: pa.Table) -> pa.Table:
        t = _get_broadcast_table(text_refs)
        texts = dict(zip(t.column(id_col).to_pylist(),
                         t.column(text_col).to_pylist()))
        memo: dict = {}

        def grams_of(key):
            g = memo.get(key)
            if g is None:
                g = memo[key] = _gram_set(texts.get(key), shingle_size)
            return g

        keep = []
        for i, (a, b) in enumerate(zip(batch.column("cand_a").to_pylist(),
                                       batch.column("cand_b").to_pylist())):
            if _set_jaccard(grams_of(a), grams_of(b)) >= jaccard_threshold:
                keep.append(i)
        return batch.select(["cand_a", "cand_b"]).take(
            pa.array(keep, type=pa.int64()))

    return edges.map_batches(verify, batch_format="pyarrow")


def minhash_lsh_dedup(ds, text_col: str = "text", id_col: str = "doc_id",
                      num_perm: int = 64, bands: int = 16,
                      jaccard_threshold: float = 0.8, shingle_size: int = 3,
                      max_compare: int = 4, concurrency=None,
                      candidate_broadcast_limit: int = 2_500_000):
    """Near-dup removal: a doc is dropped when it shares an LSH band bucket
    with an earlier-id doc whose EXACT n-gram Jaccard >= threshold.
    Passes 1-2 (sketch + verify) live in `minhash_lsh_verified_edges`; this
    adds pass 3 — a distributed anti-join of the later-id edge endpoints
    (stages/distributed.filter_out_ids — no driver materialization)."""
    from .distributed import filter_out_ids

    verified = minhash_lsh_verified_edges(
        ds, text_col=text_col, id_col=id_col, num_perm=num_perm, bands=bands,
        jaccard_threshold=jaccard_threshold, shingle_size=shingle_size,
        max_compare=max_compare, concurrency=concurrency,
        candidate_broadcast_limit=candidate_broadcast_limit)

    def losers(batch: pa.Table) -> pa.Table:
        return pa.table({"drop_id": batch.column("cand_b")})

    drop_ds = verified.map_batches(losers, batch_format="pyarrow")
    return filter_out_ids(ds, drop_ds, id_col)


def near_dup_canonical_filter(ds, text_col: str = "text",
                              id_col: str = "doc_id", **lsh_kwargs):
    """Near-duplicate CLUSTER canonicalization as a row filter: keep exactly
    one representative (the min id) per connected component of the verified
    LSH edge set, drop every other cluster member, pass singletons through.

    The composition: `minhash_lsh_verified_edges`
    (slim sketch shuffle + exact n-gram Jaccard verify) -> connected
    components over the EDGE-TOUCHED nodes only (edge-set-sized, never
    corpus-sized — untouched docs are singletons by construction and never
    enter the CC exchange) -> distributed anti-join of the non-representative
    members. Unlike `minhash_lsh_dedup` (drop the later endpoint of every
    edge), the CC pass keeps exactly one doc per TRANSITIVE cluster — an
    A-B-C chain keeps only A even when (A, C) was never proposed as a pair.
    """
    from .cluster import connected_components
    from .distributed import filter_out_ids

    edges = minhash_lsh_verified_edges(
        ds, text_col=text_col, id_col=id_col, **lsh_kwargs).materialize()
    return _canonical_filter_from_edges(ds, edges, id_col)


def _canonical_filter_from_edges(ds, edges, id_col: str,
                                 string_node_limit: int = 5_000_000):
    """Shared tail of near_dup_canonical_filter: verified (cand_a, cand_b)
    edge Dataset -> connected components -> anti-join of every
    non-representative cluster member out of `ds`.

    connected_components needs int64 node ids (its min-label propagation is
    integer arithmetic); when the corpus keys docs by STRING ids, the
    edge-touched node set — edge-sized, never corpus-sized — is remapped to
    its lexicographic rank. The rank map is order-preserving, so min-rank
    selects exactly the min-string representative. The distinct node
    strings come to the driver once (guarded by `string_node_limit`, the
    same small-side economics as the CC broadcast path — dup edges touch a
    few percent of corpus rows) and ship back as ONE sorted broadcast
    array; beyond the guard the op raises loudly (use integer ids for the
    scale path)."""
    from .cluster import connected_components

    # zero verified edges (a clean corpus) -> nothing to drop; the groupby
    # below would also lose the schema entirely over an empty edge table
    # and crash the string-id path on a missing 'node' column
    if edges.count() == 0:
        return ds

    def endpoints(batch: pa.Table) -> pa.Table:
        vals = pa.concat_arrays(
            [batch.column("cand_a").combine_chunks(),
             batch.column("cand_b").combine_chunks()])
        return pa.table({"node": vals})

    # distinct endpoints via a groupby (edge-sized, stays off the driver);
    # materialized ONCE — the string path reads it twice (guard count +
    # rank pull) and CC iterates over it, and each un-pinned read would
    # re-run the endpoint groupby shuffle over the full edge set
    nodes = edges.map_batches(endpoints, batch_format="pyarrow") \
        .groupby("node").count().select_columns(["node"]).materialize()

    schema = ds.schema()
    id_type = schema.types[schema.names.index(id_col)]
    rank_ref = None
    if pa.types.is_string(id_type) or pa.types.is_large_string(id_type):
        import ray

        n_nodes = nodes.count()
        if n_nodes > string_node_limit:
            raise ValueError(
                f"near_dup_canonical_filter: {n_nodes} distinct string-id "
                f"edge endpoints exceed string_node_limit="
                f"{string_node_limit} — the order-preserving string->rank "
                f"map would not fit the driver; key the corpus by integer "
                f"ids (the scale path) or raise the limit explicitly")
        vals = nodes.to_pandas()["node"].to_numpy(dtype=object)
        vals = vals[np.argsort(vals)]
        sorted_vals = pa.array(vals, type=pa.string())
        rank_ref = ray.put(sorted_vals)

        def remap_edges(batch: pa.Table) -> pa.Table:
            vs = ray.get(rank_ref)  # zero-copy from the local store
            return pa.table({
                "cand_a": pc.cast(pc.index_in(
                    batch.column("cand_a"), value_set=vs), pa.int64()),
                "cand_b": pc.cast(pc.index_in(
                    batch.column("cand_b"), value_set=vs), pa.int64())})

        edges = edges.map_batches(remap_edges, batch_format="pyarrow")
        import ray.data

        nodes = ray.data.range(n_nodes).map_batches(
            lambda b: pa.table(
                {"node": pc.cast(b.column("id"), pa.int64())}),
            batch_format="pyarrow")

    cc = connected_components(nodes, edges, node_col="node",
                              src_col="cand_a", dst_col="cand_b")

    def losers(batch: pa.Table) -> pa.Table:
        keep = pc.not_equal(batch.column("node"), batch.column("cluster_id"))
        drops = batch.filter(keep).column("node").combine_chunks()
        if rank_ref is not None:
            import ray

            drops = ray.get(rank_ref).take(drops)
        return pa.table({"drop_id": drops})

    drop = cc.map_batches(losers, batch_format="pyarrow")
    from .distributed import filter_out_ids

    return filter_out_ids(ds, drop, id_col)


# --------------------------------------------------------------------------
# simhash
# --------------------------------------------------------------------------

# simhash bit i reads bit (8*(i//8) + 7 - i%8) of the token hash — the
# np.unpackbits(little-endian bytes) layout of the original scalar kernel,
# kept so hash values stay stable across the vectorized rewrite
_SIMHASH_SHIFTS = np.array(
    [8 * (i // 8) + (7 - i % 8) for i in range(64)], dtype=np.uint64)
_SIMHASH_WEIGHTS = np.uint64(1) << np.arange(64, dtype=np.uint64)


def simhash64_batch(texts) -> np.ndarray:
    """Vectorized 64-bit simhash over word tokens for a whole batch: one sha1
    per UNIQUE token in the batch (shared across docs), then a single
    bit-matrix gather + per-doc segment reduction — no per-token Python-side
    numpy calls (the r2 kernel unpacked bits token by token)."""
    tok_lists = [_TOKEN_RE.findall((t or "").lower()) for t in texts]
    vocab: dict = {}
    flat, counts = [], []
    for toks in tok_lists:
        counts.append(len(toks))
        for tok in toks:
            idx = vocab.get(tok)
            if idx is None:
                idx = len(vocab)
                vocab[tok] = idx
            flat.append(idx)
    n = len(texts)
    if not vocab:
        return np.zeros(n, dtype=np.uint64)
    digests = b"".join(hashlib.sha1(t.encode()).digest()[:8] for t in vocab)
    h = np.frombuffer(digests, dtype="<u8")
    pm = (((h[:, None] >> _SIMHASH_SHIFTS) & np.uint64(1)).astype(np.int64)
          * 2 - 1)  # (vocab, 64) in {-1, +1}
    V = len(vocab)
    flat_idx = np.asarray(flat, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    seg = np.repeat(np.arange(n, dtype=np.int64), counts)
    accs = np.empty((n, 64), dtype=np.int64)
    # per-doc token-count-over-vocab matrix @ sign matrix; chunked over docs
    # so the dense (docs, vocab) counts stay bounded for huge batch vocabs
    docs_per_chunk = max(1, 4_000_000 // V)
    for s in range(0, n, docs_per_chunk):
        e = min(n, s + docs_per_chunk)
        lo, hi = offsets[s], offsets[e]
        k = (seg[lo:hi] - s) * V + flat_idx[lo:hi]
        cnt = np.bincount(k, minlength=(e - s) * V).reshape(e - s, V)
        accs[s:e] = cnt @ pm
    return ((accs > 0).astype(np.uint64) * _SIMHASH_WEIGHTS).sum(
        axis=1, dtype=np.uint64)


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized 64-bit population count (SWAR) — uint64 in, int64 out."""
    x = x.astype(np.uint64, copy=True)
    x -= (x >> np.uint64(1)) & np.uint64(0x5555555555555555)
    x = (x & np.uint64(0x3333333333333333)) \
        + ((x >> np.uint64(2)) & np.uint64(0x3333333333333333))
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    with np.errstate(over="ignore"):
        x *= np.uint64(0x0101010101010101)
    return (x >> np.uint64(56)).astype(np.int64)


def _explode_simhash_blocks(batch: pa.Table, text_col: str, id_col: str,
                            n_blocks: int) -> pa.Table:
    """(id, simhash, bucket) rows — n_blocks block keys per doc: by
    pigeonhole, docs within Hamming distance n_blocks-1 share at least one
    block. Encoding the block index into the key makes candidate generation a
    single shuffle."""
    texts = batch.column(text_col).to_pylist()
    ids = batch.column(id_col).to_pylist()
    hashes = simhash64_batch(texts)
    width = 64 // n_blocks
    mask = np.uint64((1 << width) - 1)
    out_ids, out_hash, out_bucket = [], [], []
    for blk in range(n_blocks):
        keys = (hashes >> np.uint64(blk * width)) & mask
        for i, doc_id in enumerate(ids):
            out_ids.append(doc_id)
            out_hash.append(int(hashes[i]))
            out_bucket.append((blk << width) | int(keys[i]))
    return pa.table({
        id_col: pa.array(out_ids),
        "simhash": pa.array(np.array(out_hash, dtype=np.uint64).astype(np.int64),
                            type=pa.int64()),
        "bucket": pa.array(out_bucket, type=pa.int64()),
    })


def simhash_dedup(ds, text_col: str = "text", id_col: str = "doc_id",
                  max_hamming: int = 3, max_compare: int = 8):
    """Near-dup removal by simhash: block-key buckets propose candidates in
    one groupby shuffle, exact Hamming distance verifies (each member vs its
    `max_compare` earliest bucket peers, not just the min-id representative).
    Block count = max_hamming + 1 gives the pigeonhole guarantee; Hamming
    budgets beyond 7 are rejected rather than silently losing recall.
    Drop ids filter via distributed anti-join (no driver materialization)."""
    if max_hamming > 7:
        raise ValueError(
            f"max_hamming={max_hamming}: >7 would need >8 blocks and the "
            "64-bit simhash block keys would lose the pigeonhole guarantee")
    from .distributed import filter_out_ids

    from .distributed import default_reduce_buckets

    n_blocks = max_hamming + 1
    n_coarse = default_reduce_buckets()
    slim = ds.map_batches(
        lambda b: _explode_simhash_blocks(b, text_col, id_col, n_blocks),
        batch_format="pyarrow")

    def coarse(batch: pa.Table) -> pa.Table:
        keys = np.asarray(batch.column("bucket").to_pylist(), dtype=np.int64)
        return batch.append_column("_coarse",
                                   pa.array(keys % n_coarse, type=pa.int64()))

    def bucket_losers(group):
        """Sorted-shift vectorization (see minhash bucket_edges): member j
        is a drop when ANY of its max_compare same-bucket predecessors sits
        within the Hamming budget — max_compare shift-compares with a SWAR
        popcount, no per-block-bucket Python loop."""
        idx = pc.sort_indices(group, sort_keys=[("bucket", "ascending"),
                                                (id_col, "ascending")])
        g = group.take(idx)
        b = g.column("bucket").combine_chunks().to_numpy(
            zero_copy_only=False)
        hashes = g.column("simhash").combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.uint64)
        n = g.num_rows
        hit = np.zeros(n, dtype=bool)
        for k in range(1, max_compare + 1):
            if k >= n:
                break
            same = b[k:] == b[:-k]
            dist = _popcount64(hashes[k:] ^ hashes[:-k])
            hit[k:] |= same & (dist <= max_hamming)
        # a drop can appear under several block keys: dedupe locally
        return pa.table({"drop_id": pc.unique(
            g.column(id_col).filter(pa.array(hit)).combine_chunks())})

    drop_ds = slim.map_batches(coarse, batch_format="pyarrow") \
        .groupby("_coarse").map_groups(bucket_losers,
                                       batch_format="pyarrow")
    return filter_out_ids(ds, drop_ds, id_col)


# --------------------------------------------------------------------------
# exact n-gram Jaccard (pair verification)
# --------------------------------------------------------------------------

def _gram_set(t: str, n: int) -> frozenset:
    toks = _TOKEN_RE.findall((t or "").lower())
    if len(toks) < n:
        return frozenset({" ".join(toks)}) if toks else frozenset()
    return frozenset(" ".join(toks[i:i + n])
                     for i in range(len(toks) - n + 1))


def _set_jaccard(a: frozenset, b: frozenset) -> float:
    if not a and not b:
        return 1.0
    u = len(a | b)
    return len(a & b) / u if u else 0.0


def ngram_jaccard(text_a: str, text_b: str, n: int = 3) -> float:
    return _set_jaccard(_gram_set(text_a, n), _gram_set(text_b, n))


# --------------------------------------------------------------------------
# embedding cosine near-dup
# --------------------------------------------------------------------------

def embedding_dedup(ds, vec_col: str = "embedding", id_col: str = "vec_id",
                    cosine_threshold: float = 0.95, num_planes: int = 12,
                    num_tables: int = 2, max_compare: int = 8, seed: int = 7):
    """Near-dup over an embedding column: random-hyperplane LSH buckets
    (`num_tables` independent hyperplane sets — multi-probe, recovering the
    recall a single table loses at bucket boundaries), exact cosine verify of
    each member against its `max_compare` earliest bucket peers, drop ids
    filtered via distributed anti-join.

    Shuffle volume: (id, vec, bucket) per table row — the vector ships
    num_tables times; acceptable because the sketch table is the only thing
    shuffled, never joined back row-wise."""
    from .distributed import default_reduce_buckets, filter_out_ids

    def add_buckets(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).combine_chunks()
        vec_arr = batch.column(vec_col).combine_chunks()
        n = len(ids)
        if n == 0:
            return pa.table({id_col: ids, vec_col: vec_arr,
                             "lsh_bucket": pa.array([], type=pa.int64())})
        dim = len(vec_arr[0])
        # zero-copy flat view of the list<float> column -> (n, dim) matrix
        vecs = vec_arr.flatten().to_numpy(zero_copy_only=False) \
            .astype(np.float32).reshape(n, dim)
        keys = np.empty((num_tables, n), dtype=np.int64)
        for t in range(num_tables):
            rng = np.random.RandomState(seed + 1000 * t)
            planes = rng.randn(dim, num_planes).astype(np.float32)
            bits = (vecs @ planes) > 0
            keys[t] = bits.dot(1 << np.arange(num_planes)).astype(np.int64) \
                + (t << num_planes)  # table id in the high bits
        # replicate rows num_tables times via a vectorized take — no Python
        # list materialization of the vectors
        idx = pa.array(np.tile(np.arange(n, dtype=np.int64), num_tables))
        return pa.table({id_col: ids.take(idx),
                         vec_col: vec_arr.take(idx),
                         "lsh_bucket": pa.array(keys.reshape(-1),
                                                type=pa.int64())})

    bds = ds.select_columns([id_col, vec_col]).map_batches(
        add_buckets, batch_format="pyarrow")

    n_coarse = default_reduce_buckets()

    def coarse(batch: pa.Table) -> pa.Table:
        keys = np.asarray(batch.column("lsh_bucket").to_pylist(), dtype=np.int64)
        return batch.append_column("_coarse",
                                   pa.array(keys % n_coarse, type=pa.int64()))

    def bucket_losers(group):
        """Sorted-shift vectorization (see minhash bucket_edges): row-wise
        normalize once, then each of the max_compare predecessor comparisons
        is ONE einsum over aligned slices gated by a same-bucket mask — no
        per-LSH-bucket Python loop or per-bucket stack."""
        from .similarity import _vec_matrix

        n = group.num_rows
        id_type = group.schema.field(id_col).type
        if n < 2:
            return pa.table({"drop_id": pa.array([], type=id_type)})
        idx = pc.sort_indices(group, sort_keys=[("lsh_bucket", "ascending"),
                                                (id_col, "ascending")])
        g = group.take(idx)
        b = g.column("lsh_bucket").combine_chunks().to_numpy(
            zero_copy_only=False)
        # zero-copy Arrow values-buffer read instead of np.stack over an
        # object array of Python lists
        vecs = _vec_matrix(g.column(vec_col)).astype(np.float32)
        norms = np.linalg.norm(vecs, axis=1)
        norms[norms == 0] = 1.0
        vecs = vecs / norms[:, None]
        hit = np.zeros(n, dtype=bool)
        for k in range(1, max_compare + 1):
            if k >= n:
                break
            same = b[k:] == b[:-k]
            sims = np.einsum("ij,ij->i", vecs[k:], vecs[:-k])
            hit[k:] |= same & (sims >= cosine_threshold)
        return pa.table({"drop_id": pc.unique(
            g.column(id_col).filter(pa.array(hit)).combine_chunks())})

    drop_ds = bds.map_batches(coarse, batch_format="pyarrow") \
        .groupby("_coarse").map_groups(bucket_losers,
                                       batch_format="pyarrow")
    return filter_out_ids(ds, drop_ds, id_col)


def corpus_diff(old_ds, new_ds, text_col: str = "text",
                id_col: str = "doc_id", buckets: int | None = None):
    """Incremental-ingestion primitive: compare two corpus snapshots by id
    and content -> Dataset of (id_col, status) over the UNION of ids, with
    status in {'added', 'removed', 'changed', 'unchanged'} — the planner
    input that lets a 100-TB rerun process only the changed slice instead
    of the whole corpus.

    100-TB shape: each side reduces to SLIM (id, 12-byte sha1 content
    sketch) rows — the text never moves — and the two sides co-partition
    on an id-hash bucket (stages/distributed._hash_bucket_array, the same
    value-stable routing as every other join here); each bucket compares
    locally and emits its status rows. 'changed' vs 'unchanged' is a
    sketch comparison: two DIFFERENT texts share a 96-bit sha1 prefix with
    P ~ 2^-96 (the same bound exact_dedup documents)."""
    import ray.data

    from .distributed import _hash_bucket_array, default_reduce_buckets

    if buckets is None:
        buckets = default_reduce_buckets()

    def side_id_type(ds):
        schema = ds.schema()
        return (None if schema is None
                else schema.types[schema.names.index(id_col)])

    t_old, t_new = side_id_type(old_ds), side_id_type(new_ds)
    # a fully-empty upstream (filter chain that dropped every row) has no
    # schema at all; both sides empty -> a typed empty diff
    if t_old is None and t_new is None:
        return ray.data.from_arrow(pa.table({
            id_col: pa.array([], type=pa.int64()),
            "status": pa.array([], type=pa.string())}))
    # one id type for BOTH sides: snapshots written months apart really do
    # differ in integer width (int32 vs int64 parquet — the case
    # membership_flags casts for); a split union schema would fail the
    # groupby, and taking the old side's narrower type would overflow on
    # 'added' wide ids
    if t_old is None:
        id_type = t_new
    elif t_new is None or t_old.equals(t_new):
        id_type = t_old
    elif pa.types.is_integer(t_old) and pa.types.is_integer(t_new):
        id_type = pa.int64()
    else:
        raise TypeError(
            f"corpus_diff: incompatible {id_col!r} types across snapshots: "
            f"{t_old} vs {t_new}")

    def slim(side: int):
        def f(batch: pa.Table) -> pa.Table:
            texts = batch.column(text_col).to_pylist()
            hashes = [hashlib.sha1((t or "").encode("utf-8")).digest()[:12]
                      for t in texts]
            ids = batch.column(id_col).cast(id_type)
            return pa.table({
                id_col: ids,
                "_h": pa.array(hashes, type=pa.binary(12)),
                "_side": pa.array(
                    np.full(batch.num_rows, side, dtype=np.int8)),
                "_b": _hash_bucket_array(ids.to_pylist(), buckets)})

        return f

    def bucket_status(group: pa.Table) -> pa.Table:
        is_old = pc.equal(group.column("_side"), 0)
        old = group.filter(is_old)
        new = group.filter(pc.invert(is_old))
        old_map = dict(zip(old.column(id_col).to_pylist(),
                           old.column("_h").to_pylist()))
        new_map = dict(zip(new.column(id_col).to_pylist(),
                           new.column("_h").to_pylist()))
        # a duplicate id inside one snapshot would make the status depend
        # on nondeterministic row order (dict last-wins) — refuse loudly;
        # run exact_dedup (or dedupe by id) first
        if len(old_map) != old.num_rows or len(new_map) != new.num_rows:
            from collections import Counter
            side_rows = (old if len(old_map) != old.num_rows else new)
            dup = next(v for v, c in Counter(
                side_rows.column(id_col).to_pylist()).items() if c > 1)
            raise ValueError(
                f"corpus_diff: duplicate {id_col}={dup!r} inside one "
                f"snapshot — statuses would be row-order-dependent; "
                f"dedupe each snapshot by id first")
        ids, status = [], []
        for d, h in new_map.items():
            oh = old_map.get(d)
            if oh is None:
                s = "added"
            elif oh == h:
                s = "unchanged"
            else:
                s = "changed"
            ids.append(d)
            status.append(s)
        for d in old_map:
            if d not in new_map:
                ids.append(d)
                status.append("removed")
        return pa.table({id_col: pa.array(ids, type=id_type),
                         "status": pa.array(status, type=pa.string())})

    def slim_side(ds, side, t):
        if t is None:  # schema-less empty side: a typed empty slim table
            return ray.data.from_arrow(pa.table({
                id_col: pa.array([], type=id_type),
                "_h": pa.array([], type=pa.binary(12)),
                "_side": pa.array([], type=pa.int8()),
                "_b": pa.array([], type=pa.int64())}))
        return ds.map_batches(slim(side), batch_format="pyarrow")

    unioned = slim_side(old_ds, 0, t_old).union(slim_side(new_ds, 1, t_new))
    return unioned.groupby("_b").map_groups(bucket_status,
                                            batch_format="pyarrow")


def apply_corpus_delta(old_ds, delta_ds, id_col: str = "doc_id",
                       op_col: str = "delta_op", buckets: int | None = None):
    """The other half of incremental ingestion (corpus_diff plans, this
    APPLIES): merge a delta table of (id, ..., op in {'upsert', 'delete'})
    into the old snapshot -> the new snapshot. An 'upsert' row replaces the
    old row with that id (or inserts it); a 'delete' removes it; everything
    else carries over — the dataset-level analog of the reference's COPY
    upsert sink (main.py's ON CONFLICT path), expressed as ONE keyed merge.

    100-TB shape: old rows and delta rows co-partition on an id-hash
    bucket (the only shuffle; both sides carry their payload exactly once)
    and each bucket resolves locally — no driver-side state. Duplicate ids
    within the delta are refused loudly (order-dependent winners), and an
    unknown op value is an error, never a silent carry-over."""
    from .distributed import _hash_bucket_array, default_reduce_buckets

    if buckets is None:
        buckets = default_reduce_buckets()
    schema = old_ds.schema()
    payload = [n for n in schema.names if n != id_col]
    full = pa.schema(
        [(id_col, schema.types[schema.names.index(id_col)])]
        + [(n, schema.types[schema.names.index(n)]) for n in payload]
        + [(op_col, pa.string())])

    def tag(is_delta: bool):
        def f(batch: pa.Table) -> pa.Table:
            ids = batch.column(id_col)
            cols = {id_col: ids}
            for n in payload:
                cols[n] = batch.column(n)
            cols[op_col] = (batch.column(op_col) if is_delta
                            else pa.nulls(batch.num_rows, type=pa.string()))
            out = pa.table(cols).cast(full)
            return out.append_column(
                "_b", _hash_bucket_array(ids.to_pylist(), buckets))

        return f

    def bucket_merge(group: pa.Table) -> pa.Table:
        ops = group.column(op_col).to_pylist()
        ids = group.column(id_col).to_pylist()
        delete, upsert_rows = set(), {}
        for i, (d, op) in enumerate(zip(ids, ops)):
            if op is None:
                continue
            if op == "delete":
                delete.add(d)
            elif op == "upsert":
                if d in upsert_rows or d in delete:
                    raise ValueError(
                        f"apply_corpus_delta: duplicate delta rows for "
                        f"{id_col}={d!r} — the winner would be "
                        f"row-order-dependent")
                upsert_rows[d] = i
            else:
                raise ValueError(
                    f"apply_corpus_delta: unknown {op_col}={op!r} for "
                    f"{id_col}={d!r} (expected 'upsert' or 'delete')")
            if d in delete and d in upsert_rows:
                raise ValueError(
                    f"apply_corpus_delta: duplicate delta rows for "
                    f"{id_col}={d!r} — the winner would be "
                    f"row-order-dependent")
        keep = [i for i, (d, op) in enumerate(zip(ids, ops))
                if (op is None and d not in delete and d not in upsert_rows)
                or (op == "upsert")]
        return group.take(pa.array(keep, type=pa.int64())) \
            .drop_columns([op_col, "_b"])

    return old_ds.map_batches(tag(False), batch_format="pyarrow") \
        .union(delta_ds.map_batches(tag(True), batch_format="pyarrow")) \
        .groupby("_b").map_groups(bucket_merge, batch_format="pyarrow")
