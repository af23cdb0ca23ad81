"""Round-5 regression tests: stratum keys are value-stable across block
null composition, the fast siphash rank mode is deterministic and md5 mode
is untouched, schema-less empty upstreams return typed empty quantiles,
string doc ids survive the canonical-filter CC pass, the semdedup cluster
scan chunks its similarity temporaries, and materialize_packs pins its slim
assignment projection."""
import numpy as np
import pyarrow as pa
import pytest


class TestStratumKeyNullBlocks:
    """ADVICE r4 (high): an int64 stratum column becomes float64 only in
    blocks containing a null, so str() keyed the same stratum as '5' in
    null-free blocks and '5.0' in null-containing ones — one stratum became
    two groups and the sampler returned up to 2k rows."""

    def test_int_stratum_split_across_null_and_nullfree_blocks(
            self, ray_session):
        import ray.data

        from wikidata_edit_history_ray.stages.sampling import (
            stratified_sample, weighted_sample)

        t1 = pa.table({"doc_id": pa.array([1, 2, 3], pa.int64()),
                       "stratum": pa.array([5, 5, 5], pa.int64()),
                       "weight": pa.array([1.0, 1.0, 1.0])})
        t2 = pa.table({"doc_id": pa.array([4, 5, 6, 7], pa.int64()),
                       "stratum": pa.array([5, 5, 5, None], pa.int64()),
                       "weight": pa.array([1.0] * 4)})
        ds = ray.data.from_arrow([t1, t2])

        out = stratified_sample(ds, "stratum", 2).to_pandas()
        assert (out.stratum == 5).sum() == 2  # was up to 4 pre-fix
        assert out.stratum.isna().sum() == 1

        ws = weighted_sample(ds, "weight", 2, stratum_col="stratum") \
            .to_pandas()
        assert (ws.stratum == 5).sum() == 2
        assert ws.stratum.isna().sum() == 1

    def test_key_normalizes_integral_floats(self):
        from wikidata_edit_history_ray.stages.sampling import (
            _NULL_STRAT, _strat_keys)

        assert _strat_keys(pa.array([5, 7], pa.int64())) == ["5", "7"]
        assert _strat_keys(pa.array([5.0, 7.0, float("nan"), None])) == \
            ["5", "7", _NULL_STRAT, _NULL_STRAT]
        assert _strat_keys(pa.array([2.5, None])) == ["2.5", _NULL_STRAT]
        # above 2^53 the Arrow-derived key stays EXACT — a pandas-derived
        # key in a null-containing block would round through float64 and
        # merge the two strata
        big = 2 ** 60
        assert _strat_keys(pa.array([big, big + 1, None], pa.int64())) == \
            [str(big), str(big + 1), _NULL_STRAT]

    def test_null_id_raises_loudly(self, ray_session):
        from wikidata_edit_history_ray.stages.sampling import (
            _fast_rank, _md5_rank)

        for rank in (_md5_rank, _fast_rank):
            with pytest.raises(ValueError, match="non-null id"):
                rank([1, None, 3])

    def test_fast_hash_pure_across_block_dtype(self):
        """The fast hash of an id must not depend on its block's dtype:
        int64 blocks and float64-coerced (null-padded) blocks hash the
        same values identically; non-integral float ids raise."""
        from wikidata_edit_history_ray.stages.sampling import _fast_hash64

        ints = _fast_hash64(np.array([1, 2, 3], dtype=np.int64))
        floats = _fast_hash64(np.array([1.0, 2.0, 3.0]))
        assert list(ints) == list(floats)
        with pytest.raises(ValueError, match="non-integral"):
            _fast_hash64(np.array([1.5, 2.0]))


class TestFastRankMode:
    """VERDICT r4 task 2: keyed-siphash fast path beside the md5
    oracle-parity mode — both deterministic, md5 results unchanged."""

    def _docs(self, n=60, blocks=4):
        import ray.data

        return ray.data.from_arrow(pa.table({
            "doc_id": list(range(n)),
            "stratum": [i % 3 for i in range(n)],
            "weight": [1.0 + (i % 5) for i in range(n)]}),
            override_num_blocks=blocks)

    def test_stratified_fast_deterministic_and_partition_invariant(
            self, ray_session):
        from wikidata_edit_history_ray.stages.sampling import \
            stratified_sample

        a = stratified_sample(self._docs(blocks=4), "stratum", 4,
                              rank_mode="fast").to_pandas()
        b = stratified_sample(self._docs(blocks=7), "stratum", 4,
                              rank_mode="fast").to_pandas()
        assert sorted(a.doc_id) == sorted(b.doc_id)
        assert a.groupby("stratum").size().eq(4).all()

    def test_weighted_fast_deterministic(self, ray_session):
        from wikidata_edit_history_ray.stages.sampling import \
            weighted_sample

        a = weighted_sample(self._docs(blocks=3), "weight", 5,
                            rank_mode="fast").to_pandas()
        b = weighted_sample(self._docs(blocks=6), "weight", 5,
                            rank_mode="fast").to_pandas()
        assert sorted(a.doc_id) == sorted(b.doc_id) and len(a) == 5

    def test_hash_split_fast_covers_all_rows(self, ray_session):
        from wikidata_edit_history_ray.stages.sampling import hash_split

        out = hash_split(self._docs(), rank_mode="fast").to_pandas()
        assert set(out.split) <= {"train", "val", "test"}
        assert len(out) == 60
        # deterministic: same assignment on a different partitioning
        out2 = hash_split(self._docs(blocks=9), rank_mode="fast").to_pandas()
        assert dict(zip(out.doc_id, out.split)) == \
            dict(zip(out2.doc_id, out2.split))

    def test_corpus_mix_fast(self, ray_session):
        import ray.data

        from wikidata_edit_history_ray.stages.sampling import corpus_mix

        ds = ray.data.from_arrow(pa.table({
            "doc_id": list(range(40)),
            "grp": ["a" if i % 2 else "b" for i in range(40)]}),
            override_num_blocks=3)
        out = corpus_mix(ds, "grp", {"a": 0.5, "b": 0.25}, 8,
                         rank_mode="fast").to_pandas()
        assert (out.grp == "a").sum() == 4 and (out.grp == "b").sum() == 2

    def test_md5_mode_unchanged(self, ray_session):
        """The md5 default must produce the exact pre-round-5 sample (the
        oracle-parity contract): restate the rank inline and compare."""
        import hashlib

        from wikidata_edit_history_ray.stages.sampling import \
            stratified_sample

        out = stratified_sample(self._docs(), "stratum", 4).to_pandas()
        expect = {}
        for i in range(60):
            expect.setdefault(i % 3, []).append(
                (hashlib.md5(str(i).encode()).hexdigest(), i))
        want = sorted(d for s in expect.values()
                      for _, d in sorted(s)[:4])
        assert sorted(out.doc_id) == want

    def test_bad_mode_raises(self, ray_session):
        from wikidata_edit_history_ray.stages.sampling import (
            hash_split, stratified_sample, weighted_sample)

        ds = self._docs(n=4, blocks=1)
        with pytest.raises(ValueError, match="rank_mode"):
            stratified_sample(ds, "stratum", 1, rank_mode="sha9")
        with pytest.raises(ValueError, match="rank_mode"):
            weighted_sample(ds, "weight", 1, rank_mode="sha9")
        with pytest.raises(ValueError, match="rank_mode"):
            hash_split(ds, rank_mode="sha9")


class TestQuantilesSchemaNone:
    """ADVICE r4 (low): a schema-less fully-empty upstream must return the
    typed empty quantile table, not AttributeError on None."""

    def _empty_ds(self, ray_session):
        import ray.data

        # a filter over an already-empty table yields a dataset whose
        # schema() is None (the pack_sequences contract case)
        return ray.data.from_arrow(pa.table({
            "n_tokens": pa.array([], type=pa.int64()),
            "lang": pa.array([], type=pa.string())})) \
            .filter(expr="n_tokens > 1")

    def test_column_quantiles_empty(self, ray_session):
        from wikidata_edit_history_ray.stages.profile import \
            column_quantiles

        out = column_quantiles(self._empty_ds(ray_session), "n_tokens")
        assert out.count() == 0
        # (to_pandas drops columns on zero-row datasets — check the schema)
        assert out.schema().names == ["q", "value"]

    def test_grouped_quantiles_empty(self, ray_session):
        from wikidata_edit_history_ray.stages.profile import \
            grouped_quantiles

        out = grouped_quantiles(self._empty_ds(ray_session), "n_tokens",
                                "lang")
        assert out.count() == 0
        assert out.schema().names == ["lang", "q", "value"]


class TestStringIdCanonicalFilter:
    """ADVICE r4 (low): string doc ids crashed the CC pass with an opaque
    ValueError; now they rank-map (order-preserving, so the lexicographic
    min string is the representative) and CC validates loudly."""

    BASE = ("the quick brown fox jumps over the lazy dog again and "
            "again today and tomorrow for a long time")

    def _docs(self, ids):
        import ray.data

        texts = []
        for i in range(len(ids)):
            if i < 3:  # one near-dup family on the first three ids
                texts.append(self.BASE + f" variant {i}")
            else:
                texts.append(" ".join(f"uniq{i}w{j}" for j in range(14)))
        return ray.data.from_arrow(pa.table(
            {"doc_id": ids, "text": texts}), override_num_blocks=4)

    def test_string_ids_keep_min_string_representative(self, ray_session):
        from wikidata_edit_history_ray.stages.dedup_ops import \
            near_dup_canonical_filter

        ids = [f"D{i:03d}" for i in range(20)]
        kept = set(near_dup_canonical_filter(
            self._docs(ids), jaccard_threshold=0.5, num_perm=32,
            bands=16).to_pandas().doc_id)
        assert "D000" in kept
        assert "D001" not in kept and "D002" not in kept
        assert set(ids[3:]) <= kept

    def test_string_result_matches_int_result(self, ray_session):
        from wikidata_edit_history_ray.stages.dedup_ops import \
            near_dup_canonical_filter

        kw = dict(jaccard_threshold=0.5, num_perm=32, bands=16)
        int_kept = sorted(near_dup_canonical_filter(
            self._docs(list(range(20))), **kw).to_pandas().doc_id)
        str_kept = sorted(near_dup_canonical_filter(
            self._docs([f"D{i:03d}" for i in range(20)]), **kw)
            .to_pandas().doc_id)
        assert [f"D{i:03d}" for i in int_kept] == str_kept

    def test_node_limit_guard(self, ray_session):
        from wikidata_edit_history_ray.stages.dedup_ops import (
            _canonical_filter_from_edges, minhash_lsh_verified_edges)

        ids = [f"D{i:03d}" for i in range(20)]
        ds = self._docs(ids)
        edges = minhash_lsh_verified_edges(
            ds, jaccard_threshold=0.5, num_perm=32, bands=16).materialize()
        with pytest.raises(ValueError, match="string_node_limit"):
            _canonical_filter_from_edges(ds, edges, "doc_id",
                                         string_node_limit=1)

    def test_string_ids_zero_edges_pass_through(self, ray_session):
        """A clean string-id corpus (no near-dups -> empty verified edge
        set) must pass every doc through, not crash the endpoints groupby
        on a schema-less empty edge table (r5 review finding)."""
        import ray.data

        from wikidata_edit_history_ray.stages.dedup_ops import \
            near_dup_canonical_filter

        ids = [f"D{i:03d}" for i in range(12)]
        docs = ray.data.from_arrow(pa.table({
            "doc_id": ids,
            "text": [" ".join(f"only{i}w{j}" for j in range(14))
                     for i in range(12)]}), override_num_blocks=3)
        kept = near_dup_canonical_filter(
            docs, jaccard_threshold=0.5, num_perm=32, bands=16).to_pandas()
        assert sorted(kept.doc_id) == ids

    def test_cc_rejects_string_endpoints_loudly(self, ray_session):
        import ray.data

        from wikidata_edit_history_ray.stages.cluster import \
            connected_components

        nodes = ray.data.from_arrow(pa.table({"node": ["a", "b"]}))
        edges = ray.data.from_arrow(pa.table(
            {"src": ["a"], "dst": ["b"]}))
        with pytest.raises(Exception, match="integer edge endpoints"):
            connected_components(nodes, edges).to_pandas()


class TestSemdedupChunkedScan:
    """VERDICT r4 task 1: a planted hot cluster must scan through bounded
    (n x chunk) temporaries — forcing tiny chunks must not change a bit."""

    def test_chunked_equals_unchunked_on_hot_cluster(self, ray_session,
                                                     monkeypatch):
        import ray.data

        from wikidata_edit_history_ray.stages import similarity

        rng = np.random.RandomState(11)
        base = rng.randn(2, 12)
        # every vector lands in ONE of two clusters; cluster 0 is hot
        vecs, ids = [], []
        for i in range(120):
            b = base[0 if i % 4 else 1]
            v = b + (0.01 if i % 2 == 0 else 0.7) * rng.randn(12)
            vecs.append(v.tolist())
            ids.append(i)
        ds = ray.data.from_arrow(pa.table(
            {"vec_id": ids,
             "embedding": pa.array(vecs, type=pa.list_(pa.float64()))}),
            override_num_blocks=5)

        big = similarity.semdedup(ds, k=2, threshold=0.9).to_pandas() \
            .sort_values("vec_id").reset_index(drop=True)
        # force many chunks: budget of 120 elems over ~90-row clusters
        # means chunk size 1 — the maximally-sliced scan
        monkeypatch.setattr(similarity, "_SCAN_CHUNK_ELEMS", 120)
        small = similarity.semdedup(ds, k=2, threshold=0.9).to_pandas() \
            .sort_values("vec_id").reset_index(drop=True)
        assert big.equals(small)
        assert small.is_dup.sum() > 0

    def test_chunk_temp_bound_arithmetic(self):
        """The (e, e-s) temp never exceeds the element budget (for any
        cluster size n >= 1), modulo the chunk>=1 floor."""
        budget = 4_000_000
        for n in (1, 10, 1_000, 2_000, 10_000, 1_000_000):
            chunk = max(1, budget // max(1, n))
            assert chunk * n <= max(budget, n)


class TestMaterializePacksPinnedSlim:
    """ADVICE r4 (low): the path-choosing count and the chosen path must
    read ONE pinned slim projection — the upstream lineage executes once."""

    def test_upstream_lineage_executes_once(self, ray_session, tmp_path):
        import ray.data

        from wikidata_edit_history_ray.stages.packing import (
            materialize_packs, pack_sequences)

        marker = tmp_path / "exec_count"
        marker.mkdir()

        texts = {i: " ".join("w%d" % j for j in range(3)) for i in range(20)}
        docs = ray.data.from_arrow(pa.table(
            {"doc_id": list(texts), "text": list(texts.values())}))

        def counted(batch: pa.Table) -> pa.Table:
            import os
            import uuid

            (marker / uuid.uuid4().hex).write_text(str(os.getpid()))
            return pa.table({
                "doc_id": batch.column("doc_id"),
                "ws": pa.array([3] * batch.num_rows, type=pa.int64())})

        slim = docs.map_batches(counted, batch_format="pyarrow") \
            .repartition(1)
        packed = pack_sequences(slim, token_col="ws", max_tokens=10,
                                order_col="doc_id")
        n_packed = packed.count()
        before = len(list(marker.iterdir()))
        out = materialize_packs(docs, packed, token_col="ws").to_pandas()
        after = len(list(marker.iterdir()))
        assert len(out) == (20 * 3 + 9) // 10
        # pack_sequences pins its own slim projection, so `counted` ran a
        # fixed number of times before; materialize_packs must not re-run it
        assert after == before, (before, after)
        assert n_packed == 20
