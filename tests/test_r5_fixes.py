"""Round-5 regression tests: string doc ids survive the canonical-filter
CC pass, the semdedup cluster scan chunks its similarity temporaries, and
materialize_packs pins its slim assignment projection."""
import numpy as np
import pyarrow as pa
import pytest


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
