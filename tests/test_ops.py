"""Tests for dedup / text / similarity / enrichment / analysis
operators, cross-checked against DuckDB where SQL can express the semantics."""
import os

import duckdb
import numpy as np
import pyarrow as pa
import pytest

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.001")


@pytest.fixture(scope="module")
def docs_ds(ray_session):
    import ray.data

    return ray.data.read_parquet(f"{SF_DIR}/documents.parquet")


@pytest.fixture(scope="module")
def emb_ds(ray_session):
    import ray.data

    return ray.data.read_parquet(f"{SF_DIR}/embeddings.parquet")


class TestExactDedup:
    def test_matches_duckdb_window(self, ray_session, docs_ds):
        from wikidata_edit_history_ray.stages.dedup_ops import exact_dedup

        got = exact_dedup(docs_ds, text_col="text", id_col="doc_id")
        got_ids = sorted(r["doc_id"] for r in got.select_columns(["doc_id"]).take_all())
        expected = duckdb.sql(f"""
            SELECT doc_id FROM (
              SELECT doc_id, ROW_NUMBER() OVER (PARTITION BY text ORDER BY doc_id) rn
              FROM read_parquet('{SF_DIR}/documents.parquet')) WHERE rn = 1
            ORDER BY doc_id""").fetchall()
        assert got_ids == [r[0] for r in expected]


class TestMinhashSimhash:
    def test_minhash_removes_near_dupes_keeps_distinct(self, ray_session):
        import ray.data

        from wikidata_edit_history_ray.stages.dedup_ops import minhash_lsh_dedup

        base = ("the quick brown fox jumps over the lazy dog and then runs far "
                "away into the deep dark forest tonight while stars shine")
        near = base.replace("tonight", "at midnight")
        distinct = "completely different content about databases and query engines"
        t = pa.table({"doc_id": [1, 2, 3],
                      "text": [base, near, distinct]})
        out = minhash_lsh_dedup(ray.data.from_arrow(t), jaccard_threshold=0.5)
        ids = sorted(r["doc_id"] for r in out.take_all())
        assert ids == [1, 3]

    def test_simhash_dedup(self, ray_session):
        import ray.data

        from wikidata_edit_history_ray.stages.dedup_ops import simhash_dedup

        base = " ".join(f"token{i}" for i in range(60))
        near = base.replace("token5 ", "tok5 ")
        distinct = " ".join(f"other{i}" for i in range(60))
        t = pa.table({"doc_id": [1, 2, 3], "text": [base, near, distinct]})
        out = simhash_dedup(ray.data.from_arrow(t), max_hamming=7)
        ids = sorted(r["doc_id"] for r in out.take_all())
        assert ids == [1, 3]

    def test_simhash_rejects_hamming_beyond_pigeonhole(self, ray_session):
        import pytest
        import ray.data

        from wikidata_edit_history_ray.stages.dedup_ops import simhash_dedup

        t = pa.table({"doc_id": [1], "text": ["x"]})
        with pytest.raises(ValueError):
            simhash_dedup(ray.data.from_arrow(t), max_hamming=8)

    def test_ngram_jaccard(self):
        from wikidata_edit_history_ray.stages.dedup_ops import ngram_jaccard

        assert ngram_jaccard("a b c d", "a b c d") == 1.0
        assert ngram_jaccard("a b c d", "x y z w") == 0.0
        assert 0.0 < ngram_jaccard("a b c d e", "a b c d x") < 1.0


class TestEmbeddingOps:
    def test_brute_force_topk_matches_duckdb(self, ray_session, emb_ds):
        from wikidata_edit_history_ray.stages.similarity import brute_force_topk

        first = emb_ds.take(1)[0]
        q = np.array([first["embedding"]], dtype=np.float32)
        got = brute_force_topk(emb_ds, q, k=5).take_all()
        got_ids = [r["vec_id"] for r in sorted(got, key=lambda r: -r["score"])]
        expected = duckdb.sql(f"""
            WITH q AS (SELECT embedding qv FROM read_parquet('{SF_DIR}/embeddings.parquet')
                       ORDER BY vec_id LIMIT 1)
            SELECT vec_id FROM read_parquet('{SF_DIR}/embeddings.parquet'), q
            ORDER BY list_cosine_similarity(embedding, qv) DESC, vec_id LIMIT 5
        """).fetchall()
        assert got_ids[0] == expected[0][0]
        assert set(got_ids) == {r[0] for r in expected}

    def test_ivf_recall_against_exact(self, ray_session, emb_ds):
        from wikidata_edit_history_ray.stages.similarity import brute_force_topk, ivf_topk

        rows = emb_ds.take(3)
        q = np.array([r["embedding"] for r in rows], dtype=np.float32)
        exact = brute_force_topk(emb_ds, q, k=10).take_all()
        approx = ivf_topk(emb_ds, q, k=10, n_centroids=8, nprobe=4).take_all()
        for qi in range(3):
            e = {r["vec_id"] for r in exact if r["query_idx"] == qi}
            a = {r["vec_id"] for r in approx if r["query_idx"] == qi}
            assert len(e & a) / len(e) >= 0.5  # recall vs exact with 4/8 probes

    def test_embedding_dedup_drops_duplicate_vector(self, ray_session):
        import ray.data

        from wikidata_edit_history_ray.stages.dedup_ops import embedding_dedup

        rng = np.random.RandomState(0)
        v1 = rng.randn(16).astype(np.float32)
        v3 = rng.randn(16).astype(np.float32)
        t = pa.table({"vec_id": [1, 2, 3],
                      "embedding": [v1.tolist(), (v1 * 2).tolist(), v3.tolist()]})
        out = embedding_dedup(ray.data.from_arrow(t), cosine_threshold=0.99)
        assert sorted(r["vec_id"] for r in out.take_all()) == [1, 3]


class TestTextOps:
    def test_language_id(self, ray_session):
        from wikidata_edit_history_ray.stages.text_ops import detect_language

        assert detect_language("the cat and the dog are in the house") == "en"
        assert detect_language("der Hund und die Katze sind schön") == "de"

    def test_token_counts_match_duckdb(self, ray_session, docs_ds):
        from wikidata_edit_history_ray.stages.text_ops import token_counts

        got = docs_ds.map_batches(token_counts, batch_format="pyarrow") \
            .select_columns(["doc_id", "ws_token_count"]).take_all()
        got_map = {r["doc_id"]: r["ws_token_count"] for r in got}
        exp = duckdb.sql(f"""
            SELECT doc_id, length(regexp_extract_all(text, '\\S+'))
            FROM read_parquet('{SF_DIR}/documents.parquet')""").fetchall()
        for doc_id, n in exp:
            assert got_map[doc_id] == n

    def test_quality_and_fingerprint_deterministic(self, ray_session, docs_ds):
        from wikidata_edit_history_ray.stages.text_ops import analyze_text

        out = analyze_text(docs_ds.limit(50)).take_all()
        assert all(0 <= r["quality_score"] <= 1 for r in out)
        out2 = analyze_text(docs_ds.limit(50)).take_all()
        fp1 = {r["doc_id"]: r["fingerprint"] for r in out}
        fp2 = {r["doc_id"]: r["fingerprint"] for r in out2}
        assert fp1 == fp2


class TestEnrichment:
    def test_entity_feature_enrichment(self, ray_session, tmp_path):
        import ray.data

        from wikidata_edit_history_ray.stages.enrich import (
            EntityFeatureEnricher, HashingEmbedder)
        from wikidata_edit_history_ray.state.closure import TransitiveClosureCache

        cache = TransitiveClosureCache.from_edges({
            "subclass_transitive": [("Q5", "Q100"), ("Q100", "Q200")],
        })
        labels = {"Q5": ("human", "a person"), "Q200": ("entity", "top class")}
        enricher = EntityFeatureEnricher(entity_labels=labels, closure_cache=cache,
                                         embedder=HashingEmbedder())
        from wikidata_edit_history_ray.stages.schemas import TABLE_SCHEMAS

        schema = TABLE_SCHEMAS["features_entity"]
        row = {f.name: None for f in schema}
        row.update({"revision_id": 1, "property_id": 31, "value_id": "x",
                    "change_target": "", "action": "UPDATE",
                    "old_value": '"Q5"', "new_value": '"Q200"',
                    "doc_id": "Q1", "is_scholarly_article": False,
                    "is_astronomical_object": False, "has_less_revisions": True})
        batch = pa.Table.from_pylist([row], schema=schema)
        out = enricher(batch).to_pylist()[0]
        assert out["old_value_label"] == "human"
        assert out["new_value_label"] == "entity"
        assert out["old_value_subclass_new_value"] == 1  # Q5 ->* Q200
        assert out["new_value_subclass_old_value"] == 0
        assert out["is_link_change"] == 0
        assert -1.0 <= out["label_cosine_similarity"] <= 1.0

    def test_closure_from_edges_transitivity(self):
        from wikidata_edit_history_ray.state.closure import TransitiveClosureCache

        cache = TransitiveClosureCache.from_edges({
            "part_of_transitive": [("Qa", "Qb"), ("Qb", "Qc"), ("Qc", "Qd")]})
        assert cache.check("Qa", "Qd", "part_of_transitive") == 1
        assert cache.check("Qd", "Qa", "part_of_transitive") == 0


class TestAnalysis:
    @pytest.fixture(scope="class")
    def vc_and_stats(self, ray_session, corpus_parquet):
        from wikidata_edit_history_ray.pipelines.kg import extract_table
        from wikidata_edit_history_ray.sources.io import read_documents

        ds = read_documents(corpus_parquet)
        vc = extract_table(ds, "value_change").materialize()
        es = extract_table(ds, "entity_stats").materialize()
        return vc, es

    def test_property_stats_vs_duckdb(self, vc_and_stats):
        from wikidata_edit_history_ray.pipelines.analysis import property_stats

        vc, _ = vc_and_stats
        got = {r["property_id"]: r for r in property_stats(vc).take_all()}
        con = duckdb.connect()
        con.register("vc", vc.to_pandas())
        exp = con.sql("""
            SELECT property_id, COUNT(DISTINCT entity_id) ne, COUNT(*) nc,
                   COUNT(*) FILTER (action='CREATE') ncr
            FROM vc GROUP BY property_id""").fetchall()
        for pid, ne, nc, ncr in exp:
            assert got[pid]["num_entities"] == ne
            assert got[pid]["num_changes"] == nc
            assert got[pid]["num_creates"] == ncr

    def test_corpus_stats_and_distribution(self, vc_and_stats):
        from wikidata_edit_history_ray.pipelines.analysis import (
            corpus_stats, revision_distribution)

        _, es = vc_and_stats
        g = corpus_stats(es)
        assert g["num_entities"] == es.count()
        assert g["total_revisions"] > 0
        dist = revision_distribution(es).take_all()
        assert sum(r["num_entities"] for r in dist) == es.count()


class TestPackSequences:
    def test_matches_window_oracle(self, ray_session, docs_ds):
        import duckdb

        from wikidata_edit_history_ray.stages.packing import pack_sequences
        from wikidata_edit_history_ray.stages.text_ops import token_counts

        toks = docs_ds.map_batches(token_counts, batch_format="pyarrow") \
            .select_columns(["doc_id", "ws_token_count"])
        got = sorted((r["doc_id"], r["pack_id"])
                     for r in pack_sequences(toks, "ws_token_count", 256).take_all())
        exp = duckdb.sql(f"""
            WITH t AS (SELECT doc_id,
                              length(regexp_extract_all(text, '\\S+'))::BIGINT tok
                       FROM read_parquet('{SF_DIR}/documents.parquet'))
            SELECT doc_id,
                   CAST(FLOOR((SUM(tok) OVER (ORDER BY doc_id
                                ROWS UNBOUNDED PRECEDING) - tok) / 256.0)
                        AS BIGINT)
            FROM t ORDER BY doc_id""").fetchall()
        assert got == [(a, b) for a, b in exp]

    def test_oversized_doc_and_skew(self, ray_session):
        """A doc bigger than the budget owns the pack its first token lands
        in; later docs continue from the running total (never reset)."""
        import pyarrow as pa
        import ray.data

        from wikidata_edit_history_ray.stages.packing import pack_sequences

        t = pa.table({"doc_id": pa.array([1, 2, 3, 4], type=pa.int64()),
                      "tok": pa.array([10, 1000, 10, 10], type=pa.int64())})
        out = {r["doc_id"]: r["pack_id"] for r in pack_sequences(
            ray.data.from_arrow(t), "tok", 100, num_ranges=3).take_all()}
        # prefix-excl: 0, 10, 1010, 1020 -> packs 0, 0, 10, 10
        assert out == {1: 0, 2: 0, 3: 10, 4: 10}

    def test_empty_input(self, ray_session):
        import pyarrow as pa
        import ray.data

        from wikidata_edit_history_ray.stages.packing import pack_sequences

        t = pa.table({"doc_id": pa.array([], type=pa.int64()),
                      "tok": pa.array([], type=pa.int64())})
        assert pack_sequences(ray.data.from_arrow(t), "tok", 100).count() == 0

    def test_schemaless_empty_input(self, ray_session):
        """A filter chain that drops EVERY row yields blocks whose schema()
        is None (not just zero rows) — pack_sequences must return its typed
        empty output, not crash on schema.types (regression: the composed
        flagship at a fully-decontaminated corpus)."""
        import pyarrow as pa
        import ray.data

        from wikidata_edit_history_ray.stages.packing import pack_sequences

        t = pa.table({"doc_id": pa.array([1, 2], type=pa.int64()),
                      "tok": pa.array([5, 5], type=pa.int64())})
        empty = ray.data.from_arrow(t).map_batches(
            lambda b: b.slice(0, 0), batch_format="pyarrow")
        out = pack_sequences(empty, "tok", 100)
        assert out.count() == 0
        assert set(out.schema().names) == {"doc_id", "tok", "pack_id"}


class TestStratifiedSample:
    def test_matches_window_oracle_and_reruns_identical(self, ray_session, docs_ds):
        import duckdb

        from wikidata_edit_history_ray.stages.sampling import stratified_sample

        got = sorted((r["lang"], r["doc_id"]) for r in
                     stratified_sample(docs_ds, "lang", 7).take_all())
        again = sorted((r["lang"], r["doc_id"]) for r in
                       stratified_sample(docs_ds, "lang", 7).take_all())
        assert got == again  # deterministic across runs
        exp = duckdb.sql(f"""
            SELECT lang, doc_id FROM (
              SELECT lang, doc_id, ROW_NUMBER() OVER (
                PARTITION BY lang ORDER BY md5(CAST(doc_id AS VARCHAR))) rn
              FROM read_parquet('{SF_DIR}/documents.parquet')) WHERE rn <= 7
            ORDER BY lang, doc_id""").fetchall()
        assert got == [(a, b) for a, b in exp]

    def test_small_stratum_kept_whole(self, ray_session):
        import pyarrow as pa
        import ray.data

        from wikidata_edit_history_ray.stages.sampling import stratified_sample

        t = pa.table({"doc_id": pa.array(range(10), type=pa.int64()),
                      "lang": ["rare"] * 3 + ["big"] * 7})
        out = stratified_sample(ray.data.from_arrow(t, override_num_blocks=4),
                                "lang", 5).take_all()
        by = {}
        for r in out:
            by.setdefault(r["lang"], []).append(r["doc_id"])
        assert sorted(by["rare"]) == [0, 1, 2]  # under-quota stratum intact
        assert len(by["big"]) == 5


class TestUnigramLogprob:
    def test_matches_duckdb(self, ray_session, docs_ds):
        from wikidata_edit_history_ray.stages.text_ops import unigram_logprob

        got = {r["doc_id"]: (r["n_tokens"], round(r["unigram_logprob"], 6))
               for r in unigram_logprob(
                   docs_ds.select_columns(["doc_id", "text"])).take_all()}
        exp = duckdb.sql(f"""
            WITH toks AS (
              SELECT doc_id,
                     UNNEST(regexp_extract_all(lower(coalesce(text, '')),
                                               '[a-z0-9]+')) AS tok
              FROM read_parquet('{SF_DIR}/documents.parquet')
            ),
            counts AS (SELECT tok, COUNT(*)::DOUBLE c FROM toks GROUP BY tok),
            total AS (SELECT COUNT(*)::DOUBLE n FROM toks)
            SELECT t.doc_id, COUNT(*)::BIGINT,
                   ROUND(AVG(ln(c.c / (SELECT n FROM total))), 6)
            FROM toks t JOIN counts c USING (tok) GROUP BY t.doc_id
        """).fetchall()
        assert got == {d: (n, lp) for d, n, lp in exp}

    def test_empty_docs_emit_nothing(self, ray_session):
        import ray.data

        from wikidata_edit_history_ray.stages.text_ops import unigram_logprob

        t = pa.table({"doc_id": pa.array([1, 2, 3], type=pa.int64()),
                      "text": pa.array(["hello hello world", "", None],
                                       type=pa.string())})
        rows = unigram_logprob(ray.data.from_arrow(t)).take_all()
        assert [r["doc_id"] for r in rows] == [1]
        # counts: hello=2, world=1, total=3
        import math
        exp = (2 * math.log(2 / 3) + math.log(1 / 3)) / 3
        assert abs(rows[0]["unigram_logprob"] - exp) < 1e-12
        assert rows[0]["n_tokens"] == 3


class TestKMeans:
    def test_assign_matches_duckdb(self, ray_session, emb_ds):
        from wikidata_edit_history_ray.stages.similarity import kmeans_assign

        got = {r["vec_id"]: (r["cluster"], round(r["dist"], 6))
               for r in kmeans_assign(
                   emb_ds.select_columns(["vec_id", "embedding"]),
                   k=8).take_all()}
        exp = duckdb.sql(f"""
            WITH c AS (
              SELECT embedding AS cvec,
                     ROW_NUMBER() OVER (ORDER BY vec_id) - 1 AS cluster
              FROM read_parquet('{SF_DIR}/embeddings.parquet')
              ORDER BY vec_id LIMIT 8
            ),
            d AS (
              SELECT e.vec_id, c.cluster,
                     list_sum(list_transform(list_zip(e.embedding, c.cvec),
                       x -> (CAST(x[1] AS DOUBLE)
                             - CAST(x[2] AS DOUBLE)) ** 2)) AS dist
              FROM read_parquet('{SF_DIR}/embeddings.parquet') e
              CROSS JOIN c
            )
            SELECT vec_id, cluster::BIGINT, ROUND(dist, 6) FROM d
            QUALIFY ROW_NUMBER() OVER (
              PARTITION BY vec_id ORDER BY dist, cluster) = 1
        """).fetchall()
        assert got == {v: (c, dd) for v, c, dd in exp}

    def test_fit_matches_local_lloyd(self, ray_session, emb_ds):
        """Distributed partial-sum Lloyd == single-process numpy Lloyd."""
        from wikidata_edit_history_ray.stages.similarity import kmeans_fit

        import pyarrow.parquet as pq

        t = pq.read_table(f"{SF_DIR}/embeddings.parquet",
                          columns=["vec_id", "embedding"])
        order = np.argsort(np.array(t.column("vec_id").to_pylist()))
        X = np.array(t.column("embedding").to_pylist(),
                     dtype=np.float64)[order]
        C = X[:8].copy()
        for _ in range(3):
            d2 = ((X[:, None, :] - C[None, :, :]) ** 2).sum(axis=2)
            a = np.argmin(d2, axis=1)
            for j in range(8):
                m = X[a == j]
                if len(m):
                    C[j] = m.mean(axis=0)
        got = kmeans_fit(emb_ds.select_columns(["vec_id", "embedding"]),
                         k=8, iters=3)
        # means accumulate in different order across partials -> tolerance
        assert np.allclose(got, C, rtol=1e-9, atol=1e-12)


