"""Round-3 canonicalization operators: connected components, vocabulary
top-k, decontamination, PII redaction, and the minhash verified-edges
refactor — each checked against an in-test brute force (union-find,
Counter, set algebra)."""
import numpy as np
import pyarrow as pa
import pytest


def _brute_cc(nodes, edges):
    """Union-find ground truth: node -> min reachable id."""
    parent = {n: n for n in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {n: find(n) for n in nodes}


class TestConnectedComponents:
    def _run(self, ray, nodes, edges, **kw):
        import ray.data

        from wikidata_edit_history_ray.stages.cluster import \
            connected_components

        nodes_ds = ray.data.from_arrow(pa.table(
            {"node": pa.array(nodes, type=pa.int64())}))
        edges_ds = ray.data.from_arrow(pa.table({
            "src": pa.array([e[0] for e in edges], type=pa.int64()),
            "dst": pa.array([e[1] for e in edges], type=pa.int64())}))
        out = connected_components(nodes_ds, edges_ds, **kw)
        return {r["node"]: r["cluster_id"] for r in out.take_all()}

    def test_chain_star_isolated(self, ray_session):
        # chain 0-1-2-3, star 10<-{11,12,13}, isolated 99
        nodes = [0, 1, 2, 3, 10, 11, 12, 13, 99]
        edges = [(1, 0), (2, 1), (3, 2), (11, 10), (12, 10), (13, 10)]
        got = self._run(ray_session, nodes, edges)
        assert got == _brute_cc(nodes, edges)
        assert got[3] == 0 and got[13] == 10 and got[99] == 99

    def test_randomized_vs_union_find_broadcast_path(self, ray_session):
        rng = np.random.default_rng(7)
        nodes = list(range(400))
        edges = [tuple(rng.choice(400, size=2, replace=False))
                 for _ in range(300)]
        edges = [(int(a), int(b)) for a, b in edges]
        got = self._run(ray_session, nodes, edges)
        assert got == _brute_cc(nodes, edges)

    def test_randomized_iterative_path_identical(self, ray_session):
        # small_edge_limit=0 forces the min-label-propagation rounds
        rng = np.random.default_rng(11)
        nodes = list(range(120))
        edges = [tuple(rng.choice(120, size=2, replace=False))
                 for _ in range(90)]
        edges = [(int(a), int(b)) for a, b in edges]
        got = self._run(ray_session, nodes, edges, small_edge_limit=0)
        assert got == _brute_cc(nodes, edges)

    def test_no_edges_all_singletons(self, ray_session):
        got = self._run(ray_session, [5, 6, 7], [])
        assert got == {5: 5, 6: 6, 7: 7}

    def test_max_iters_raises_loudly(self, ray_session):
        # iterative path (limit=0): pointer jumping reaches ~3 hops in 2
        # rounds, far short of the 12-hop path — must raise, never silently
        # return partial labels
        nodes = list(range(13))
        edges = [(i, i + 1) for i in range(12)]
        with pytest.raises(RuntimeError, match="did not converge"):
            self._run(ray_session, nodes, edges, max_iters=2,
                      small_edge_limit=0)

    def test_custom_column_names(self, ray_session):
        import ray.data

        from wikidata_edit_history_ray.stages.cluster import \
            connected_components

        nodes_ds = ray.data.from_arrow(pa.table(
            {"doc_id": pa.array([1, 2, 3], type=pa.int64())}))
        edges_ds = ray.data.from_arrow(pa.table({
            "a": pa.array([2], type=pa.int64()),
            "b": pa.array([3], type=pa.int64())}))
        out = connected_components(nodes_ds, edges_ds, node_col="doc_id",
                                   src_col="a", dst_col="b")
        got = {r["doc_id"]: r["cluster_id"] for r in out.take_all()}
        assert got == {1: 1, 2: 2, 3: 2}


class TestVocabTopK:
    def test_vs_counter(self, ray_session):
        import re
        from collections import Counter

        import ray.data

        from wikidata_edit_history_ray.stages.text_ops import vocab_topk

        texts = ["The quick Brown fox", "brown FOX jumps 42 times",
                 "fox fox fox", None, "42 And the quick dog"]
        ds = ray.data.from_arrow(pa.table(
            {"text": pa.array(texts, type=pa.string())})).repartition(3)
        got = [(r["token"], r["count"])
               for r in vocab_topk(ds, k=4).take_all()]
        counts = Counter(t for s in texts
                         for t in re.findall(r"[a-z0-9]+", (s or "").lower()))
        exp = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:4]
        assert got == exp

    def test_k_larger_than_vocab(self, ray_session):
        import ray.data

        from wikidata_edit_history_ray.stages.text_ops import vocab_topk

        ds = ray.data.from_arrow(pa.table(
            {"text": pa.array(["a b a"], type=pa.string())}))
        got = [(r["token"], r["count"])
               for r in vocab_topk(ds, k=100).take_all()]
        assert got == [("a", 2), ("b", 1)]


class TestDecontaminate:
    def test_flags_gram_overlap_only(self, ray_session):
        import ray.data

        from wikidata_edit_history_ray.stages.text_ops import \
            decontaminate_flags

        docs = pa.table({
            "doc_id": pa.array([1, 2, 3, 4], type=pa.int64()),
            "text": pa.array([
                "alpha beta gamma delta",      # shares 'alpha beta gamma'
                "beta gamma alpha",            # same tokens, no shared 3-gram
                "unrelated words entirely here",
                "x alpha beta gamma",          # shares via offset
            ], type=pa.string())})
        bench = pa.table({
            "doc_id": pa.array([100], type=pa.int64()),
            "text": pa.array(["zz alpha beta gamma qq"], type=pa.string())})
        ds = ray.data.from_arrow(docs)
        out = decontaminate_flags(ds, ray.data.from_arrow(bench))
        got = {r["doc_id"]: r["contaminated"] for r in out.take_all()}
        assert got == {1: 1, 2: 0, 3: 0, 4: 1}

    def test_shuffle_path_identical_to_broadcast(self, ray_session):
        # broadcast_limit=0 forces the gram-hash co-partition path AND the
        # shuffle flag join; results must match the broadcast path exactly
        import ray.data

        from wikidata_edit_history_ray.stages.text_ops import \
            decontaminate_flags

        rng = np.random.default_rng(13)
        vocab = [f"t{i}" for i in range(40)]
        texts = [" ".join(rng.choice(vocab, size=12)) for _ in range(60)]
        docs = pa.table({
            "doc_id": pa.array(range(60), type=pa.int64()),
            "text": pa.array(texts, type=pa.string())})
        bench = pa.table({
            "doc_id": pa.array([1000, 1001], type=pa.int64()),
            "text": pa.array(texts[:2], type=pa.string())})
        ds = ray.data.from_arrow(docs).repartition(4)
        bds = ray.data.from_arrow(bench)
        base = {r["doc_id"]: r["contaminated"]
                for r in decontaminate_flags(ds, bds).take_all()}
        shuf = {r["doc_id"]: r["contaminated"]
                for r in decontaminate_flags(
                    ds, bds, broadcast_limit=0).take_all()}
        assert shuf == base
        assert base[0] == 1 and base[1] == 1  # bench contains texts[:2]

    def test_membership_flags_both_paths(self, ray_session):
        import ray.data

        from wikidata_edit_history_ray.stages.distributed import \
            membership_flags

        ds = ray.data.from_arrow(pa.table({
            "doc_id": pa.array(range(30), type=pa.int64()),
            "x": pa.array([f"v{i}" for i in range(30)],
                          type=pa.string())})).repartition(3)
        ids = ray.data.from_arrow(pa.table(
            {"doc_id": pa.array([3, 7, 29], type=pa.int64())}))
        exp = {i: int(i in {3, 7, 29}) for i in range(30)}
        for limit in (2_000_000, 0):
            rows = membership_flags(ds, ids, "doc_id",
                                    flag_col="hit",
                                    broadcast_limit=limit).take_all()
            assert {r["doc_id"]: r["hit"] for r in rows} == exp
            # wide columns survive both paths
            assert all(r["x"] == f"v{r['doc_id']}" for r in rows)

    def test_short_docs_never_flagged(self, ray_session):
        import ray.data

        from wikidata_edit_history_ray.stages.text_ops import \
            decontaminate_flags

        ds = ray.data.from_arrow(pa.table({
            "doc_id": pa.array([1], type=pa.int64()),
            "text": pa.array(["only two"], type=pa.string())}))
        bench = ray.data.from_arrow(pa.table({
            "doc_id": pa.array([9], type=pa.int64()),
            "text": pa.array(["only two tokens bench"], type=pa.string())}))
        out = decontaminate_flags(ds, bench)
        assert out.take_all()[0]["contaminated"] == 0


class TestRedactPII:
    def test_known_answers(self):
        from wikidata_edit_history_ray.stages.text_ops import redact_pii

        batch = pa.table({"text": pa.array([
            "mail me at jo.doe+x@ex-ample.co.uk now",
            "card 12345678 and pin 123456",
            "a@b.io or c.d@e.org, ref 99999990000",
            None,
            "clean text"], type=pa.string())})
        out = redact_pii(batch)
        assert out.column("clean_text").to_pylist() == [
            "mail me at <EMAIL> now",
            "card <NUMBER> and pin 123456",
            "<EMAIL> or <EMAIL>, ref <NUMBER>",
            "",
            "clean text"]
        assert out.column("n_emails").to_pylist() == [1, 0, 2, 0, 0]
        assert out.column("n_numbers").to_pylist() == [0, 1, 1, 0, 0]

    def test_digits_inside_email_not_double_counted(self):
        from wikidata_edit_history_ray.stages.text_ops import redact_pii

        batch = pa.table({"text": pa.array(
            ["user1234567@example.com"], type=pa.string())})
        out = redact_pii(batch)
        assert out.column("n_emails").to_pylist() == [1]
        assert out.column("n_numbers").to_pylist() == [0]


class TestTfIdfTopTerms:
    def test_vs_brute_force(self, ray_session):
        import math
        import re
        from collections import Counter

        import ray.data

        from wikidata_edit_history_ray.stages.text_ops import tfidf_top_terms

        texts = ["apple banana apple", "banana cherry", "apple delta delta",
                 None, "cherry cherry cherry epsilon"]
        ds = ray.data.from_arrow(pa.table({
            "doc_id": pa.array(range(5), type=pa.int64()),
            "text": pa.array(texts, type=pa.string())})).repartition(2)
        got = [(r["doc_id"], r["token"], r["score"])
               for r in tfidf_top_terms(ds, k=2).take_all()]
        got.sort()

        n = 5.0
        df = Counter()
        for t in texts:
            df.update(set(re.findall(r"[a-z0-9]+", (t or "").lower())))
        exp = []
        for d, t in enumerate(texts):
            tf = Counter(re.findall(r"[a-z0-9]+", (t or "").lower()))
            if not tf:
                continue
            scored = sorted(((c * math.log(n / df[tok]), tok)
                             for tok, c in tf.items()),
                            key=lambda s: (-s[0], s[1]))[:2]
            exp += [(d, tok, s) for s, tok in scored]
        exp.sort()
        assert got == exp

    def test_empty_docs_emit_nothing(self, ray_session):
        import ray.data

        from wikidata_edit_history_ray.stages.text_ops import tfidf_top_terms

        ds = ray.data.from_arrow(pa.table({
            "doc_id": pa.array([1, 2], type=pa.int64()),
            "text": pa.array(["", "only doc"], type=pa.string())}))
        rows = tfidf_top_terms(ds, k=5).take_all()
        assert {r["doc_id"] for r in rows} == {2}


class TestRepetitionStats:
    def test_known_answers(self):
        from wikidata_edit_history_ray.stages.text_ops import repetition_stats

        batch = pa.table({
            "doc_id": pa.array([1, 2, 3, 4], type=pa.int64()),
            "text": pa.array([
                "a b a b a",        # bigrams: ab,ba,ab,ba -> 4 total 2 dist
                "x y z",            # xy,yz -> 2 total 2 distinct
                "solo",             # <2 tokens
                None], type=pa.string())})
        out = repetition_stats(batch)
        assert out.column("total_bigrams").to_pylist() == [4, 2, 0, 0]
        assert out.column("distinct_bigrams").to_pylist() == [2, 2, 0, 0]
        assert out.column("rep_ratio").to_pylist() == [0.5, 0.0, 0.0, 0.0]


class TestInterleavedSpanPack:
    def _docs(self, n_docs=25, seed=3):
        rng = np.random.default_rng(seed)
        ids, spans = [], []
        for d in range(n_docs):
            ids.append(f"Q{d + 100}")
            doc = []
            for i in range(int(rng.integers(1, 8))):
                if rng.random() < 0.3:
                    doc.append({"kind": "media", "text": "",
                                "media_ref": f"media://x/{d}/{i}",
                                "offset": i})
                else:
                    words = " ".join(
                        f"w{j}" for j in range(int(rng.integers(0, 30))))
                    doc.append({"kind": "text", "text": words,
                                "media_ref": "", "offset": i})
            spans.append(doc)
        return ids, spans

    def test_vs_global_window(self, ray_session):
        import ray.data

        from wikidata_edit_history_ray.stages.packing import \
            interleaved_span_pack

        ids, spans = self._docs()
        ds = ray.data.from_items(
            [{"doc_id": i, "spans": s} for i, s in zip(ids, spans)]) \
            .repartition(4)
        got = sorted(
            (r["doc_id"], r["span_index"], r["span_tokens"], r["pack_id"])
            for r in interleaved_span_pack(
                ds, max_tokens=100, media_token_cost=64).take_all())

        # brute force: global ordered stream, exclusive prefix // budget
        stream = []
        for i, s in zip(ids, spans):
            qnum = int(i[1:])
            for j, sp in enumerate(s):
                tok = (len(sp["text"].split()) if sp["kind"] == "text"
                       else 64)
                stream.append((qnum, j, i, tok))
        stream.sort()
        exp, cum = [], 0
        for qnum, j, i, tok in stream:
            exp.append((i, j, tok, cum // 100))
            cum += tok
        assert got == sorted(exp)

    def test_span_limit_guard(self, ray_session, monkeypatch):
        import ray.data

        from wikidata_edit_history_ray.stages import packing

        # shrink the order-key width so 17 spans already collide (16 = 2^4
        # still fits: max index 15) — the raise itself happens inside the
        # worker-side explode
        monkeypatch.setattr(packing, "_SPAN_IDX_BITS", 4)
        many = [{"kind": "text", "text": "a", "media_ref": "", "offset": i}
                for i in range(17)]
        ds = ray.data.from_items([{"doc_id": "Q1", "spans": many}])
        with pytest.raises(Exception, match="span order key would collide"):
            packing.interleaved_span_pack(ds).take_all()


class TestMinhashVerifiedEdges:
    def _mk(self, ray, n=40):
        import ray.data

        ids, texts = [], []
        for d in range(n):
            toks = [f"w{d}x{i}" for i in range(48)]
            ids.append(d)
            texts.append(" ".join(toks))
            if d % 10 == 0:
                ids.append(d + 1000)
                texts.append(" ".join(toks[:-1] + ["zz"]))
        return ray.data.from_arrow(pa.table({
            "doc_id": pa.array(ids, type=pa.int64()),
            "text": pa.array(texts, type=pa.string())})).repartition(4)

    def _expected(self, n=40):
        return {(d, d + 1000) for d in range(n) if d % 10 == 0}

    def test_broadcast_path(self, ray_session):
        from wikidata_edit_history_ray.stages.dedup_ops import \
            minhash_lsh_verified_edges

        edges = minhash_lsh_verified_edges(self._mk(ray_session))
        got = {(r["cand_a"], r["cand_b"]) for r in edges.take_all()}
        assert got == self._expected()

    def test_partitioned_path_identical(self, ray_session):
        # force the hash-partitioned verify join by shrinking the broadcast
        # comfort limit to zero
        from wikidata_edit_history_ray.stages.dedup_ops import \
            minhash_lsh_verified_edges

        edges = minhash_lsh_verified_edges(
            self._mk(ray_session), candidate_broadcast_limit=0)
        got = {(r["cand_a"], r["cand_b"]) for r in edges.take_all()}
        assert got == self._expected()

    def test_no_dupes_returns_empty_typed_edges(self, ray_session):
        import ray.data

        from wikidata_edit_history_ray.stages.dedup_ops import \
            minhash_lsh_verified_edges

        ds = ray.data.from_arrow(pa.table({
            "doc_id": pa.array([1, 2], type=pa.int64()),
            "text": pa.array([" ".join(f"a{i}" for i in range(30)),
                              " ".join(f"b{i}" for i in range(30))],
                             type=pa.string())}))
        edges = minhash_lsh_verified_edges(ds)
        assert edges.count() == 0
        schema = edges.schema()
        assert schema.names == ["cand_a", "cand_b"]
        assert all(t == pa.int64() for t in schema.types)
