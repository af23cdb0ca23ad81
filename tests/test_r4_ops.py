"""Round-4 regression tests: kernel rewrites stay bit-identical to the
pinned scalar spec, tfidf derives N from its own partial pass, the
decontaminate shuffle path matches the broadcast path through the 128-bit
gram keys, and null bucket routing is value-stable."""
import numpy as np
import pyarrow as pa
import pytest

from wikidata_edit_history_ray.sources.text_expect import (_BPE_RE,
                                                           expected_quality)
from wikidata_edit_history_ray.stages.text_ops import (quality_score,
                                                       token_counts)

ADVERSARIAL = [
    "", "   ", "hello world the and of", "a" * 5000, "!!!,,,..",
    "the the the", "héllo wörld — naïve… «quoted»", "Σ ΣΙΓΜΑ ΤΈΛΟΣ",
    "tab\tsep\nlines\r\nmore", "日本語のテキスト、句読点。",
    "mixed 123 abc_def !@#", "\x1c\x1d\x1e\x1f seps", "ends with sigma Σ",
    None, "word", "a b c d e f g h i j k l m n o p",
]


class TestKernelExactness:
    def test_quality_score_matches_scalar_spec(self):
        import random
        import string

        rng = random.Random(7)
        alpha = (string.ascii_letters + string.digits + string.punctuation
                 + " \t\n" + "éßΣσς日本ü")
        rand = ["".join(rng.choice(alpha)
                        for _ in range(rng.randrange(0, 300)))
                for _ in range(300)]
        cases = ADVERSARIAL + rand
        t = pa.table({"text": pa.array(cases, type=pa.string())})
        out = quality_score(t)
        for i, c in enumerate(cases):
            got = out.column("quality_score")[i].as_py()
            assert got == expected_quality(c or ""), (i, repr(c))

    def test_token_counts_matches_scalar_spec(self):
        t = pa.table({"text": pa.array(ADVERSARIAL, type=pa.string())})
        out = token_counts(t)
        for i, c in enumerate(ADVERSARIAL):
            got = out.column("bpe_token_count")[i].as_py()
            assert got == len(_BPE_RE.findall(c or "")), (i, repr(c))


class TestTfidfSinglePass:
    def test_tfidf_on_transformed_input(self, ray_session):
        """N must come out of the df pass itself: run over a TRANSFORMED
        (map_batches) input — the old ds.count() would have re-executed the
        transform a third time; correctness of scores pins that N == rows."""
        import math

        import ray.data

        from wikidata_edit_history_ray.stages.text_ops import tfidf_top_terms

        rows = pa.table({
            "doc_id": pa.array(list(range(8)), type=pa.int64()),
            "text": pa.array(["aa bb", "aa cc", "bb cc", "aa aa dd",
                              "", "dd", "ee ee ff", "ff gg"]),
        })
        ds = ray.data.from_arrow(rows).map_batches(
            lambda b: b, batch_format="pyarrow")
        out = tfidf_top_terms(ds, k=1).to_pandas()
        # brute-force reference
        import collections
        docs = {d: (t or "").lower().split()
                for d, t in zip(rows.column("doc_id").to_pylist(),
                                rows.column("text").to_pylist())}
        df = collections.Counter()
        for toks in docs.values():
            df.update(set(toks))
        n = float(len(docs))
        for _, r in out.iterrows():
            toks = collections.Counter(docs[r["doc_id"]])
            best = sorted(((c * math.log(n / df[t]), t)
                           for t, c in toks.items()),
                          key=lambda s: (-s[0], s[1]))[0]
            assert r["token"] == best[1]
            assert r["score"] == best[0]
        assert set(out["doc_id"]) == {d for d, t in docs.items() if t}

    def test_sentinel_never_emitted_as_token(self, ray_session):
        import ray.data

        from wikidata_edit_history_ray.stages.text_ops import tfidf_top_terms

        ds = ray.data.from_arrow(pa.table({
            "doc_id": pa.array([1, 2], type=pa.int64()),
            "text": pa.array(["n docs", "x00n docs"])}))
        out = tfidf_top_terms(ds, k=5).to_pandas()
        assert not any(tok.startswith("\x00") for tok in out["token"])


class TestDecontaminateHashedShufflePath:
    def test_shuffle_equals_broadcast(self, ray_session):
        import ray.data

        from wikidata_edit_history_ray.stages.text_ops import \
            decontaminate_flags

        texts = [f"alpha beta gamma delta {i}" for i in range(40)] + \
            ["the quick brown fox jumps", "unrelated words entirely here"]
        docs = ray.data.from_arrow(pa.table({
            "doc_id": pa.array(list(range(len(texts))), type=pa.int64()),
            "text": pa.array(texts)}))
        bench = ray.data.from_arrow(pa.table({
            "doc_id": pa.array([100], type=pa.int64()),
            "text": pa.array(["quick brown fox story alpha beta gamma"])}))
        b = decontaminate_flags(docs, bench).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        s = decontaminate_flags(docs, bench, broadcast_limit=0,
                                buckets=4).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        assert b.equals(s)
        assert int(b["contaminated"].sum()) == 41  # 40 alpha-beta-gamma + fox


class TestNullBucketRouting:
    def test_all_null_batch_routes_like_mixed_batch(self):
        from wikidata_edit_history_ray.stages.distributed import \
            _hash_bucket_array

        mixed = _hash_bucket_array([None, 7, None], 5).to_pylist()
        assert mixed == [0, 2, 0]
        all_null = _hash_bucket_array([None, None], 5).to_pylist()
        assert all_null == [0, 0]
        # string path: nulls also pin to 0, non-nulls keep the string hash
        svals = _hash_bucket_array(["a", None, "b"], 5).to_pylist()
        s_only = _hash_bucket_array(["a", "b"], 5).to_pylist()
        assert svals[1] == 0
        assert [svals[0], svals[2]] == s_only


class TestChunkDedup:
    DOCS = {
        1: "a b c d e f g h i",
        2: "a b c x y z q r s",
        3: "x y z q r s extra words here",
        4: "unique words only in this document right here now ok",
        5: "a b c a b c a b c",     # every block frequent -> NULL clean_text
        6: "",                      # '' chunk, shared with doc 7 -> frequent
        7: "",
    }

    def _brute(self, w=3, md=2):
        from collections import Counter

        from wikidata_edit_history_ray.stages.text_ops import _doc_chunks

        c = Counter()
        for t in self.DOCS.values():
            for ch in set(_doc_chunks(t, w)):
                c[ch] += 1
        freq = {k for k, v in c.items() if v >= md}
        out = {}
        for d, t in self.DOCS.items():
            chs = _doc_chunks(t, w)
            kept = [x for x in chs if x not in freq]
            out[d] = (" ".join(kept) if kept else None,
                      len(chs) - len(kept), len(chs))
        return out

    @pytest.mark.parametrize("broadcast_limit", [2_000_000, 0],
                             ids=["broadcast", "shuffle"])
    def test_matches_bruteforce_both_paths(self, ray_session,
                                           broadcast_limit):
        import ray.data

        from wikidata_edit_history_ray.stages.text_ops import chunk_dedup

        ds = ray.data.from_arrow(pa.table(
            {"doc_id": list(self.DOCS), "text": list(self.DOCS.values())}))
        res = chunk_dedup(ds, broadcast_limit=broadcast_limit) \
            .to_pandas().set_index("doc_id").sort_index()
        got = {d: (r.clean_text if isinstance(r.clean_text, str) else None,
                   int(r.removed_chunks), int(r.total_chunks))
               for d, r in res.iterrows()}
        assert got == self._brute()

    def test_min_docs_one_rejected(self, ray_session):
        import ray.data

        from wikidata_edit_history_ray.stages.text_ops import chunk_dedup

        ds = ray.data.from_arrow(pa.table({"doc_id": [1], "text": ["a"]}))
        with pytest.raises(ValueError, match="min_docs"):
            chunk_dedup(ds, min_docs=1)

    def test_sliced_key_bucket_stability(self):
        """_bucket_from_key128 on a sliced array must bucket by VALUE —
        a slice's data buffer belongs to the parent array."""
        from wikidata_edit_history_ray.stages.text_ops import (
            _bucket_from_key128, _gram_hash128)

        keys, bk = _gram_hash128(["aa", "bb", "cc", "dd"], 64)
        whole = _bucket_from_key128(keys, 64)
        assert list(whole) == list(bk)
        part = _bucket_from_key128(keys.slice(2), 64)
        assert list(part) == list(bk[2:])


class TestSemDedup:
    def test_matches_bruteforce(self, ray_session):
        """Planted tight cliques: cluster + within-cluster lower-id cosine
        scan vs a brute-force reference, across blocks."""
        import ray.data

        from wikidata_edit_history_ray.stages.similarity import semdedup

        rng = np.random.RandomState(3)
        base = rng.randn(6, 16)
        vecs, ids = [], []
        for i in range(90):
            b = base[i % 6]
            # planted near-dups: every third vector is a tiny perturbation
            v = b + (0.01 if i % 3 == 0 else 0.8) * rng.randn(16)
            vecs.append(v.tolist())
            ids.append(i)

        X = np.array(vecs)
        order = np.argsort(ids)
        C = X[order[:4]]
        d2 = ((X[:, None, :] - C[None, :, :]) ** 2).sum(axis=2)
        a = d2.argmin(axis=1)
        n = X / np.linalg.norm(X, axis=1, keepdims=True)
        expect = {}
        for c in set(a):
            m = np.where(a == c)[0]
            S = np.round(n[m] @ n[m].T, 6)
            for pos, i in enumerate(m):
                expect[i] = int((S[pos, :pos] > 0.9).any())

        ds = ray.data.from_arrow(pa.table(
            {"vec_id": ids,
             "embedding": pa.array(vecs, type=pa.list_(pa.float64()))}),
            override_num_blocks=5)
        res = semdedup(ds, k=4, threshold=0.9).to_pandas()
        got = dict(zip(res.vec_id, res.is_dup))
        assert got == expect
        assert res.is_dup.sum() > 0 and res.is_dup.sum() < len(res)

    def test_exemplar_never_dup(self, ray_session):
        """The lowest id of every cluster is by construction kept."""
        import ray.data

        from wikidata_edit_history_ray.stages.similarity import semdedup

        vecs = [[1.0, 0.0], [1.0, 0.001], [0.0, 1.0], [0.001, 1.0]]
        ds = ray.data.from_arrow(pa.table(
            {"vec_id": [10, 11, 20, 21],
             "embedding": pa.array(vecs, type=pa.list_(pa.float64()))}))
        res = semdedup(ds, k=2, threshold=0.99).to_pandas() \
            .sort_values("vec_id")
        per_cluster_min = res.groupby("cluster").vec_id.min()
        kept = res[res.is_dup == 0].vec_id
        assert set(per_cluster_min).issubset(set(kept))


class TestDsirLogratio:
    def test_matches_bruteforce(self, ray_session):
        """Score == avg(ln p_target - ln p_corpus) with Laplace smoothing
        over the corpus vocabulary; target-like docs score higher."""
        import math
        from collections import Counter

        import ray.data

        from wikidata_edit_history_ray.stages.text_ops import dsir_logratio

        corpus = {1: "cat dog cat", 2: "dog fish", 3: "quantum flux node",
                  4: "cat quantum", 5: ""}
        target = ["cat cat dog", "cat fish"]

        cc = Counter(t for s in corpus.values() for t in s.split())
        tc = Counter(t for s in target for t in s.split())
        n_c, n_t, v = sum(cc.values()), sum(tc.values()), len(cc)
        expect = {}
        for d, s in corpus.items():
            toks = s.split()
            if not toks:
                continue
            acc = sum(math.log((tc.get(t, 0) + 1) / (n_t + v))
                      - math.log(cc[t] / n_c) for t in toks)
            expect[d] = (len(toks), round(acc / len(toks), 6))

        ds = ray.data.from_arrow(pa.table(
            {"doc_id": list(corpus), "text": list(corpus.values())}),
            override_num_blocks=3)
        tgt = ray.data.from_arrow(pa.table(
            {"doc_id": [91, 92], "text": target}))
        res = dsir_logratio(ds, tgt).to_pandas()
        got = {r.doc_id: (int(r.n_tokens), round(r.dsir_logratio, 6))
               for r in res.itertuples()}
        assert got == expect
        # docs sharing target vocabulary outrank the target-disjoint doc
        assert got[1][1] > got[3][1] and got[2][1] > got[3][1]
        assert 5 not in got  # empty doc emits nothing


class TestReviewFixesR4:
    """Regression pins for the round-4 review findings: tokenizer-lowering
    consistency and NULL-text parity."""

    def test_scorers_survive_special_casing_unicode(self, ray_session):
        """U+0130 lowers differently under Arrow utf8_lower vs Python
        str.lower(); the scorers must tokenize exactly like the count pass
        (previously raised 'absent from the count pass')."""
        import ray.data

        from wikidata_edit_history_ray.stages.text_ops import (dsir_logratio,
                                                               unigram_logprob)

        ds = ray.data.from_arrow(pa.table(
            {"doc_id": [1, 2], "text": ["AİB hello", "plain text"]}))
        assert len(unigram_logprob(ds).to_pandas()) == 2
        assert len(dsir_logratio(ds, ds).to_pandas()) == 2

    def test_chunk_dedup_null_text_row_kept(self, ray_session):
        """A NULL text chunks as [''] (one empty chunk) and the doc stays in
        the output — matching the oracle's coalesce(text, '')."""
        import ray.data

        from wikidata_edit_history_ray.stages.text_ops import chunk_dedup

        t = pa.table({"doc_id": pa.array([1, 2, 3], type=pa.int64()),
                      "text": pa.array(["a b c", None, "a b c x"],
                                       type=pa.string())})
        out = chunk_dedup(ray.data.from_arrow(t), chunk_words=3, min_docs=2) \
            .to_pandas().set_index("doc_id")
        assert len(out) == 3
        assert out.loc[2].total_chunks == 1  # the single '' chunk

class TestReviewFixesR4b:
    """Second review pass pin: kmeans degeneracy."""

    def test_kmeans_fewer_vectors_than_k(self, ray_session):
        """k degrades to n when the dataset is smaller than k; empty input
        raises loudly instead of a broadcast-shape IndexError."""
        import ray.data

        from wikidata_edit_history_ray.stages.similarity import (kmeans_assign,
                                                                 kmeans_fit)

        vecs = [[0.0, 0.0], [10.0, 10.0], [0.1, 0.1]]
        ds = ray.data.from_arrow(pa.table(
            {"vec_id": [1, 2, 3],
             "embedding": pa.array(vecs, type=pa.list_(pa.float64()))}))
        C = kmeans_fit(ds, k=8, iters=2)
        assert C.shape == (3, 2)
        res = kmeans_assign(ds, k=8).to_pandas()
        assert len(res) == 3

        empty = ray.data.from_arrow(pa.table(
            {"vec_id": pa.array([], type=pa.int64()),
             "embedding": pa.array([], type=pa.list_(pa.float64()))}))
        with pytest.raises(ValueError, match="at least one vector"):
            kmeans_fit(empty, k=2)

class TestSemDedupFilter:
    def test_semdedup_filter_keeps_exemplars(self, ray_session):
        import ray.data

        from wikidata_edit_history_ray.stages.similarity import (
            semdedup, semdedup_filter)

        rng = np.random.RandomState(5)
        base = rng.randn(4, 12)
        vecs = [(base[i % 4] + (0.001 if i % 2 else 0.7) * rng.randn(12))
                .tolist() for i in range(60)]
        ds = ray.data.from_arrow(pa.table(
            {"vec_id": list(range(60)),
             "embedding": pa.array(vecs, type=pa.list_(pa.float64())),
             "payload": [f"p{i}" for i in range(60)]}))
        flags = semdedup(ds, k=4, threshold=0.95).to_pandas()
        kept_expected = set(flags[flags.is_dup == 0].vec_id)
        out = semdedup_filter(ds, k=4, threshold=0.95).to_pandas()
        assert set(out.vec_id) == kept_expected
        assert list(out.columns) == ["vec_id", "embedding", "payload"]


class TestCorpusDiff:
    def test_all_four_statuses(self, ray_session):
        import ray.data

        from wikidata_edit_history_ray.stages.dedup_ops import corpus_diff

        old = ray.data.from_arrow(pa.table({
            "doc_id": [1, 2, 3, 4],
            "text": ["a", "b", "c", "d"]}), override_num_blocks=2)
        new = ray.data.from_arrow(pa.table({
            "doc_id": [2, 3, 4, 5],
            "text": ["b", "c CHANGED", "d", "e"]}), override_num_blocks=3)
        got = dict(zip(*[corpus_diff(old, new).to_pandas()[c]
                         for c in ("doc_id", "status")]))
        assert got == {1: "removed", 2: "unchanged", 3: "changed",
                       4: "unchanged", 5: "added"}

    def test_null_text_equals_empty(self, ray_session):
        """NULL text hashes like '' on both sides — a None->'' flip is
        'unchanged', matching the oracle's coalesce comparison."""
        import ray.data

        from wikidata_edit_history_ray.stages.dedup_ops import corpus_diff

        old = ray.data.from_arrow(pa.table(
            {"doc_id": pa.array([1], type=pa.int64()),
             "text": pa.array([None], type=pa.string())}))
        new = ray.data.from_arrow(pa.table(
            {"doc_id": pa.array([1], type=pa.int64()),
             "text": pa.array([""], type=pa.string())}))
        got = corpus_diff(old, new).to_pandas()
        assert list(got.status) == ["unchanged"]

    def test_duplicate_id_within_snapshot_rejected(self, ray_session):
        import ray.data

        from wikidata_edit_history_ray.stages.dedup_ops import corpus_diff

        old = ray.data.from_arrow(pa.table(
            {"doc_id": [1, 1], "text": ["a", "b"]}))
        new = ray.data.from_arrow(pa.table(
            {"doc_id": [1], "text": ["a"]}))
        with pytest.raises(Exception, match="duplicate"):
            corpus_diff(old, new).to_pandas()

    def test_mixed_int_widths_promote(self, ray_session):
        import ray.data

        from wikidata_edit_history_ray.stages.dedup_ops import corpus_diff

        old = ray.data.from_arrow(pa.table(
            {"doc_id": pa.array([1, 2], type=pa.int32()),
             "text": ["a", "b"]}))
        wide = 2 ** 40
        new = ray.data.from_arrow(pa.table(
            {"doc_id": pa.array([2, wide], type=pa.int64()),
             "text": ["b", "w"]}))
        got = dict(zip(*[corpus_diff(old, new).to_pandas()[c]
                         for c in ("doc_id", "status")]))
        assert got == {1: "removed", 2: "unchanged", wide: "added"}

    def test_empty_sides_keep_schema(self, ray_session):
        import ray.data

        from wikidata_edit_history_ray.stages.dedup_ops import corpus_diff

        full = ray.data.from_arrow(pa.table(
            {"doc_id": [1], "text": ["a"]}))
        # a filter chain that drops every row yields schema-less blocks
        empty = full.filter(lambda r: False)
        both = corpus_diff(empty, empty)
        assert both.schema() is not None and both.count() == 0
        one = corpus_diff(empty, full).to_pandas()
        assert list(one.status) == ["added"]
        other = corpus_diff(full, empty).to_pandas()
        assert list(other.status) == ["removed"]


class TestApplyCorpusDelta:
    def test_upsert_delete_insert(self, ray_session):
        import ray.data

        from wikidata_edit_history_ray.stages.dedup_ops import \
            apply_corpus_delta

        old = ray.data.from_arrow(pa.table(
            {"doc_id": [1, 2, 3, 4], "text": ["a", "b", "c", "d"]}),
            override_num_blocks=2)
        delta = ray.data.from_arrow(pa.table(
            {"doc_id": [2, 3, 5],
             "text": [None, "c2", "e"],
             "delta_op": ["delete", "upsert", "upsert"]}),
            override_num_blocks=2)
        out = apply_corpus_delta(old, delta).to_pandas()
        assert dict(zip(out.doc_id, out.text)) == \
            {1: "a", 3: "c2", 4: "d", 5: "e"}

    def test_duplicate_and_unknown_ops_rejected(self, ray_session):
        import ray.data

        from wikidata_edit_history_ray.stages.dedup_ops import \
            apply_corpus_delta

        old = ray.data.from_arrow(pa.table({"doc_id": [1], "text": ["a"]}))
        dup = ray.data.from_arrow(pa.table(
            {"doc_id": [7, 7], "text": ["x", "y"],
             "delta_op": ["upsert", "upsert"]}))
        with pytest.raises(Exception, match="duplicate"):
            apply_corpus_delta(old, dup).to_pandas()
        bad = ray.data.from_arrow(pa.table(
            {"doc_id": [7], "text": ["x"], "delta_op": ["replace"]}))
        with pytest.raises(Exception, match="unknown"):
            apply_corpus_delta(old, bad).to_pandas()

    def test_diff_then_apply_roundtrip(self, ray_session):
        """corpus_diff plans, apply_corpus_delta executes: applying the
        diff-derived delta to old reproduces new exactly."""
        import ray.data

        from wikidata_edit_history_ray.stages.dedup_ops import (
            apply_corpus_delta, corpus_diff)

        old_t = pa.table({"doc_id": [1, 2, 3, 4], "text": ["a", "b", "c", "d"]})
        new_t = pa.table({"doc_id": [2, 3, 5], "text": ["b", "c9", "e"]})
        old = ray.data.from_arrow(old_t)
        new = ray.data.from_arrow(new_t)
        plan = corpus_diff(old, new).to_pandas()
        new_map = dict(zip(new_t.column("doc_id").to_pylist(),
                           new_t.column("text").to_pylist()))
        rows = []
        for r in plan.itertuples():
            if r.status == "removed":
                rows.append((r.doc_id, None, "delete"))
            elif r.status in ("added", "changed"):
                rows.append((r.doc_id, new_map[r.doc_id], "upsert"))
        delta = ray.data.from_arrow(pa.table({
            "doc_id": [r[0] for r in rows],
            "text": pa.array([r[1] for r in rows], type=pa.string()),
            "delta_op": [r[2] for r in rows]}))
        got = apply_corpus_delta(old, delta).to_pandas()
        assert dict(zip(got.doc_id, got.text)) == new_map


class TestBlocklistFlags:
    def test_token_boundary_semantics(self, ray_session):
        """'class' in the blocklist must NOT flag 'classification' — token
        match, not substring."""
        import ray.data

        from wikidata_edit_history_ray.stages.text_ops import blocklist_flags

        t = pa.table({"doc_id": [1, 2, 3, 4],
                      "text": ["a classification task", "first CLASS seats",
                               None, "class9 label"]})
        out = blocklist_flags(ray.data.from_arrow(t), ["class"]) \
            .to_pandas().set_index("doc_id").blocked
        # 2 flags (case-folded token); 1 does not (substring only);
        # 4 does not ('class9' is one [a-z0-9]+ token)
        assert dict(out) == {1: 0, 2: 1, 3: 0, 4: 0}

    def test_empty_blocklist_rejected(self, ray_session):
        import ray.data

        from wikidata_edit_history_ray.stages.text_ops import blocklist_flags

        ds = ray.data.from_arrow(pa.table({"doc_id": [1], "text": ["x"]}))
        with pytest.raises(ValueError, match="empty blocklist"):
            blocklist_flags(ds, [])


class TestMaterializePacks:
    def test_shards_match_sequential_reference(self, ray_session):
        import ray.data

        from wikidata_edit_history_ray.stages.packing import (
            materialize_packs, pack_sequences)

        texts = {i: " ".join("w%d" % j for j in range(3 + i % 4))
                 for i in range(40)}
        docs = ray.data.from_arrow(pa.table(
            {"doc_id": list(texts), "text": list(texts.values())}),
            override_num_blocks=5)
        slim = ray.data.from_arrow(pa.table(
            {"doc_id": list(texts),
             "ws": [len(t.split()) for t in texts.values()]}))
        packed = pack_sequences(slim, token_col="ws", max_tokens=10,
                                order_col="doc_id")
        out = materialize_packs(docs, packed, token_col="ws") \
            .to_pandas().set_index("pack_id").sort_index()
        # sequential reference
        cum, shards = 0, {}
        for d in sorted(texts):
            ws = len(texts[d].split())
            pid = cum // 10
            shards.setdefault(pid, []).append(d)
            cum += ws
        for pid, members in shards.items():
            row = out.loc[pid]
            assert row.n_docs == len(members)
            assert row.pack_text == "\n".join(texts[d] for d in members)
            assert row.total_tokens == sum(
                len(texts[d].split()) for d in members)

    def test_shuffle_path_equals_broadcast(self, ray_session):
        """Forcing the beyond-broadcast bucketed join (broadcast_limit=0)
        must produce the identical shards."""
        import ray.data

        from wikidata_edit_history_ray.stages.packing import (
            materialize_packs, pack_sequences)

        texts = {i: " ".join("x%d" % j for j in range(2 + i % 5))
                 for i in range(60)}
        docs = ray.data.from_arrow(pa.table(
            {"doc_id": list(texts), "text": list(texts.values())}),
            override_num_blocks=4)
        slim = ray.data.from_arrow(pa.table(
            {"doc_id": list(texts),
             "ws": [len(t.split()) for t in texts.values()]}))
        packed = pack_sequences(slim, token_col="ws", max_tokens=12,
                                order_col="doc_id")
        a = materialize_packs(docs, packed, token_col="ws") \
            .to_pandas().sort_values("pack_id").reset_index(drop=True)
        b = materialize_packs(docs, packed, token_col="ws",
                              broadcast_limit=0, buckets=5) \
            .to_pandas().sort_values("pack_id").reset_index(drop=True)
        assert a.equals(b)
