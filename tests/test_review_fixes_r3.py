"""Regression tests for the round-3 review findings: value-stable bucket
hashing under nulls, typed empty masks, id-type preservation, wide-key range
tagging, URI prefix round-trips, stale label buckets, and exact big-int pair
gathers."""
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq


class TestHashBucketNullStability:
    def test_same_int_same_bucket_with_and_without_nulls(self):
        from wikidata_edit_history_ray.stages.distributed import \
            _hash_bucket_array

        clean = _hash_bucket_array([5, 6, 700], 64).to_pylist()
        dirty = _hash_bucket_array([5, 6, 700, None], 64).to_pylist()
        assert dirty[:3] == clean
        assert dirty[3] == 0  # nulls to a fixed bucket

    def test_numpy_ints_match_python_ints(self):
        from wikidata_edit_history_ray.stages.distributed import \
            _hash_bucket_array

        a = _hash_bucket_array(list(np.arange(10, dtype=np.int64)),
                               16).to_pylist()
        b = _hash_bucket_array([int(v) for v in range(10)] + [None],
                               16).to_pylist()
        assert b[:10] == a

    def test_nullable_id_anti_join_still_drops(self, ray_session):
        import ray.data

        from wikidata_edit_history_ray.stages.distributed import \
            filter_out_ids

        # ids arrive in two blocks: one containing a null (object-dtype
        # batch), one clean (int-dtype batch) — the same id must bucket
        # identically on both sides of the shuffle anti-join
        t1 = pa.table({"doc_id": pa.array([1, 2, None], type=pa.int64()),
                       "text": ["a", "b", "c"]})
        t2 = pa.table({"doc_id": pa.array([3, 4, 5], type=pa.int64()),
                       "text": ["d", "e", "f"]})
        ds = ray.data.from_arrow([t1, t2])
        drops = ray.data.from_arrow(
            pa.table({"drop_id": pa.array([2, 4], type=pa.int64())}))
        out = filter_out_ids(ds, drops, "doc_id", broadcast_limit=0)
        ids = sorted(r["doc_id"] for r in out.take_all()
                     if r["doc_id"] is not None)
        assert ids == [1, 3, 5]


class TestDecontaminateAllBenchBucket:
    def test_shuffle_path_with_no_corpus_grams(self, ray_session):
        import ray.data

        from wikidata_edit_history_ray.stages.text_ops import \
            decontaminate_flags

        # corpus docs too short to emit any 3-gram: every shuffle bucket
        # that receives bench grams is bench-only (previously: null-typed
        # empty mask -> ArrowNotImplementedError in Table.filter)
        docs = ray.data.from_arrow(pa.table({
            "doc_id": pa.array([0, 1], type=pa.int64()),
            "text": ["too short", "also brief"]}))
        bench = ray.data.from_arrow(pa.table({
            "text": ["one two three four five"]}))
        out = decontaminate_flags(docs, bench, broadcast_limit=0, buckets=4)
        rows = {r["doc_id"]: r["contaminated"] for r in out.take_all()}
        assert rows == {0: 0, 1: 0}

    def test_shuffle_path_flags_match_broadcast_path(self, ray_session):
        import ray.data

        from wikidata_edit_history_ray.stages.text_ops import \
            decontaminate_flags

        docs = ray.data.from_arrow(pa.table({
            "doc_id": pa.array(range(4), type=pa.int64()),
            "text": ["alpha beta gamma delta", "no overlap here at all",
                     "beta gamma delta epsilon", "tiny"]}))
        bench = ray.data.from_arrow(pa.table({
            "text": ["xx beta gamma delta yy"]}))
        b = {r["doc_id"]: r["contaminated"]
             for r in decontaminate_flags(docs, bench).take_all()}
        s = {r["doc_id"]: r["contaminated"]
             for r in decontaminate_flags(
                 docs, bench, broadcast_limit=0, buckets=4).take_all()}
        assert b == s == {0: 1, 1: 0, 2: 1, 3: 0}


class TestTfidfIdType:
    def test_string_doc_ids(self, ray_session):
        import ray.data

        from wikidata_edit_history_ray.stages.text_ops import tfidf_top_terms

        docs = ray.data.from_arrow(pa.table({
            "doc_id": pa.array(["Q1", "Q2"], type=pa.string()),
            "text": ["apple banana apple", "banana cherry"]}))
        out = tfidf_top_terms(docs, k=1)
        rows = sorted(out.take_all(), key=lambda r: r["doc_id"])
        assert [r["doc_id"] for r in rows] == ["Q1", "Q2"]
        assert rows[0]["token"] == "apple"
        assert rows[1]["token"] == "cherry"


class TestPackWideKeys:
    def test_snowflake_scale_order_keys(self, ray_session):
        import ray.data

        from wikidata_edit_history_ray.stages.packing import pack_sequences

        # span ~2^63: int64 `(keys - lo) * num_ranges` would wrap negative
        keys = [-(2 ** 62), -(2 ** 61), 0, 2 ** 61, 2 ** 62]
        ds = ray.data.from_arrow(pa.table({
            "doc_id": pa.array(keys, type=pa.int64()),
            "tokens": pa.array([5] * 5, type=pa.int64())}))
        out = pack_sequences(ds, "tokens", max_tokens=10, num_ranges=8)
        rows = sorted(out.take_all(), key=lambda r: r["doc_id"])
        # sequential fill: packs of two 5-token docs each
        assert [r["pack_id"] for r in rows] == [0, 0, 1, 1, 2]


class TestPartitionSpecsUriPrefix:
    def test_trailing_slash_keeps_scheme(self, ray_session, tmp_path):
        from wikidata_edit_history_ray.stages.extract import \
            list_partition_specs, resolve_filesystem

        pq.write_table(pa.table({"x": [1, 2, 3]}),
                       str(tmp_path / "part.parquet"))
        specs = list_partition_specs(f"file://{tmp_path}/")
        assert len(specs) == 1
        assert specs[0]["file"].startswith("file://")
        fs, path = resolve_filesystem(specs[0]["file"])
        assert pq.read_metadata(path, filesystem=fs).num_rows == 3


class TestLabelBucketRerun:
    def test_reruns_are_layout_versioned(self, ray_session, tmp_path):
        """Each partition_entity_labels run returns a run-unique directory,
        so a relayout can never be served from a worker's cache of the
        previous run (the cache key embeds the run directory) and a stale
        bucket file can never shadow an empty bucket."""
        from wikidata_edit_history_ray.stages.enrich import (
            _load_label_bucket, _qid_bucket, partition_entity_labels)

        out = str(tmp_path / "labels")
        buckets = 8
        qa, qb = "Q1", None
        # find two qids that land in different buckets
        for i in range(2, 1000):
            if _qid_bucket(f"Q{i}", buckets) != _qid_bucket(qa, buckets):
                qb = f"Q{i}"
                break
        run1 = partition_entity_labels({qa: ("A", "da")}, out, buckets=buckets)
        assert run1 != out  # versioned subdirectory, not the base dir
        assert os.path.exists(os.path.join(
            run1, f"labels-{_qid_bucket(qa, buckets):05d}.parquet"))
        # warm this process's cache on run1, then relayout
        assert _load_label_bucket(run1, _qid_bucket(qa, buckets)) \
            [qa] == ("A", "da")
        run2 = partition_entity_labels({qb: ("B", "db")}, out, buckets=buckets)
        assert run2 != run1
        # the new run serves ONLY the new dimension even though run1's
        # buckets are still cached in this very process
        assert _load_label_bucket(run2, _qid_bucket(qa, buckets)) == {}
        assert _load_label_bucket(
            run2, _qid_bucket(qb, buckets))[qb] == ("B", "db")

    def test_partitioned_layout_through_file_uri(self, ray_session, tmp_path):
        from wikidata_edit_history_ray.stages.enrich import (
            _load_label_bucket, _qid_bucket, partition_entity_labels)

        uri = f"file://{tmp_path}/labels_uri"
        run = partition_entity_labels({"Q5": ("five", "d5")}, uri, buckets=4)
        assert run.startswith("file://")
        assert _load_label_bucket(run, _qid_bucket("Q5", 4)) \
            ["Q5"] == ("five", "d5")


class TestGatherPairValuesBigIds:
    def test_ids_above_2_53_round_trip_exactly(self, ray_session):
        import ray.data

        from wikidata_edit_history_ray.stages.distributed import \
            gather_pair_values

        # odd ids near 2^60: float64 would round them to multiples of 256
        a, b = 2 ** 60 + 1, 2 ** 60 + 3
        ds = ray.data.from_arrow(pa.table({
            "doc_id": pa.array([a, b], type=pa.int64()),
            "text": ["va", "vb"]}))
        edges = ray.data.from_arrow(pa.table({
            "cand_a": pa.array([a], type=pa.int64()),
            "cand_b": pa.array([b], type=pa.int64())}))
        out = gather_pair_values(ds, edges, "doc_id", "text").take_all()
        assert len(out) == 1
        r = out[0]
        assert (r["cand_a"], r["cand_b"]) == (a, b)
        assert (r["val_a"], r["val_b"]) == ("va", "vb")
