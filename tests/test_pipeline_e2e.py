"""End-to-end Ray Data pipeline tests: P/R vs construction oracle,
span-sequence invariant, multi-sink + resume, dedup idempotency, and the
`extract` CLI."""
import json
import os
import subprocess
import sys

import pandas as pd
import pyarrow.parquet as pq
import pytest


def _pr(got: set, expected: set):
    tp = len(got & expected)
    p = tp / len(got) if got else 1.0
    r = tp / len(expected) if expected else 1.0
    return p, r


class TestExtractionParity:
    @pytest.fixture(scope="class")
    def extracted(self, ray_session, corpus_parquet):
        from wikidata_edit_history_ray.pipelines.kg import extract_table
        from wikidata_edit_history_ray.sources.io import read_documents

        ds = read_documents(corpus_parquet)
        return {
            t: extract_table(ds, t).take_all()
            for t in ("value_change", "qualifier_change", "reference_change",
                      "revision", "doc_spans")
        }

    def test_value_change_pr(self, extracted, small_corpus):
        _, exp = small_corpus
        got = {(r["revision_id"], r["property_id"], r["value_id"],
                r["change_target"], r["action"]) for r in extracted["value_change"]}
        expected = {(e["revision_id"], e["property_id"], e["value_id"],
                     e["change_target"], e["action"]) for e in exp["value_change"]}
        p, r = _pr(got, expected)
        assert p >= 0.95 and r >= 0.95, (p, r)

    def test_qualifier_reference_pr(self, extracted, small_corpus):
        _, exp = small_corpus
        got_q = {(r["revision_id"], r["property_id"], r["value_id"],
                  r["qual_property_id"], r["action"]) for r in extracted["qualifier_change"]}
        exp_q = {(e["revision_id"], e["property_id"], e["value_id"],
                  e["qual_property_id"], e["action"]) for e in exp["qualifier_change"]}
        p, r = _pr(got_q, exp_q)
        assert p >= 0.95 and r >= 0.95, (p, r)
        got_r = {(r["revision_id"], r["property_id"], r["value_id"],
                  r["ref_property_id"], r["action"]) for r in extracted["reference_change"]}
        exp_r = {(e["revision_id"], e["property_id"], e["value_id"],
                  e["ref_property_id"], e["action"]) for e in exp["reference_change"]}
        p, r = _pr(got_r, exp_r)
        assert p >= 0.95 and r >= 0.95, (p, r)

    def test_revision_rows(self, extracted, small_corpus):
        _, exp = small_corpus
        got = {r["revision_id"] for r in extracted["revision"]}
        expected = {e["revision_id"] for e in exp["revision"]}
        p, r = _pr(got, expected)
        assert p == 1.0 and r == 1.0

    def test_span_sequence_equality(self, extracted, small_corpus):
        """Per-row invariant: (kind, text-hash, media_ref, order) preserved."""
        import hashlib

        _, exp = small_corpus
        by_doc = {}
        for r in extracted["doc_spans"]:
            by_doc.setdefault(r["doc_id"], []).append(r)
        assert set(by_doc) == set(exp["spans"])
        for doc_id, spans in exp["spans"].items():
            got = sorted(by_doc[doc_id], key=lambda r: r["span_index"])
            assert len(got) == len(spans)
            for g, s in zip(got, spans):
                assert g["kind"] == s["kind"]
                assert g["media_ref"] == s["media_ref"]
                assert g["offset"] == s["offset"]
                expected_hash = (hashlib.sha1(s["text"].encode()).hexdigest()
                                 if s["text"] else "")
                assert g["text_sha1"] == expected_hash


class TestMultiSinkAndResume:
    def test_run_extraction_writes_all_tables_and_resumes(self, ray_session,
                                                          corpus_parquet, tmp_path):
        from wikidata_edit_history_ray.pipelines.kg import run_extraction

        out_dir = str(tmp_path / "out")
        m1 = run_extraction(corpus_parquet, out_dir)
        rows1 = m1.take_all()
        assert rows1 and not any(r["resumed"] for r in rows1)
        assert os.path.isdir(os.path.join(out_dir, "value_change"))
        assert os.path.isdir(os.path.join(out_dir, "revision"))
        n_vc = pq.read_table(os.path.join(out_dir, "value_change")).num_rows
        assert n_vc > 0

        # resume: everything skipped, outputs unchanged
        m2 = run_extraction(corpus_parquet, out_dir)
        rows2 = m2.take_all()
        assert all(r["resumed"] for r in rows2)
        assert pq.read_table(os.path.join(out_dir, "value_change")).num_rows == n_vc

    def test_partial_resume_recomputes_only_missing(self, ray_session,
                                                    corpus_parquet, tmp_path):
        from wikidata_edit_history_ray.pipelines.kg import run_extraction

        out_dir = str(tmp_path / "out2")
        m1 = run_extraction(corpus_parquet, out_dir)
        parts = sorted(r["partition_id"] for r in m1.take_all())
        # kill one partition's manifest => only it recomputes
        victim = parts[0]
        os.remove(os.path.join(out_dir, "_manifest", f"{victim}.json"))
        m2 = run_extraction(corpus_parquet, out_dir)
        rows = {r["partition_id"]: r["resumed"] for r in m2.take_all()}
        assert rows[victim] is False
        assert all(v for k, v in rows.items() if k != victim)


class TestDedup:
    def test_dedup_idempotent_on_duplicated_input(self, ray_session, small_corpus):
        import ray

        from wikidata_edit_history_ray.pipelines.kg import dedup_changes, extract_table

        docs, _ = small_corpus
        sub = docs.slice(0, 20)
        ds = ray.data.from_arrow(sub)
        vc = extract_table(ds, "value_change")
        once = vc.take_all()
        # double the input: same docs twice -> exact dup rows across partitions
        ds2 = ray.data.from_arrow(sub).union(ray.data.from_arrow(sub))
        vc2 = extract_table(ds2, "value_change")
        deduped = dedup_changes(
            vc2, ["revision_id", "property_id", "value_id", "change_target"])
        assert deduped.count() == len(once)


def _cli_extract(corpus, out, aux):
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    res = subprocess.run(
        [sys.executable, "-m", "wikidata_edit_history_ray", "extract",
         "--input", corpus, "--output", out, "--aux-dir", aux],
        capture_output=True, text=True, cwd=repo, timeout=600)
    assert res.returncode == 0, res.stderr[-2000:]
    return json.loads(res.stdout.strip().splitlines()[-1])


def test_extract_cli_with_aux_dir(ray_session, corpus_parquet, tmp_path):
    """`extract --aux-dir` loads the aux tables written by write_aux_tables:
    its value_change equals run_extraction given SA_TYPES / AO_TYPES
    directly, plus the property labels of property_labels.csv; a rerun
    resumes every partition."""
    import csv

    from wikidata_edit_history_ray.pipelines.kg import run_extraction
    from wikidata_edit_history_ray.sources.corpus import AO_TYPES, SA_TYPES
    from wikidata_edit_history_ray.sources.io import write_aux_tables
    from wikidata_edit_history_ray.stages.extract import list_partition_specs

    aux = write_aux_tables(str(tmp_path / "aux"))
    out = str(tmp_path / "cli_out")
    parts = len(list_partition_specs(corpus_parquet))
    first = _cli_extract(corpus_parquet, out, aux)
    assert first["partitions"] == parts > 1
    assert first["resumed"] == 0
    assert first["docs"] == pq.read_metadata(corpus_parquet).num_rows

    direct = str(tmp_path / "direct_out")
    run_extraction(corpus_parquet, direct, sa_types=SA_TYPES,
                   ao_types=AO_TYPES)
    pk = ["revision_id", "property_id", "value_id", "change_target"]

    def value_change(root):
        return pq.read_table(os.path.join(root, "value_change")).to_pandas() \
            .sort_values(pk).reset_index(drop=True)

    got, exp = value_change(out), value_change(direct)
    assert len(got) > 0
    assert got["is_scholarly_article"].any()
    assert got["is_astronomical_object"].any()
    with open(os.path.join(aux, "property_labels.csv"), newline="") as f:
        labels = {r["property_id"]: r["property_label"]
                  for r in csv.DictReader(f)}
    assert list(got["property_label"]) == \
        [labels.get(str(p), "") for p in got["property_id"]]
    assert (exp["property_label"] == "").all()
    pd.testing.assert_frame_equal(got.drop(columns="property_label"),
                                  exp.drop(columns="property_label"))

    again = _cli_extract(corpus_parquet, out, aux)
    assert again["partitions"] == again["resumed"] == parts
