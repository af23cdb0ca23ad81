"""Kill-and-resume: SIGKILL a subprocess mid-extraction, then resume in a new
process — the restart must skip completed partitions and the final output must
equal an uninterrupted run's output (BASELINE.md resumability criterion)."""
import os
import signal
import subprocess
import sys
import time

import pyarrow.parquet as pq
import pytest

SCRIPT = """
import ray, sys
ray.init(address="local", num_cpus=4, include_dashboard=False, log_to_driver=False)
sys.path.insert(0, {repo!r})
from wikidata_edit_history_ray.pipelines.kg import run_extraction
run_extraction({src!r}, {out!r}, target_rows_per_partition=1)
print("DONE", flush=True)
"""


def _read_vc(out_dir):
    t = pq.read_table(os.path.join(out_dir, "value_change"))
    cols = ["revision_id", "property_id", "value_id", "change_target", "action"]
    return sorted(zip(*[t.column(c).to_pylist() for c in cols]))


@pytest.mark.slow
def test_kill_mid_run_then_resume(tmp_path):
    import pyarrow.parquet as pqw

    from wikidata_edit_history_ray.sources.corpus import make_corpus

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    docs, _ = make_corpus(250, seed=31)
    src = str(tmp_path / "docs.parquet")
    # 13 row groups, one partition each (the default would make one)
    pqw.write_table(docs, src, row_group_size=20)

    # uninterrupted reference run
    ref_out = str(tmp_path / "ref_out")
    code = SCRIPT.format(repo=repo, src=src, out=ref_out)
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, timeout=300)
    assert "DONE" in r.stdout, r.stderr[-2000:]
    expected = _read_vc(ref_out)

    # interrupted run: SIGKILL as soon as some partitions are committed
    out = str(tmp_path / "out")
    code = SCRIPT.format(repo=repo, src=src, out=out)
    proc = subprocess.Popen([sys.executable, "-c", code],
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    manifest_dir = os.path.join(out, "_manifest")
    deadline = time.time() + 240
    while time.time() < deadline:
        n = len(os.listdir(manifest_dir)) if os.path.isdir(manifest_dir) else 0
        if 1 <= n:
            break
        time.sleep(0.2)
    proc.send_signal(signal.SIGKILL)
    proc.wait(timeout=60)
    n_before = len(os.listdir(manifest_dir)) if os.path.isdir(manifest_dir) else 0
    assert n_before >= 1, "never saw a committed partition before the kill"

    # resume in a fresh process
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, timeout=300)
    assert "DONE" in r.stdout, r.stderr[-2000:]

    # identical output; committed partitions were not redone (their manifest
    # files' mtimes predate the resume run)
    assert _read_vc(out) == expected


class TestCoalescedPartitions:
    def test_coalesced_specs_cover_and_resume(self, ray_session, tmp_path):
        """Coalesced partitions produce identical output rows to row-group
        partitions, and resume still skips completed coalesced units."""
        import json

        import duckdb

        from wikidata_edit_history_ray.pipelines.kg import run_extraction
        from wikidata_edit_history_ray.sources.corpus import (
            AO_TYPES, SA_TYPES, write_corpus_parquet)
        from wikidata_edit_history_ray.stages.extract import list_partition_specs

        docs = str(tmp_path / "docs")
        write_corpus_parquet(docs, 400, seed=9, n_shards=2)
        fine = list_partition_specs(docs, target_rows_per_partition=1)
        coarse = list_partition_specs(docs, target_rows_per_partition=150)
        assert len(coarse) < len(fine)
        assert sum(s["num_rows"] for s in coarse) == \
            sum(s["num_rows"] for s in fine) == 400

        out_f = str(tmp_path / "out_fine")
        out_c = str(tmp_path / "out_coarse")
        run_extraction(docs, out_f, sa_types=set(SA_TYPES),
                       ao_types=set(AO_TYPES), target_rows_per_partition=1)
        m = run_extraction(docs, out_c, sa_types=set(SA_TYPES),
                           ao_types=set(AO_TYPES), target_rows_per_partition=150)
        assert m.count() == len(coarse)

        q = ("SELECT revision_id, property_id, value_id, change_target, action "
             "FROM read_parquet('{}/value_change/*.parquet') ORDER BY 1,2,3,4")
        a = duckdb.sql(q.format(out_f)).fetchall()
        b = duckdb.sql(q.format(out_c)).fetchall()
        assert a == b and len(a) > 0

        # resume: all coalesced partitions skip on re-run
        m2 = run_extraction(docs, out_c, sa_types=set(SA_TYPES),
                            ao_types=set(AO_TYPES), target_rows_per_partition=150)
        rows = m2.take_all()
        assert all(r["resumed"] for r in rows) and len(rows) == len(coarse)


class TestFileSystemURISink:
    def test_file_uri_roundtrip_and_resume(self, ray_session, tmp_path):
        """The multi-sink through the pyarrow FileSystem abstraction
        (file:// URIs on input AND output) — identical rows to the plain-path
        run, resume skips committed partitions, manifests committed via the
        fs rename path."""
        import duckdb

        from wikidata_edit_history_ray.pipelines.kg import run_extraction
        from wikidata_edit_history_ray.sources.corpus import (
            AO_TYPES, SA_TYPES, write_corpus_parquet)
        from wikidata_edit_history_ray.stages.extract import \
            list_partition_specs

        docs = str(tmp_path / "docs")
        write_corpus_parquet(docs, 200, seed=23, n_shards=2)

        specs_plain = list_partition_specs(docs)
        specs_uri = list_partition_specs(f"file://{docs}")
        assert [s["file"] for s in specs_uri] == \
            [f"file://{s['file']}" for s in specs_plain]

        out_plain = str(tmp_path / "out_plain")
        out_uri = str(tmp_path / "out_uri")
        run_extraction(docs, out_plain, sa_types=set(SA_TYPES),
                       ao_types=set(AO_TYPES))
        m = run_extraction(f"file://{docs}", f"file://{out_uri}",
                           sa_types=set(SA_TYPES), ao_types=set(AO_TYPES))
        assert m.count() == len(specs_plain)

        q = ("SELECT revision_id, property_id, value_id, change_target, action"
             " FROM read_parquet('{}/value_change/*.parquet') ORDER BY 1,2,3,4")
        assert duckdb.sql(q.format(out_plain)).fetchall() == \
            duckdb.sql(q.format(out_uri)).fetchall()

        # resume through the URI: every partition skips (fingerprints agree
        # between plain-path and URI resolution)
        m2 = run_extraction(f"file://{docs}", f"file://{out_uri}",
                            sa_types=set(SA_TYPES), ao_types=set(AO_TYPES))
        rows = m2.take_all()
        assert all(r["resumed"] for r in rows) and len(rows) == len(specs_plain)
