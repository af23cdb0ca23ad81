"""Default extraction partitions: consecutive row groups of one file sized by
their uncompressed input bytes, streamed one row group at a time. The
partitioning changes which files the rows land in, never the rows; a rerun
over an uncommitted output dir leaves no rows of the earlier attempt."""
import json
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def _docs(n, seed, **kw):
    from wikidata_edit_history_ray.sources.corpus import make_corpus

    return make_corpus(n, seed=seed, **kw)[0]


def _rg_bytes(path) -> list:
    md = pq.read_metadata(path)
    return [md.row_group(i).total_byte_size for i in range(md.num_row_groups)]


def _write_row_groups(path, docs, sizes):
    """One row group per entry of `sizes` (docs per row group), in order."""
    with pq.ParquetWriter(path, docs.schema) as w:
        start = 0
        for n in sizes:
            w.write_table(docs.slice(start, n), row_group_size=n)
            start += n
    assert pq.read_metadata(path).num_row_groups == len(sizes)


class TestDefaultSizing:
    @pytest.fixture
    def corpus(self, tmp_path):
        """Two files of 12 and 9 row groups of 10 docs each."""
        src = tmp_path / "docs"
        src.mkdir()
        docs = _docs(210, seed=5)
        pq.write_table(docs.slice(0, 120), str(src / "a.parquet"),
                       row_group_size=10)
        pq.write_table(docs.slice(120), str(src / "b.parquet"),
                       row_group_size=10)
        return str(src)

    @pytest.fixture
    def target(self, corpus, monkeypatch):
        """A byte target of about three and a half row groups."""
        from wikidata_edit_history_ray.stages import extract

        rgs = _rg_bytes(os.path.join(corpus, "a.parquet"))
        t = int(3.5 * sum(rgs) / len(rgs))
        monkeypatch.setattr(extract, "TARGET_PARTITION_BYTES", t)
        return t

    def test_two_calls_return_equal_specs(self, corpus, target):
        from wikidata_edit_history_ray.stages.extract import \
            list_partition_specs

        specs = list_partition_specs(corpus)
        assert specs == list_partition_specs(corpus)
        assert len({s["partition_id"] for s in specs}) == len(specs) > 2

    def test_partitions_close_at_the_byte_target(self, corpus, target):
        from wikidata_edit_history_ray.stages.extract import \
            list_partition_specs

        specs = list_partition_specs(corpus)
        for name in ("a.parquet", "b.parquet"):
            path = os.path.join(corpus, name)
            rgs = _rg_bytes(path)
            mine = [s for s in specs if s["file"] == path]
            # consecutive runs that cover the file's row groups once
            assert [r for s in mine for r in range(
                s["row_group"], s["row_group"] + s["num_row_groups"])] == \
                list(range(len(rgs)))
            for s in mine[:-1]:
                run = rgs[s["row_group"]:s["row_group"] + s["num_row_groups"]]
                # reaches the target, and only at its last row group
                assert sum(run) >= target > sum(run[:-1])
            assert sum(s["num_rows"] for s in mine) == \
                pq.read_metadata(path).num_rows

    def test_row_group_over_target_is_own_partition(self, tmp_path,
                                                    monkeypatch):
        from wikidata_edit_history_ray.stages import extract

        path = str(tmp_path / "docs.parquet")
        _write_row_groups(path, _docs(100, seed=6), [40, 40, 5, 5, 5, 5])
        rgs = _rg_bytes(path)
        assert min(rgs[:2]) > sum(rgs[2:])
        # the two large row groups each pass the target by themselves
        monkeypatch.setattr(extract, "TARGET_PARTITION_BYTES",
                            min(rgs[:2]) - 1)
        specs = extract.list_partition_specs(path)
        assert [(s["row_group"], s["num_row_groups"]) for s in specs] == \
            [(0, 1), (1, 1), (2, 4)]

    def test_target_rows_overrides_default(self, corpus, target):
        from wikidata_edit_history_ray.stages.extract import \
            list_partition_specs

        assert [s["num_row_groups"] for s in list_partition_specs(
            corpus, target_rows_per_partition=1)] == [1] * 21
        assert [s["num_rows"] for s in list_partition_specs(
            corpus, target_rows_per_partition=50)] == \
            [50, 50, 20, 50, 40]

    def test_default_is_one_partition_per_small_file(self, corpus):
        from wikidata_edit_history_ray.stages.extract import \
            list_partition_specs

        assert [(s["row_group"], s["num_row_groups"])
                for s in list_partition_specs(corpus)] == [(0, 12), (0, 9)]

    def test_rewrite_in_place_changes_partition_ids(self, corpus, target):
        from wikidata_edit_history_ray.stages.extract import \
            list_partition_specs

        before = list_partition_specs(corpus)
        path = os.path.join(corpus, "a.parquet")
        size = os.path.getsize(path)
        # same name and row-group layout, other contents and size
        pq.write_table(_docs(120, seed=7), path, row_group_size=10)
        assert os.path.getsize(path) != size
        after = list_partition_specs(corpus)
        ids = {s["partition_id"] for s in before if s["file"] == path}
        assert ids and not ids & {s["partition_id"] for s in after}


def _spec_order_rows(out, specs, table):
    """`table`'s rows, part files read in spec (input) order."""
    parts = [os.path.join(out, table, s["partition_id"] + ".parquet")
             for s in specs]
    parts = [pq.read_table(p) for p in parts if os.path.exists(p)]
    return pa.concat_tables(parts) if parts else None


_TIMERS = ["total_xml_parse_time_sec", "total_process_time_sec",
           "total_revision_diff_time_sec", "total_feature_creation_sec"]


def test_streamed_partitions_match_row_group_partitions(ray_session,
                                                        tmp_path):
    """One partition per file (several row groups, streamed) and one per row
    group write the same rows of every table, in the same order, apart from
    `file_path` (the partition id) and the per-run timers of
    entity_stats."""
    from wikidata_edit_history_ray.core.constants import TABLE_COLS
    from wikidata_edit_history_ray.core.differ import DiffConfig
    from wikidata_edit_history_ray.pipelines.kg import run_extraction
    from wikidata_edit_history_ray.sources.corpus import AO_TYPES, SA_TYPES
    from wikidata_edit_history_ray.stages.extract import list_partition_specs

    docs = _docs(80, seed=17, hot_doc_revisions=120, hot_doc_every=25)
    # a poison doc: its id is no entity id, so the differ raises on it
    poison = pa.Table.from_pylist(
        [{"doc_id": "Qpoison", "spans": docs.column("spans")[1].as_py()}],
        schema=docs.schema)
    docs = pa.concat_tables([docs.slice(0, 30), poison, docs.slice(30)])
    src = tmp_path / "docs"
    src.mkdir()
    pq.write_table(docs.slice(0, 41), str(src / "a.parquet"),
                   row_group_size=8)
    pq.write_table(docs.slice(41), str(src / "b.parquet"), row_group_size=8)
    kw = dict(config=DiffConfig(max_spans_per_doc=100),
              sa_types=set(SA_TYPES), ao_types=set(AO_TYPES))

    coarse = list_partition_specs(str(src))
    fine = list_partition_specs(str(src), target_rows_per_partition=1)
    assert len(coarse) == 2 and len(fine) == 11
    run_extraction(str(src), str(tmp_path / "coarse"), **kw)
    run_extraction(str(src), str(tmp_path / "fine"),
                   target_rows_per_partition=1, **kw)

    errors = _spec_order_rows(str(tmp_path / "coarse"), coarse, "errors")
    reasons = [e.split(":")[0] for e in errors.column("error").to_pylist()]
    assert "ValueError" in reasons and "WideDocSkipped" in reasons
    for table in list(TABLE_COLS) + ["errors"]:
        a = _spec_order_rows(str(tmp_path / "coarse"), coarse, table)
        b = _spec_order_rows(str(tmp_path / "fine"), fine, table)
        assert a is not None and b is not None, table
        drop = [c for c in ["file_path"] + _TIMERS if c in a.schema.names]
        assert a.num_rows > 0, table
        assert a.drop_columns(drop).to_pylist() == \
            b.drop_columns(drop).to_pylist(), table


@pytest.mark.parametrize("first, rerun, emptied", [
    ({}, {"extract_features": False}, "features_text"),
    ({"max_spans_per_doc": 50}, {}, "errors"),
])
def test_rerun_leaves_no_orphan_rows(ray_session, tmp_path, first, rerun,
                                     emptied):
    """A crash before the manifests commit (here: `_manifest/` deleted),
    then a rerun under a config that writes no rows to `emptied`: readers see
    only the rerun's rows."""
    import shutil

    from wikidata_edit_history_ray.core.constants import TABLE_COLS
    from wikidata_edit_history_ray.core.differ import DiffConfig
    from wikidata_edit_history_ray.pipelines.kg import (read_table,
                                                        run_extraction)
    from wikidata_edit_history_ray.stages.schemas import (ERRORS_SCHEMA,
                                                          TABLE_SCHEMAS)

    src = tmp_path / "docs"
    src.mkdir()
    pq.write_table(_docs(40, seed=13, hot_doc_revisions=60, hot_doc_every=20),
                   str(src / "docs.parquet"), row_group_size=10)
    out = str(tmp_path / "out")
    run_extraction(str(src), out, config=DiffConfig(**first))
    assert read_table(out, emptied).count() > 0
    shutil.rmtree(os.path.join(out, "_manifest"))

    manifests = run_extraction(str(src), out,
                               config=DiffConfig(**rerun)).take_all()
    # the table's directory is left empty: it reads typed, with no rows
    assert os.listdir(os.path.join(out, emptied)) == []
    empty = read_table(out, emptied)
    assert empty.count() == 0
    assert empty.schema().base_schema == (
        ERRORS_SCHEMA if emptied == "errors" else TABLE_SCHEMAS[emptied])
    for table in list(TABLE_COLS) + ["errors"]:
        assert read_table(out, table).count() == sum(
            json.loads(m["rows_per_table"]).get(table, 0)
            for m in manifests), table
