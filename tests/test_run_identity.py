"""Driver-side resume: a finished partition is reused only under the run key
that produced it, an output dir whose partitions the input no longer has is
refused, and a call submits one extraction task per partition that is not
committed, and starts no Ray Data execution."""
import json
import os
import re

import pyarrow.parquet as pq
import pytest

AUX = {"property_labels": {"31": "instance of"}}


def _kw():
    """The aux tables, and one partition per row group."""
    from wikidata_edit_history_ray.sources.corpus import AO_TYPES, SA_TYPES

    return dict(AUX, sa_types=set(SA_TYPES), ao_types=set(AO_TYPES),
                target_rows_per_partition=1)


def _executions(records) -> int:
    return sum(r.getMessage().startswith("Starting execution of Dataset")
               for r in records)


@pytest.fixture
def submitted(ray_session, monkeypatch):
    """Partition ids of the extraction tasks submitted on the driver: the
    `.remote` of every `ray.remote(...)(extract_partition)` is counted."""
    import ray

    from wikidata_edit_history_ray.stages.extract import extract_partition

    ids = []
    make_remote = ray.remote

    def remote(*args, **kwargs):
        decorate = make_remote(*args, **kwargs)

        def counted(fn):
            task = decorate(fn)
            if fn is extract_partition:
                submit = task.remote

                def count(spec, *rest):
                    ids.append(spec["partition_id"])
                    return submit(spec, *rest)
                task.remote = count
            return task
        return counted

    monkeypatch.setattr(ray, "remote", remote)
    return ids


@pytest.fixture(scope="module")
def docs_table():
    from wikidata_edit_history_ray.sources.corpus import make_corpus

    return make_corpus(40, seed=13)[0]


@pytest.fixture
def corpus(docs_table, tmp_path):
    """A one-file corpus of 4 row groups (4 partitions), private to the
    test so it may rewrite it."""
    src = tmp_path / "docs"
    src.mkdir()
    pq.write_table(docs_table, str(src / "docs.parquet"), row_group_size=10)
    return str(src)


@pytest.fixture
def finished(ray_session, corpus, tmp_path):
    from wikidata_edit_history_ray.pipelines.kg import run_extraction

    out = str(tmp_path / "out")
    rows = run_extraction(corpus, out, **_kw()).take_all()
    assert len(rows) == 4 and not any(r["resumed"] for r in rows)
    return out


def _refused(corpus, out, **kw):
    from wikidata_edit_history_ray.pipelines.kg import run_extraction

    with pytest.raises(ValueError, match=re.escape(out)):
        run_extraction(corpus, out, **{**_kw(), **kw})


class TestOneJobPerCall:
    """A call is one extraction job: one Ray task per partition not yet
    committed, and no Ray Data execution."""

    def test_fresh_run_submits_one_task_per_partition(
            self, ray_data_log, submitted, corpus, tmp_path):
        from wikidata_edit_history_ray.pipelines.kg import run_extraction

        rows = run_extraction(corpus, str(tmp_path / "fresh"),
                              **_kw()).take_all()
        assert len(rows) == 4 and not any(r["resumed"] for r in rows)
        assert submitted == [r["partition_id"] for r in rows]
        assert _executions(ray_data_log) == 0

    def test_resumed_run_starts_no_execution(self, finished, corpus,
                                             ray_data_log, submitted):
        from wikidata_edit_history_ray.pipelines.kg import run_extraction

        before = {f: os.path.getmtime(os.path.join(d, f))
                  for d, _, fs in os.walk(finished) for f in fs}
        del ray_data_log[:], submitted[:]
        rows = run_extraction(corpus, finished, **_kw()).take_all()
        assert submitted == [] and _executions(ray_data_log) == 0
        assert len(rows) == 4 and all(r["resumed"] for r in rows)
        assert {f: os.path.getmtime(os.path.join(d, f))
                for d, _, fs in os.walk(finished) for f in fs} == before

    def test_deleted_manifest_reruns_only_that_partition(
            self, finished, corpus, ray_data_log, submitted):
        from wikidata_edit_history_ray.pipelines.kg import run_extraction

        victim = sorted(os.listdir(os.path.join(finished, "_manifest")))[0]
        os.remove(os.path.join(finished, "_manifest", victim))
        del ray_data_log[:], submitted[:]
        rows = run_extraction(corpus, finished, **_kw()).take_all()
        assert submitted == [victim.removesuffix(".json")]
        assert _executions(ray_data_log) == 0
        assert [r["partition_id"] for r in rows if not r["resumed"]] == \
            submitted


class TestFailedRun:
    def test_raise_leaves_every_healthy_partition_committed(
            self, ray_session, corpus, tmp_path):
        """One partition fails to write its value_change file. The call
        raises only once the other three are committed, so no task is left
        running; a rerun after the fault is gone redoes only that one."""
        from ray.exceptions import RayTaskError

        from wikidata_edit_history_ray.pipelines.kg import run_extraction
        from wikidata_edit_history_ray.stages.extract import \
            list_partition_specs

        ids = [s["partition_id"] for s in list_partition_specs(
            corpus, target_rows_per_partition=1)]
        victim = ids[1]
        blocker = tmp_path / "out" / "value_change" / f"{victim}.parquet"
        blocker.mkdir(parents=True)
        with pytest.raises(RayTaskError):
            run_extraction(corpus, str(tmp_path / "out"), **_kw())
        assert sorted(os.listdir(tmp_path / "out" / "_manifest")) == sorted(
            f"{p}.json" for p in ids if p != victim)

        blocker.rmdir()
        rows = run_extraction(corpus, str(tmp_path / "out"), **_kw()).take_all()
        assert [r["partition_id"] for r in rows if not r["resumed"]] == [victim]


class TestRunIdentity:
    def test_changed_config_refused(self, finished, corpus):
        from wikidata_edit_history_ray.core.differ import DiffConfig

        _refused(corpus, finished, config=DiffConfig(extract_features=False))

    def test_changed_aux_tables_refused(self, finished, corpus):
        _refused(corpus, finished, property_labels={"31": "is a"})
        _refused(corpus, finished, sa_types=set())

    def test_edited_or_missing_run_key_refused(self, finished, corpus):
        mdir = os.path.join(finished, "_manifest")
        path = os.path.join(mdir, sorted(os.listdir(mdir))[-1])
        with open(path) as f:
            m = json.load(f)
        for edit in ({**m, "run_key": "0" * 16},
                     {k: v for k, v in m.items() if k != "run_key"}):
            with open(path, "w") as f:
                json.dump(edit, f)
            _refused(corpus, finished)

    def test_input_rewritten_in_place_refused(self, finished, corpus):
        from wikidata_edit_history_ray.sources.corpus import make_corpus

        # same name and row-group layout, other contents and size
        path = os.path.join(corpus, "docs.parquet")
        size = os.path.getsize(path)
        pq.write_table(make_corpus(40, seed=14)[0], path, row_group_size=10)
        assert os.path.getsize(path) != size
        _refused(corpus, finished)

    def test_changed_partitioning_refused(self, finished, corpus):
        _refused(corpus, finished, target_rows_per_partition=20)
