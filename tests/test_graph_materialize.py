"""Graph materialization: replaying the change history reproduces each
entity's FINAL snapshot claims — ground truth from the corpus generator.
Also the shape of the graph replay and dedup reducers: bucket count, typed
output blocks, and which row dedup keeps."""
import json
import random

import pytest


@pytest.fixture(scope="module")
def sims():
    from wikidata_edit_history_ray.sources.corpus import build_doc

    rng = random.Random(44)
    return [build_doc(f"Q{1200 + i}", rng) for i in range(40)]


@pytest.fixture(scope="module")
def value_change(ray_session, sims, tmp_path_factory):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from wikidata_edit_history_ray.pipelines.kg import (read_table,
                                                        run_extraction)
    from wikidata_edit_history_ray.sources.corpus import DOCS_SCHEMA

    docs = pa.Table.from_pydict(
        {"doc_id": [s.qid for s in sims], "spans": [s.spans for s in sims]},
        schema=DOCS_SCHEMA)
    root = tmp_path_factory.mktemp("graph")
    pq.write_table(docs, str(root / "docs.parquet"))
    run_extraction(str(root / "docs.parquet"), str(root / "out"))
    return read_table(str(root / "out"), "value_change")


class TestGraphMaterialize:
    def test_replay_equals_final_snapshot(self, sims, value_change):
        from wikidata_edit_history_ray.core.values import (
            parse_statement_datavalue, serialize_value)
        from wikidata_edit_history_ray.pipelines.kg import materialize_graph

        triples = materialize_graph(value_change).take_all()

        got = {(t["subj"], t["pred"], t["value_id"]): t["obj"] for t in triples}

        expected = {}
        for sim in sims:
            eid = int(sim.qid[1:])
            for pid, stmts in sim.claims.items():
                for s in stmts:
                    value, _, _ = parse_statement_datavalue(json.loads(json.dumps(s)))
                    expected[(eid, int(pid[1:]), s["id"])] = serialize_value(value)
            # labels/descriptions are pseudo-statements in the change table
            if sim.label:
                expected[(eid, -1, "label")] = serialize_value(sim.label)
            if sim.description:
                expected[(eid, -2, "description")] = serialize_value(sim.description)

        assert set(got) == set(expected), (
            len(set(got) - set(expected)), len(set(expected) - set(got)))
        for k, v in expected.items():
            assert got[k] == v, (k, got[k], v)

    def test_triples_unique_per_statement(self, value_change):
        from wikidata_edit_history_ray.pipelines.kg import materialize_graph

        triples = materialize_graph(value_change).take_all()
        keys = [(t["subj"], t["pred"], t["value_id"]) for t in triples]
        assert len(keys) == len(set(keys))


def test_replay_and_dedup_blocks_carry_no_pandas_metadata(ray_data_log,
                                                          value_change):
    """The local maps stay in Arrow: no output block carries the pandas
    schema metadata that pyarrow cannot hash, so Ray Data never fails to
    deduplicate the block schemas."""
    import ray

    from wikidata_edit_history_ray.pipelines.kg import (dedup_changes,
                                                        materialize_graph)

    outs = [materialize_graph(value_change).materialize(),
            dedup_changes(value_change, ["revision_id", "property_id",
                                         "value_id", "change_target"])
            .materialize()]
    assert not [r.getMessage() for r in ray_data_log
                if "Failed to hash the schemas" in r.getMessage()]
    for ds in outs:
        for block in ray.get(ds.to_arrow_refs()):
            hash(block.schema)


def test_salt_buckets_match_pandas_frame_hash():
    """salt_from_columns over an Arrow table gives the buckets of the
    per-column pandas hash over the same rows as a DataFrame."""
    import numpy as np
    from pandas.util import hash_pandas_object

    import golden
    from wikidata_edit_history_ray.stages.distributed import \
        salt_from_columns

    vc = golden.extract(golden.golden_docs())[0]["value_change"]
    df = vc.to_pandas()
    for cols in (["entity_id", "property_id", "value_id"],
                 ["revision_id", "property_id", "value_id", "change_target"]):
        acc = np.zeros(len(df), dtype=np.uint64)
        with np.errstate(over="ignore"):
            for c in cols:
                acc = acc * np.uint64(6364136223846793005) + \
                    hash_pandas_object(df[c], index=False).to_numpy()
        expected = (acc % np.uint64(64)).astype(np.int64)
        assert (salt_from_columns(vc, cols, 64) == expected).all()


def test_default_reduce_buckets_is_one_per_cpu(ray_session):
    """One reducer bucket per CPU, with no floor: 4 in this 4-CPU session."""
    from wikidata_edit_history_ray.stages.distributed import \
        default_reduce_buckets

    assert default_reduce_buckets() == 4 == ray_session.cluster_resources()[
        "CPU"]


@pytest.fixture(params=[1, 4], ids=["coalesce", "sort"])
def buckets(request, reduce_buckets):
    """The reducers' bucket count: 1 coalesces every partial into one reduce
    task, 4 sorts each partial on the salt and cuts it into the buckets."""
    reduce_buckets(request.param)
    return request.param


_DEDUP_PK = ["revision_id", "property_id", "value_id", "change_target"]


def _blocks(ds):
    import ray

    return ray.get(ds.materialize().to_arrow_refs())


def test_every_output_block_carries_the_output_schema(value_change, buckets):
    """Every block the graph replay and the dedup return carries the output
    schema, so the blocks concatenate; there is one block per bucket."""
    import pyarrow as pa

    from wikidata_edit_history_ray.pipelines.kg import (GRAPH_SCHEMA,
                                                        dedup_changes,
                                                        materialize_graph)

    vc_schema = value_change.schema().base_schema
    for ds, schema in ((materialize_graph(value_change), GRAPH_SCHEMA),
                       (dedup_changes(value_change, _DEDUP_PK), vc_schema)):
        blocks = _blocks(ds)
        assert [b.schema for b in blocks] == [schema] * len(blocks)
        assert pa.concat_tables(blocks).num_rows > 0
        assert len(blocks) == buckets


def test_empty_history_gives_typed_empty_result(buckets):
    """An empty change table (an unwritten table, or an as-of cutoff before
    the first change) replays to zero triples of GRAPH_SCHEMA and dedups to
    zero rows of its own schema."""
    import ray.data

    from wikidata_edit_history_ray.pipelines.kg import (GRAPH_SCHEMA,
                                                        dedup_changes,
                                                        materialize_graph)
    from wikidata_edit_history_ray.stages.schemas import TABLE_SCHEMAS

    vc_schema = TABLE_SCHEMAS["value_change"]
    empty = ray.data.from_arrow(vc_schema.empty_table())
    for ds, schema in ((materialize_graph(empty), GRAPH_SCHEMA),
                       (dedup_changes(empty, _DEDUP_PK), vc_schema)):
        ds = ds.materialize()
        assert ds.count() == 0
        assert ds.schema().base_schema == schema
        assert [b.schema for b in _blocks(ds)] == [schema] * ds.num_blocks()


def test_each_call_is_one_execution_and_one_task_per_bucket(
        value_change, ray_data_log, reduce_buckets, monkeypatch):
    """A call starts one Ray Data execution, the block-local map, and
    submits one reduce task per bucket; above one bucket, first one split
    task per partial. Tasks are counted on the driver, at the `.remote` of
    every `ray.remote(...)(fn)` of the reducers' two functions."""
    import ray

    from wikidata_edit_history_ray.pipelines import kg

    tasks = []  # (function name, object refs passed), in submission order
    make_remote = ray.remote

    def remote(*args, **kwargs):
        decorate = make_remote(*args, **kwargs)

        def counted(fn):
            task = decorate(fn)
            if fn in (kg._split_by_salt, kg._reduce_bucket):
                submit = task.remote

                def count(*fn_args):
                    tasks.append((fn.__name__, sum(
                        isinstance(a, ray.ObjectRef) for a in fn_args)))
                    return submit(*fn_args)
                task.remote = count
            return task
        return counted

    monkeypatch.setattr(ray, "remote", remote)

    def run(n):
        reduce_buckets(n)
        submitted = []
        for call in (lambda: kg.materialize_graph(value_change),
                     lambda: kg.dedup_changes(value_change, _DEDUP_PK)):
            del ray_data_log[:], tasks[:]
            call()
            assert sum(r.getMessage().startswith(
                "Starting execution of Dataset") for r in ray_data_log) == 1
            submitted.append(list(tasks))
        return submitted

    for one, four in zip(run(1), run(4)):
        # one bucket: one task over every partial
        [(name, partials)] = one
        assert name == "_reduce_bucket" and partials >= 1
        # four: a split per partial, then four tasks over one cut of each
        assert four == [("_split_by_salt", 1)] * partials + \
            [("_reduce_bucket", partials)] * 4


def test_bucket_count_ignores_the_cluster_size(value_change, monkeypatch):
    """The graph replay and the dedup return the same blocks, row for row,
    on a cluster that reports 1 CPU and on one that reports 16: the bucket
    count comes from the data."""
    import ray

    from wikidata_edit_history_ray.pipelines.kg import (dedup_changes,
                                                        materialize_graph)

    resources = ray.cluster_resources()

    def run(cpus):
        monkeypatch.setattr(ray, "cluster_resources",
                            lambda: {**resources, "CPU": float(cpus)})
        return [[b.to_pylist() for b in _blocks(ds)]
                for ds in (materialize_graph(value_change),
                           dedup_changes(value_change, _DEDUP_PK))]

    assert run(1) == run(16)


def test_dedup_keeps_the_least_row_of_each_key(buckets):
    """Non-identical duplicates in two partitions: dedup keeps, of each key,
    its least row in (pk, then the other columns) order, whatever the block
    order and the bucket count."""
    import pyarrow as pa
    import ray.data

    from wikidata_edit_history_ray.pipelines.kg import dedup_changes

    n = 40
    a = pa.table({"k": list(range(n)), "v": ["b"] * n,
                  "w": [i % 3 for i in range(n)]})
    b = pa.table({"k": list(range(0, 2 * n, 2)),
                  "v": ["a" if i % 4 else "b" for i in range(n)],
                  "w": [i % 5 for i in range(n)]})
    rows = a.to_pylist() + b.to_pylist()
    expected = {}
    for r in sorted(rows, key=lambda r: (r["k"], r["v"], r["w"])):
        expected.setdefault(r["k"], r)
    for parts in ([a, b], [b, a]):
        got = dedup_changes(ray.data.from_arrow(parts), ["k"]).take_all()
        assert sorted(got, key=lambda r: r["k"]) == \
            [expected[k] for k in sorted(expected)]
