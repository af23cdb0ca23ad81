"""Graph materialization: replaying the change history reproduces each
entity's FINAL snapshot claims — ground truth from the corpus generator."""
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
