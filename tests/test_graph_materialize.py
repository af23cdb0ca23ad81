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


class TestGraphMaterialize:
    def test_replay_equals_final_snapshot(self, ray_session, sims):
        import pyarrow as pa
        import ray

        from wikidata_edit_history_ray.core.values import (
            parse_statement_datavalue, serialize_value)
        from wikidata_edit_history_ray.pipelines.kg import (
            extract_table, materialize_graph)
        from wikidata_edit_history_ray.sources.corpus import DOCS_SCHEMA

        docs = pa.Table.from_pydict(
            {"doc_id": [s.qid for s in sims], "spans": [s.spans for s in sims]},
            schema=DOCS_SCHEMA)
        vc = extract_table(ray.data.from_arrow(docs), "value_change")
        triples = materialize_graph(vc).take_all()

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

    def test_triples_unique_per_statement(self, ray_session, sims):
        import pyarrow as pa
        import ray

        from wikidata_edit_history_ray.pipelines.kg import (
            extract_table, materialize_graph)
        from wikidata_edit_history_ray.sources.corpus import DOCS_SCHEMA

        docs = pa.Table.from_pydict(
            {"doc_id": [s.qid for s in sims], "spans": [s.spans for s in sims]},
            schema=DOCS_SCHEMA)
        vc = extract_table(ray.data.from_arrow(docs), "value_change")
        triples = materialize_graph(vc).take_all()
        keys = [(t["subj"], t["pred"], t["value_id"]) for t in triples]
        assert len(keys) == len(set(keys))
