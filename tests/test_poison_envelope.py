"""A malformed revision envelope costs its own span, not the entity.

A span whose envelope is not JSON, not a JSON object, has no usable
revision_id, has a username, timestamp, comment or text that is neither null
nor a string, or whose snapshot is a JSON scalar is skipped like a revision
whose snapshot cannot be recovered:
the previous revision does not advance, and the later revisions are diffed
and written as if the span were not there.
"""
import json
import random

import pyarrow as pa
import pytest

from wikidata_edit_history_ray.core.constants import ENTITY_STATS_COLS
from wikidata_edit_history_ray.core.differ import DiffConfig, PageDiffer
from wikidata_edit_history_ray.sources import corpus
from wikidata_edit_history_ray.stages.extract import ChangeExtractor


def _envelope(revision_id: str, text: str) -> str:
    """An envelope whose revision_id is the raw JSON `revision_id`."""
    return ('{"revision_id": %s, "timestamp": "2020-01-01T00:00:00Z", '
            '"username": "Eve", "text": %s}' % (revision_id, json.dumps(text)))


def _fields(snapshot: str, **fields) -> str:
    """A valid envelope with the given fields replaced."""
    return json.dumps({"revision_id": 55999, "timestamp": "2020-01-01T00:00:00Z",
                       "username": "Eve", "text": snapshot, **fields})


def _poisons(snapshot: str) -> dict:
    return {
        "list": "[]",
        "null": "null",
        "string": '"x"',
        "number": "5",
        "empty_object": "{}",
        "no_revision_id": json.dumps({"timestamp": "2020-01-01T00:00:00Z",
                                      "text": snapshot}),
        "null_revision_id": _envelope("null", snapshot),
        "text_revision_id": _envelope('"abc"', snapshot),
        "overflow_revision_id": _envelope("1e400", snapshot),
        "nan_revision_id": _envelope("NaN", snapshot),
        "broken": "{bad",
        "number_username": _fields(snapshot, username=5),
        "list_timestamp": _fields(snapshot, timestamp=[1]),
        "object_comment": _fields(snapshot, comment={}),
        "number_text": _fields(snapshot, text=5),
        "list_text": _fields(snapshot, text=[]),
        "scalar_snapshot": _fields(snapshot, text="5"),
    }


def _history(poison: str | None):
    """Create, add a statement, (the poison span,) add another, update one.

    The poison envelopes that carry a snapshot carry one without the first
    added statement: were it taken as the previous revision, the next diff
    would report that statement as created again."""
    sim = corpus.EntitySim("Q55", random.Random(3), rev_base=55000)
    sim.op_create_entity(type_qids=["Q3000"], n_statements=3, label="P",
                         desc="d")
    _, pid, stmt = sim.op_add_statement(kind="string")
    if poison is not None:
        snap = sim._entity_json()
        snap["claims"][pid] = [s for s in snap["claims"][pid]
                               if s["id"] != stmt["id"]]
        sim.spans.append({"kind": "text",
                          "text": _poisons(json.dumps(snap))[poison],
                          "media_ref": "", "offset": sim.offset})
        sim.offset += 1
    later, *_ = sim.op_add_statement(kind="string")
    sim.op_update_value()
    return sim, later


def _tables(out):
    tables = {k: v for k, v in out.items()
              if isinstance(v, list) and k not in ("doc_spans", "entity_stats")}
    tables["entity_stats"] = [
        tuple(v for c, v in zip(ENTITY_STATS_COLS, r)
              if not (c.startswith("total_") and c.endswith("_sec")))
        for r in out["entity_stats"]]
    return tables


@pytest.mark.parametrize("poison", sorted(_poisons("")))
def test_poison_span_is_skipped(poison):
    sim, later = _history(poison)
    out = PageDiffer(DiffConfig()).process_doc(sim.qid, sim.spans)
    assert any(r[0] == later for r in out["value_change"])
    clean, _ = _history(None)
    assert _tables(out) == _tables(
        PageDiffer(DiffConfig()).process_doc(clean.qid, clean.spans))
    # the poison span stays in the lineage output
    assert len(out["doc_spans"]) == len(clean.spans) + 1

    docs = pa.Table.from_pydict({"doc_id": [sim.qid], "spans": [sim.spans]},
                                schema=corpus.DOCS_SCHEMA)
    tables, errors = ChangeExtractor().extract_batch(docs)
    assert errors == []
    assert later in tables["value_change"].column("revision_id").to_pylist()
