"""Seeded corpus and table digests for the golden-digest oracle.

The corpus exercises every `EntitySim` edit operation plus the snapshot
shapes that pick a JSON recovery path (HTML-escaped, smart quotes, control
characters, NaN, integers beyond 64 bits), revisions that change several
statements at once, and one wide entity with 120 revisions. It runs through
`ChangeExtractor.extract_batch`, so no Ray session is needed.

Regenerate the committed digest only when an output change is intended:

    python tests/golden.py
"""
from __future__ import annotations

import hashlib
import json
import os
import random
import sys

import pyarrow as pa

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from wikidata_edit_history_ray.sources import corpus  # noqa: E402
from wikidata_edit_history_ray.sources.corpus import EntitySim  # noqa: E402


def _multi_edit(sim: EntitySim, rng: random.Random, n: int):
    """One revision that changes values, ranks, qualifiers and references of
    several statements at once (EntitySim ops change one thing per revision)."""
    stmts = [s for p, ss in sim.claims.items() if p != "P31" for s in ss]
    for s in rng.sample(stmts, min(n, len(stmts))):
        what = rng.random()
        if what < 0.4 and "datavalue" in s["mainsnak"]:
            kind = {"string": "string", "wikibase-entityid": "entity",
                    "time": "time", "quantity": "quantity",
                    "globecoordinate": "globe",
                    "monolingualtext": "mono"}[s["mainsnak"]["datavalue"]["type"]]
            s["mainsnak"]["datavalue"] = sim.rand_value(kind)
        elif what < 0.6:
            s["rank"] = rng.choice(["normal", "preferred", "deprecated"])
        elif what < 0.8:
            for _ in range(3):
                qpid = f"P{rng.randint(500, 520)}"
                s.setdefault("qualifiers", {}).setdefault(qpid, []).append(
                    sim.make_qualifier(qpid, sim.rand_time_value()))
        else:
            s.setdefault("references", []).append(sim.make_reference(
                [(f"P{rng.randint(140, 150)}", sim.rand_entity_value())
                 for _ in range(2)]))
    sim.snapshot_revision(comment="batch edit")


def _scripted(qid: str, rng: random.Random) -> EntitySim:
    """Every EntitySim op once or more, including the ones build_doc never
    picks (malformed, redirect, cleaned), and the recovery-path snapshots."""
    sim = EntitySim(qid, rng, rev_base=int(qid[1:]) * 1000)
    sim.op_create_entity(type_qids=[corpus.OTHER_TYPES[0]], n_statements=4,
                         label="Scripted", desc="every op")
    sim.op_add_statement(with_qualifier=True, with_reference=True)
    sim.op_add_statement(kind="mono")
    sim.op_add_statement(kind="globe")
    sim.op_rank_change()
    sim.op_add_qualifier()
    sim.op_add_qualifier()
    sim.op_remove_qualifier()
    sim.op_add_reference()
    sim.op_update_value()
    sim.op_malformed_revision()
    sim.op_deleted_revision()
    sim.op_alias_only_revision()
    sim.op_label_change("Scripted & “quoted”")
    sim.snapshot_revision(escape=True, comment="html-escaped snapshot")
    sim.op_description_change("control char follows")
    body = json.dumps(sim._entity_json(), ensure_ascii=False)
    sim.push_revision(body.replace("control char follows",
                                   "control\x01 char follows"))
    _multi_edit(sim, rng, 4)
    sim.op_update_value(username="RestoreBot", comment="restore")
    sim.op_delete_statement()
    sim.op_label_change("Scripted")
    sim.op_cleaned()
    sim.op_redirect("Q42")
    return sim


def _odd_numbers(qid: str, rng: random.Random) -> EntitySim:
    """Values only the stdlib parser reads exactly: NaN, Infinity, integers
    beyond 64 bits, and number spellings that compare equal in Python."""
    sim = EntitySim(qid, rng, rev_base=int(qid[1:]) * 1000)
    sim.op_create_entity(type_qids=[corpus.OTHER_TYPES[1]], n_statements=1,
                         label="Odd", desc="odd numbers")
    _, _, globe = sim.op_add_statement(kind="globe")
    _, _, qty = sim.op_add_statement(kind="quantity")
    for precision in (float("nan"), None, float("inf"), 0.5, 0.5):
        globe["mainsnak"]["datavalue"]["value"]["precision"] = precision
        sim.snapshot_revision()
    for amount in (123456789012345678901234567890, -9223372036854775809,
                   1, 1.0, True, 1, "+1"):
        qty["mainsnak"]["datavalue"]["value"]["amount"] = amount
        sim.snapshot_revision()
    qty["mainsnak"]["datavalue"]["value"]["unit"] = "9" * 25
    sim.snapshot_revision()
    return sim


def _wide(qid: str, rng: random.Random, revisions: int) -> EntitySim:
    """A high-edit entity: 40 statements, then a random mix of every
    statement-level op plus the skip-rule revisions."""
    sim = EntitySim(qid, rng, rev_base=int(qid[1:]) * 1000)
    sim.op_create_entity(type_qids=[corpus.SA_TYPES[0]], n_statements=40,
                         label=f"Wide {qid}", desc="wide entity")
    ops = [
        (0.30, lambda: sim.op_update_value(
            username=rng.choice(["Alice", "FixBot", ""]))),
        (0.12, lambda: sim.op_add_statement(with_qualifier=rng.random() < 0.5,
                                            with_reference=rng.random() < 0.5)),
        (0.06, lambda: sim.op_delete_statement()),
        (0.08, lambda: sim.op_rank_change()),
        (0.10, lambda: sim.op_add_qualifier()),
        (0.06, lambda: sim.op_remove_qualifier()),
        (0.08, lambda: sim.op_add_reference()),
        (0.06, lambda: _multi_edit(sim, rng, 5)),
        (0.04, lambda: sim.op_label_change(f"Wide {qid} v{rng.randint(2, 9)}")),
        (0.03, lambda: sim.op_alias_only_revision()),
        (0.03, lambda: sim.op_deleted_revision()),
        (0.02, lambda: sim.op_malformed_revision()),
        (0.02, lambda: sim.push_revision(
            json.dumps(sim._entity_json(), ensure_ascii=False), stored=False)),
    ]
    weights = [w for w, _ in ops]
    fns = [f for _, f in ops]
    while sim.rev_count < revisions:
        rng.choices(fns, weights=weights, k=1)[0]()
    return sim


def golden_docs() -> pa.Table:
    """The oracle's input: 200 random-script docs (with two 40-revision hot
    docs), the scripted and odd-number entities, and one wide entity."""
    docs, _ = corpus.make_corpus(200, seed=11, hot_doc_revisions=40,
                                 hot_doc_every=90)
    rng = random.Random(20261017)
    sims = [_scripted("Q900", rng), _odd_numbers("Q901", rng),
            _wide("Q902", rng, 120)]
    extra = pa.Table.from_pydict(
        {"doc_id": [s.qid for s in sims], "spans": [s.spans for s in sims]},
        schema=corpus.DOCS_SCHEMA)
    return pa.concat_tables([docs, extra])


def extract(docs: pa.Table):
    """({table: pa.Table}, errors) of the default-config extraction."""
    from wikidata_edit_history_ray.stages.extract import ChangeExtractor

    return ChangeExtractor(
        sa_types=corpus.SA_TYPES, ao_types=corpus.AO_TYPES).extract_batch(docs)


def _rows(table: pa.Table) -> list:
    # per-entity timers differ run to run; everything else is deterministic
    cols = [c for c in table.column_names
            if not (c.startswith("total_") and c.endswith("_sec"))]
    return list(zip(*(table.column(c).to_pylist() for c in cols)))


def ordered_digests(tables: dict) -> dict:
    """{table: sha1 of the rows in emission order}."""
    return {name: hashlib.sha1(repr(_rows(t)).encode()).hexdigest()[:16]
            for name, t in sorted(tables.items())}


def canonical_digests(tables: dict, errors: list) -> dict:
    """{table: [row count, sha1 of the canonically sorted rows]}, plus the
    errors list."""
    out = {}
    for name, t in sorted(tables.items()):
        rows = sorted(repr(r) for r in _rows(t))
        out[name] = [t.num_rows,
                     hashlib.sha1("\n".join(rows).encode()).hexdigest()[:16]]
    out["errors"] = [len(errors), hashlib.sha1(
        repr(sorted(errors)).encode()).hexdigest()[:16]]
    return out


if __name__ == "__main__":
    print(json.dumps(canonical_digests(*extract(golden_docs())), indent=4))
