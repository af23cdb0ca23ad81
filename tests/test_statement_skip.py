"""Cases where skipping an unchanged statement could go wrong.

The differ skips a statement whose raw JSON is byte-identical to its form in
the previous stored revision, and a whole property when its statement list
is. Each case below pins the rows the differ emitted before that skip
existed: the full rows of every table as one digest, and the value_change
and qualifier_change rows in readable form.
"""
import hashlib
import json
import random

import pytest

from wikidata_edit_history_ray.core.constants import (
    ENTITY_STATS_COLS,
    QUALIFIER_CHANGE_COLS,
    VALUE_CHANGE_COLS,
)
from wikidata_edit_history_ray.core.differ import DiffConfig, PageDiffer
from wikidata_edit_history_ray.sources.corpus import EntitySim


def _sim():
    sim = EntitySim("Q77", random.Random(5), rev_base=77000)
    sim.label = "L"
    return sim


def _qty(amount):
    return {"value": {"amount": amount, "unit": "1"}, "type": "quantity"}


def _stmt(sim, pid, dv, **extra):
    s = sim.make_statement(pid, dv)
    s.update(extra)
    return s


def number_flips():
    """A mainsnak and a qualifier value flip 1 -> 1.0 -> true -> 1."""
    sim = _sim()
    s = _stmt(sim, "P1", _qty(1), qualifiers={"P9": [
        sim.make_qualifier("P9", _qty(1))]})
    t = _stmt(sim, "P2", {"value": "a", "type": "string"})
    sim.claims = {"P1": [s], "P2": [t]}
    sim.snapshot_revision()
    for amount in (1.0, True, 1):
        s["mainsnak"]["datavalue"]["value"]["amount"] = amount
        sim.snapshot_revision()
    for amount in (1.0, True, 1):
        s["qualifiers"]["P9"][0]["datavalue"]["value"]["amount"] = amount
        sim.snapshot_revision()
    return sim


def keys_reordered():
    """The same statement serialized with its keys in reverse order."""
    sim = _sim()
    s = _stmt(sim, "P1", _qty("+5"), qualifiers={"P9": [
        sim.make_qualifier("P9", _qty("+1"))]})
    sim.claims = {"P1": [s]}
    sim.snapshot_revision()

    def rev(d):
        if isinstance(d, dict):
            return {k: rev(d[k]) for k in reversed(list(d))}
        if isinstance(d, list):
            return [rev(x) for x in d]
        return d

    sim.claims = {"P1": [rev(s)]}
    sim.snapshot_revision()
    sim.claims = {"P1": [s]}
    sim.snapshot_revision()
    s["rank"] = "preferred"
    sim.claims = {"P1": [rev(s)]}
    sim.snapshot_revision()
    return sim


def rank_only():
    """Only the rank changes, with value, qualifiers and references kept."""
    sim = _sim()
    s = _stmt(sim, "P1", _qty("+5"), qualifiers={"P9": [
        sim.make_qualifier("P9", _qty("+1"))]})
    s["references"] = [sim.make_reference([("P143", sim.rand_entity_value("Q8"))])]
    t = _stmt(sim, "P1", {"value": "b", "type": "string"})
    sim.claims = {"P1": [s, t]}
    sim.snapshot_revision()
    for rank in ("preferred", "deprecated", "deprecated", "normal"):
        s["rank"] = rank
        sim.snapshot_revision()
    return sim


def no_change_between():
    """A revision that changes nothing the differ sees sits between two
    changing ones, so the previous-revision pointer does not advance."""
    sim = _sim()
    s = _stmt(sim, "P1", _qty(1))
    t = _stmt(sim, "P2", {"value": "a", "type": "string"})
    sim.claims = {"P1": [s], "P2": [t]}
    sim.snapshot_revision()
    t["mainsnak"]["datavalue"] = {"value": "b", "type": "string"}
    sim.snapshot_revision()
    # representation-only change of s: no row, pointer stays
    s["mainsnak"]["datavalue"]["value"]["amount"] = 1.0
    s["mainsnak"]["hash"] = "upstream-hash-drift"
    sim.snapshot_revision()
    sim.snapshot_revision()
    t["mainsnak"]["datavalue"] = {"value": "c", "type": "string"}
    sim.snapshot_revision()
    s["mainsnak"]["datavalue"]["value"]["amount"] = 2
    sim.snapshot_revision()
    return sim


def removed_and_readded():
    """A statement is removed and then re-added under the same id, once with
    its property kept alive by a sibling and once with the property gone."""
    sim = _sim()
    s = _stmt(sim, "P1", _qty("+5"), qualifiers={"P9": [
        sim.make_qualifier("P9", _qty("+1"))]})
    t = _stmt(sim, "P1", {"value": "a", "type": "string"})
    u = _stmt(sim, "P3", {"value": "u", "type": "string"})
    sim.claims = {"P1": [s, t], "P3": [u]}
    sim.snapshot_revision()
    t["mainsnak"]["datavalue"] = {"value": "b", "type": "string"}
    sim.snapshot_revision()
    sim.claims = {"P1": [t], "P3": [u]}
    sim.snapshot_revision()
    sim.claims = {"P1": [s, t], "P3": [u]}
    sim.snapshot_revision()
    sim.claims = {"P1": [s, t]}
    sim.snapshot_revision()
    sim.claims = {"P1": [s, t], "P3": [u]}
    sim.snapshot_revision()
    u["rank"] = "preferred"
    sim.snapshot_revision()
    return sim


def deeply_nested():
    """A qualifier value nested deeper than orjson serializes (255 levels)."""
    sim = _sim()
    deep = "x"
    for _ in range(300):
        deep = [deep]
    s = _stmt(sim, "P1", _qty("+5"), qualifiers={"P9": [
        sim.make_qualifier("P9", {"value": deep, "type": "string"})]})
    t = _stmt(sim, "P2", {"value": "a", "type": "string"})
    sim.claims = {"P1": [s], "P2": [t]}
    sim.snapshot_revision()
    for value in ("b", "c"):
        t["mainsnak"]["datavalue"] = {"value": value, "type": "string"}
        sim.snapshot_revision()
    s["rank"] = "preferred"
    sim.snapshot_revision()
    return sim


def _five_statements(sim):
    """Five statements over three properties, with a qualifier and a
    reference, for the cases that count skipped statements."""
    s = _stmt(sim, "P1", _qty("+5"), qualifiers={"P9": [
        sim.make_qualifier("P9", {"value": "a & b", "type": "string"})]})
    s["references"] = [sim.make_reference([("P143", sim.rand_entity_value("Q8"))])]
    t = _stmt(sim, "P1", {"value": 'say "<hi>" &amp; go', "type": "string"})
    u = _stmt(sim, "P2", sim.rand_entity_value("Q5"))
    v = _stmt(sim, "P2", {"value": "x", "type": "string"})
    w = _stmt(sim, "P3", _qty(7))
    sim.claims = {"P1": [s, t], "P2": [u, v], "P3": [w]}
    return s, t, u, v, w


def _edit_one_at_a_time(sim, s, t, v, **kw):
    """Six revisions; after the first, each changes one statement."""
    sim.snapshot_revision(**kw)
    t["mainsnak"]["datavalue"] = {"value": "Tom & Jerry", "type": "string"}
    sim.snapshot_revision(**kw)
    v["rank"] = "preferred"
    sim.snapshot_revision(**kw)
    sim.snapshot_revision(**kw)  # no change
    s["qualifiers"]["P9"][0]["datavalue"]["value"] = "a &lt; b"
    sim.snapshot_revision(**kw)
    s["references"][0]["snaks"]["P143"][0]["datavalue"] = sim.rand_entity_value("Q9")
    sim.snapshot_revision(**kw)


def escaped_snapshots():
    """Every snapshot body is HTML-escaped, as in the XML dump's <text>."""
    sim = _sim()
    s, t, _, v, _ = _five_statements(sim)
    _edit_one_at_a_time(sim, s, t, v, escape=True)
    return sim


def _hex_hash(i, at):
    """A 40-hex hash holding a 19-digit run at offset `at`."""
    h = hashlib.sha1(str(i).encode()).hexdigest()
    return h[:at] + "1234567890123456789" + h[at + 19:]


def hashes_with_digit_runs():
    """Snak and reference hashes are 40-hex strings with 19-digit runs."""
    sim = _sim()
    stmts = _five_statements(sim)
    s, t, _, v, _ = stmts
    for i, stmt in enumerate(stmts):
        stmt["mainsnak"]["hash"] = _hex_hash(i, at=i * 5)
    s["qualifiers"]["P9"][0]["hash"] = _hex_hash(10, at=0)
    s["references"][0]["hash"] = _hex_hash(11, at=21)
    s["references"][0]["snaks"]["P143"][0]["hash"] = _hex_hash(12, at=3)
    _edit_one_at_a_time(sim, s, t, v)
    return sim


def _string(value):
    return {"value": value, "type": "string"}


def reordered_in_property():
    """The statements of one property change places, alone and together
    with an edit, and go back to their first order."""
    sim = _sim()
    a, b, c = (_stmt(sim, "P1", _string(x)) for x in "abc")
    t = _stmt(sim, "P2", _qty(3))
    sim.claims = {"P1": [a, b, c], "P2": [t]}
    sim.snapshot_revision()
    t["mainsnak"]["datavalue"] = _qty(4)
    sim.snapshot_revision()
    sim.claims = {"P1": [c, a, b], "P2": [t]}
    t["mainsnak"]["datavalue"] = _qty(5)
    sim.snapshot_revision()
    b["rank"] = "preferred"
    sim.snapshot_revision()
    sim.claims = {"P1": [a, b, c], "P2": [t]}
    sim.snapshot_revision()  # order only: no row, not stored
    a["mainsnak"]["datavalue"] = _string("a2")
    sim.snapshot_revision()
    sim.snapshot_revision()  # no change
    return sim


def one_of_five_edited():
    """One property holds five statements; one of them changes per
    revision while the other four stay as they were."""
    sim = _sim()
    stmts = [_stmt(sim, "P1", _string(x)) for x in "abcde"]
    t = _stmt(sim, "P2", _qty(1))
    sim.claims = {"P1": stmts, "P2": [t]}
    sim.snapshot_revision()
    t["mainsnak"]["datavalue"] = _qty(2)
    sim.snapshot_revision()
    stmts[2]["mainsnak"]["datavalue"] = _string("c2")
    sim.snapshot_revision()
    stmts[2]["qualifiers"] = {"P9": [sim.make_qualifier("P9", _qty(1))]}
    sim.snapshot_revision()
    stmts[0]["rank"] = "deprecated"
    sim.claims["P1"] = stmts[:4]
    sim.snapshot_revision()
    sim.claims["P1"] = stmts[:4] + [_stmt(sim, "P1", _string("f"))]
    sim.snapshot_revision()
    sim.snapshot_revision()  # no change
    return sim


def moved_between_properties():
    """A statement moves to another property under the same id, byte for
    byte, and back again."""
    sim = _sim()
    s = _stmt(sim, "P1", _qty("+5"), qualifiers={"P9": [
        sim.make_qualifier("P9", _qty("+1"))]})
    a = _stmt(sim, "P1", _string("a"))
    b = _stmt(sim, "P2", _string("b"))
    sim.claims = {"P1": [s, a], "P2": [b]}
    sim.snapshot_revision()
    a["mainsnak"]["datavalue"] = _string("a2")
    sim.snapshot_revision()
    sim.claims = {"P1": [a], "P2": [b, s]}
    sim.snapshot_revision()
    sim.snapshot_revision()  # no change
    s["rank"] = "preferred"
    sim.snapshot_revision()
    sim.claims = {"P1": [a, s], "P2": [b]}
    sim.snapshot_revision()
    b["mainsnak"]["datavalue"] = _string("b2")
    sim.snapshot_revision()
    return sim


def _nested(depth):
    value = "x"
    for _ in range(depth):
        value = [value]
    return value


def deep_property_lists():
    """Two properties whose statement lists are too deep for orjson (255
    levels) in several revisions in a row: one whose statement alone is too
    deep as well, and one whose statement alone is not."""
    sim = _sim()
    s = _stmt(sim, "P1", _qty("+5"), qualifiers={"P9": [
        sim.make_qualifier("P9", _string(_nested(300)))]})
    # the qualifier value nests 250 lists: the statement is 255 levels deep
    # and its property's list one more
    u = _stmt(sim, "P3", _qty("+6"), qualifiers={"P9": [
        sim.make_qualifier("P9", _string(_nested(250)))]})
    t = _stmt(sim, "P2", _string("a"))
    sim.claims = {"P1": [s], "P2": [t], "P3": [u]}
    sim.snapshot_revision()
    for value in ("b", "c"):
        t["mainsnak"]["datavalue"] = _string(value)
        sim.snapshot_revision()
    s["rank"] = "preferred"
    u["rank"] = "deprecated"
    sim.snapshot_revision()
    t["mainsnak"]["datavalue"] = _string("d")
    sim.snapshot_revision()
    return sim


# statements the differ skips as unchanged, per diffed revision: none in the
# second (nothing cached yet), 4 of 5 in the third, all 5 in the no-change
# fourth, none in the fifth (the fourth was not stored, so the cached bytes
# belong to objects that are not the previous revision's) and 4 in the sixth
SKIPS = {"escaped_snapshots": 4 + 5 + 4, "hashes_with_digit_runs": 4 + 5 + 4,
         # counted before statements were skipped a whole property at a time
         "reordered_in_property": 14, "one_of_five_edited": 25,
         "moved_between_properties": 9, "deep_property_lists": 3}

CASES = {
    "escaped_snapshots": escaped_snapshots,
    "hashes_with_digit_runs": hashes_with_digit_runs,
    "deeply_nested": deeply_nested,
    "number_flips": number_flips,
    "keys_reordered": keys_reordered,
    "rank_only": rank_only,
    "no_change_between": no_change_between,
    "removed_and_readded": removed_and_readded,
    "reordered_in_property": reordered_in_property,
    "one_of_five_edited": one_of_five_edited,
    "moved_between_properties": moved_between_properties,
    "deep_property_lists": deep_property_lists,
}


def _nested_repr(depth):
    return "[" * depth + '"x"' + "]" * depth


def run(sim):
    out = PageDiffer(DiffConfig()).process_doc(sim.qid, sim.spans)
    vc = [dict(zip(VALUE_CHANGE_COLS, r)) for r in out["value_change"]]
    qc = [dict(zip(QUALIFIER_CHANGE_COLS, r)) for r in out["qualifier_change"]]
    value_rows = sorted(
        (r["revision_id"] % 1000, r["property_id"], r["value_id"][-4:],
         r["change_target"], r["action"], r["old_value"], r["new_value"],
         r["old_hash"][:8], r["new_hash"][:8]) for r in vc)
    qual_rows = sorted(
        (r["revision_id"] % 1000, r["value_id"][-4:], r["qual_property_id"],
         r["action"], r["old_value"], r["new_value"], r["value_hash"][:8])
        for r in qc)
    tables = {k: v for k, v in out.items()
              if isinstance(v, list) and k != "entity_stats"}
    tables["entity_stats"] = [  # the per-entity timers vary run to run
        tuple(v for c, v in zip(ENTITY_STATS_COLS, r)
              if not (c.startswith("total_") and c.endswith("_sec")))
        for r in out["entity_stats"]]
    digest = hashlib.sha1(json.dumps(
        {k: sorted(map(repr, v)) for k, v in sorted(tables.items())}
    ).encode()).hexdigest()[:16]
    return value_rows, qual_rows, digest


# (value_change rows, qualifier_change rows, digest of every table), as the
# differ emitted them before the unchanged-statement skip; the last four
# cases as it emitted them before the whole-property skip
EXPECTED = {
    "escaped_snapshots": (
        [
            (1, -1, 'abel', '', 'CREATE', '{}', '"L"', '', ''),
            (1, 1, '0001', '', 'CREATE', '{}', '"+5"', '', 'wdh27428'),
            (1, 1, '0002', '', 'CREATE', '{}', '"say \\"<hi>\\" &amp; go"', '', 'wdh85383'),
            (1, 2, '0003', '', 'CREATE', '{}', '"Q5"', '', 'wdh74136'),
            (1, 2, '0004', '', 'CREATE', '{}', '"x"', '', 'wdh90356'),
            (1, 3, '0005', '', 'CREATE', '{}', '7', '', 'wdh79446'),
            (2, 1, '0002', '', 'UPDATE', '"say \\"<hi>\\" &amp; go"', '"Tom & Jerry"', '7af1f944', '167dde7b'),
            (3, 2, '0004', 'rank', 'UPDATE', '"normal"', '"preferred"', 'b7590a14', 'b7590a14'),
        ],
        [
            (1, '0001', 9, 'CREATE', '{}', '"a & b"', '480cc46b'),
            (5, '0001', 9, 'CREATE', '{}', '"a &lt; b"', '74d39d25'),
            (5, '0001', 9, 'DELETE', '"a & b"', '{}', '480cc46b'),
        ],
        "6f3068424389510f",
    ),
    "hashes_with_digit_runs": (
        [
            (1, -1, 'abel', '', 'CREATE', '{}', '"L"', '', ''),
            (1, 1, '0001', '', 'CREATE', '{}', '"+5"', '', '12345678'),
            (1, 1, '0002', '', 'CREATE', '{}', '"say \\"<hi>\\" & go"', '', '356a1123'),
            (1, 2, '0003', '', 'CREATE', '{}', '"Q5"', '', 'da4b9237'),
            (1, 2, '0004', '', 'CREATE', '{}', '"x"', '', '77de68da'),
            (1, 3, '0005', '', 'CREATE', '{}', '7', '', '1b645389'),
            (2, 1, '0002', '', 'UPDATE', '"say \\"<hi>\\" & go"', '"Tom & Jerry"', '93e06744', '167dde7b'),
            (3, 2, '0004', 'rank', 'UPDATE', '"normal"', '"preferred"', 'b7590a14', 'b7590a14'),
        ],
        [
            (1, '0001', 9, 'CREATE', '{}', '"a & b"', '480cc46b'),
            (5, '0001', 9, 'CREATE', '{}', '"a < b"', 'd2be945c'),
            (5, '0001', 9, 'DELETE', '"a & b"', '{}', '480cc46b'),
        ],
        "8a90a905283f01c2",
    ),
    "deeply_nested": (
        [
            (1, -1, 'abel', '', 'CREATE', '{}', '"L"', '', ''),
            (1, 1, '0001', '', 'CREATE', '{}', '"+5"', '', 'wdh27428'),
            (1, 2, '0002', '', 'CREATE', '{}', '"a"', '', 'wdh79648'),
            (2, 2, '0002', '', 'UPDATE', '"a"', '"b"', 'c9fef5dc', 'dc770452'),
            (3, 2, '0002', '', 'UPDATE', '"b"', '"c"', 'dc770452', '5892d97c'),
            (4, 1, '0001', 'rank', 'UPDATE', '"normal"', '"preferred"', '404a12cc', '404a12cc'),
        ],
        [
            (1, '0001', 9, 'CREATE', '{}', '[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[["x"]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]', '9327cfb2'),
        ],
        "395d7443893e7705",
    ),
    "keys_reordered": (
        [
            (1, -1, 'abel', '', 'CREATE', '{}', '"L"', '', ''),
            (1, 1, '0001', '', 'CREATE', '{}', '"+5"', '', 'wdh27428'),
            (4, 1, '0001', 'rank', 'UPDATE', '"normal"', '"preferred"', '404a12cc', '404a12cc'),
        ],
        [
            (1, '0001', 9, 'CREATE', '{}', '"+1"', '046d4b53'),
            (2, '0001', 9, 'CREATE', '{}', '"+1"', '863e8970'),
            (2, '0001', 9, 'DELETE', '"+1"', '{}', '046d4b53'),
            (3, '0001', 9, 'CREATE', '{}', '"+1"', '046d4b53'),
            (3, '0001', 9, 'DELETE', '"+1"', '{}', '863e8970'),
            (4, '0001', 9, 'CREATE', '{}', '"+1"', '863e8970'),
            (4, '0001', 9, 'DELETE', '"+1"', '{}', '046d4b53'),
        ],
        "7e963468e55d71c9",
    ),
    "no_change_between": (
        [
            (1, -1, 'abel', '', 'CREATE', '{}', '"L"', '', ''),
            (1, 1, '0001', '', 'CREATE', '{}', '1', '', 'wdh66883'),
            (1, 2, '0002', '', 'CREATE', '{}', '"a"', '', 'wdh27428'),
            (2, 2, '0002', '', 'UPDATE', '"a"', '"b"', 'c9fef5dc', 'dc770452'),
            (5, 2, '0002', '', 'UPDATE', '"b"', '"c"', 'dc770452', '5892d97c'),
            (6, 1, '0001', '', 'UPDATE', '1.0', '2', 'c3313ca0', '2a0cd489'),
        ],
        [
        ],
        "b28bc34dc8ee297e",
    ),
    "number_flips": (
        [
            (1, -1, 'abel', '', 'CREATE', '{}', '"L"', '', ''),
            (1, 1, '0001', '', 'CREATE', '{}', '1', '', 'wdh27428'),
            (1, 2, '0002', '', 'CREATE', '{}', '"a"', '', 'wdh79648'),
        ],
        [
            (1, '0001', 9, 'CREATE', '{}', '1', 'c3313ca0'),
            (5, '0001', 9, 'CREATE', '{}', '1.0', 'fd0a6b85'),
            (5, '0001', 9, 'DELETE', '1', '{}', 'c3313ca0'),
            (6, '0001', 9, 'CREATE', '{}', 'true', '5934c045'),
            (6, '0001', 9, 'DELETE', '1.0', '{}', 'fd0a6b85'),
            (7, '0001', 9, 'CREATE', '{}', '1', 'c3313ca0'),
            (7, '0001', 9, 'DELETE', 'true', '{}', '5934c045'),
        ],
        "894f503cc0a8d79b",
    ),
    "rank_only": (
        [
            (1, -1, 'abel', '', 'CREATE', '{}', '"L"', '', ''),
            (1, 1, '0001', '', 'CREATE', '{}', '"+5"', '', 'wdh27428'),
            (1, 1, '0002', '', 'CREATE', '{}', '"b"', '', 'wdh85383'),
            (2, 1, '0001', 'rank', 'UPDATE', '"normal"', '"preferred"', '404a12cc', '404a12cc'),
            (3, 1, '0001', 'rank', 'UPDATE', '"preferred"', '"deprecated"', '404a12cc', '404a12cc'),
            (5, 1, '0001', 'rank', 'UPDATE', '"deprecated"', '"normal"', '404a12cc', '404a12cc'),
        ],
        [
            (1, '0001', 9, 'CREATE', '{}', '"+1"', '046d4b53'),
        ],
        "f59c9098d244a5e9",
    ),
    "removed_and_readded": (
        [
            (1, -1, 'abel', '', 'CREATE', '{}', '"L"', '', ''),
            (1, 1, '0001', '', 'CREATE', '{}', '"+5"', '', 'wdh27428'),
            (1, 1, '0002', '', 'CREATE', '{}', '"a"', '', 'wdh79648'),
            (1, 3, '0003', '', 'CREATE', '{}', '"u"', '', 'wdh38497'),
            (2, 1, '0002', '', 'UPDATE', '"a"', '"b"', 'c9fef5dc', 'dc770452'),
            (3, 1, '0001', '', 'DELETE', '"+5"', '{}', '404a12cc', ''),
            (3, 1, '0001', 'rank', 'DELETE', '"normal"', '{}', '404a12cc', ''),
            (4, 1, '0001', '', 'CREATE', '{}', '"+5"', '', '404a12cc'),
            (4, 1, '0001', 'rank', 'CREATE', '{}', '"normal"', '', '404a12cc'),
            (5, 3, '0003', '', 'DELETE', '"u"', '{}', '6354d6c3', ''),
            (5, 3, '0003', 'rank', 'DELETE', '"normal"', '{}', '6354d6c3', ''),
            (6, 3, '0003', '', 'CREATE', '{}', '"u"', '', '6354d6c3'),
            (6, 3, '0003', 'rank', 'CREATE', '{}', '"normal"', '', '6354d6c3'),
            (7, 3, '0003', 'rank', 'UPDATE', '"normal"', '"preferred"', '6354d6c3', '6354d6c3'),
        ],
        [
            (1, '0001', 9, 'CREATE', '{}', '"+1"', '046d4b53'),
            (3, '0001', 9, 'DELETE', '"+1"', '{}', '046d4b53'),
            (4, '0001', 9, 'CREATE', '{}', '"+1"', '046d4b53'),
        ],
        "3a7320783a4b5f23",
    ),
    'reordered_in_property': (
        [
            (1, -1, 'abel', '', 'CREATE', '{}', '"L"', '', ''),
            (1, 1, '0001', '', 'CREATE', '{}', '"a"', '', 'wdh66883'),
            (1, 1, '0002', '', 'CREATE', '{}', '"b"', '', 'wdh27428'),
            (1, 1, '0003', '', 'CREATE', '{}', '"c"', '', 'wdh79648'),
            (1, 2, '0004', '', 'CREATE', '{}', '3', '', 'wdh38497'),
            (2, 2, '0004', '', 'UPDATE', '3', '4', 'eedf98d2', 'aa12aa69'),
            (3, 2, '0004', '', 'UPDATE', '4', '5', 'aa12aa69', '2400e1ad'),
            (4, 1, '0002', 'rank', 'UPDATE', '"normal"', '"preferred"', 'dc770452', 'dc770452'),
            (6, 1, '0001', '', 'UPDATE', '"a"', '"a2"', 'c9fef5dc', '0caec5ca'),
        ],
        [
        ],
        'b7b8216e1d981efe',
    ),
    'one_of_five_edited': (
        [
            (1, -1, 'abel', '', 'CREATE', '{}', '"L"', '', ''),
            (1, 1, '0001', '', 'CREATE', '{}', '"a"', '', 'wdh66883'),
            (1, 1, '0002', '', 'CREATE', '{}', '"b"', '', 'wdh27428'),
            (1, 1, '0003', '', 'CREATE', '{}', '"c"', '', 'wdh79648'),
            (1, 1, '0004', '', 'CREATE', '{}', '"d"', '', 'wdh38497'),
            (1, 1, '0005', '', 'CREATE', '{}', '"e"', '', 'wdh85383'),
            (1, 2, '0006', '', 'CREATE', '{}', '1', '', 'wdh74136'),
            (2, 2, '0006', '', 'UPDATE', '1', '2', 'c3313ca0', '2a0cd489'),
            (3, 1, '0003', '', 'UPDATE', '"c"', '"c2"', '5892d97c', '0c5f477d'),
            (5, 1, '0001', 'rank', 'UPDATE', '"normal"', '"deprecated"', 'c9fef5dc', 'c9fef5dc'),
            (5, 1, '0005', '', 'DELETE', '"e"', '{}', '1aac8979', ''),
            (5, 1, '0005', 'rank', 'DELETE', '"normal"', '{}', '1aac8979', ''),
            (6, 1, '0007', '', 'CREATE', '{}', '"f"', '', '1ba93f28'),
            (6, 1, '0007', 'rank', 'CREATE', '{}', '"normal"', '', '1ba93f28'),
        ],
        [
            (4, '0003', 9, 'CREATE', '{}', '1', 'c3313ca0'),
        ],
        '87e0375be363c078',
    ),
    'moved_between_properties': (
        [
            (1, -1, 'abel', '', 'CREATE', '{}', '"L"', '', ''),
            (1, 1, '0001', '', 'CREATE', '{}', '"+5"', '', 'wdh27428'),
            (1, 1, '0002', '', 'CREATE', '{}', '"a"', '', 'wdh79648'),
            (1, 2, '0003', '', 'CREATE', '{}', '"b"', '', 'wdh38497'),
            (2, 1, '0002', '', 'UPDATE', '"a"', '"a2"', 'c9fef5dc', '0caec5ca'),
            (3, 1, '0001', '', 'DELETE', '"+5"', '{}', '404a12cc', ''),
            (3, 1, '0001', 'rank', 'DELETE', '"normal"', '{}', '404a12cc', ''),
            (3, 2, '0001', '', 'CREATE', '{}', '"+5"', '', '404a12cc'),
            (3, 2, '0001', 'rank', 'CREATE', '{}', '"normal"', '', '404a12cc'),
            (5, 2, '0001', 'rank', 'UPDATE', '"normal"', '"preferred"', '404a12cc', '404a12cc'),
            (6, 1, '0001', '', 'CREATE', '{}', '"+5"', '', '404a12cc'),
            (6, 1, '0001', 'rank', 'CREATE', '{}', '"preferred"', '', '404a12cc'),
            (6, 2, '0001', '', 'DELETE', '"+5"', '{}', '404a12cc', ''),
            (6, 2, '0001', 'rank', 'DELETE', '"preferred"', '{}', '404a12cc', ''),
            (7, 2, '0003', '', 'UPDATE', '"b"', '"b2"', 'dc770452', '9267dddb'),
        ],
        [
            (1, '0001', 9, 'CREATE', '{}', '"+1"', '046d4b53'),
            (3, '0001', 9, 'CREATE', '{}', '"+1"', '046d4b53'),
            (3, '0001', 9, 'DELETE', '"+1"', '{}', '046d4b53'),
            (6, '0001', 9, 'CREATE', '{}', '"+1"', '046d4b53'),
            (6, '0001', 9, 'DELETE', '"+1"', '{}', '046d4b53'),
        ],
        '5d9499df8b72aa8d',
    ),
    'deep_property_lists': (
        [
            (1, -1, 'abel', '', 'CREATE', '{}', '"L"', '', ''),
            (1, 1, '0001', '', 'CREATE', '{}', '"+5"', '', 'wdh27428'),
            (1, 2, '0003', '', 'CREATE', '{}', '"a"', '', 'wdh85383'),
            (1, 3, '0002', '', 'CREATE', '{}', '"+6"', '', 'wdh38497'),
            (2, 2, '0003', '', 'UPDATE', '"a"', '"b"', 'c9fef5dc', 'dc770452'),
            (3, 2, '0003', '', 'UPDATE', '"b"', '"c"', 'dc770452', '5892d97c'),
            (4, 1, '0001', 'rank', 'UPDATE', '"normal"', '"preferred"', '404a12cc', '404a12cc'),
            (4, 3, '0002', 'rank', 'UPDATE', '"normal"', '"deprecated"', '18d3cba3', '18d3cba3'),
            (5, 2, '0003', '', 'UPDATE', '"c"', '"d"', '5892d97c', '83456629'),
        ],
        [
            (1, '0001', 9, 'CREATE', '{}', _nested_repr(300), '9327cfb2'),
            (1, '0002', 9, 'CREATE', '{}', _nested_repr(250), 'a21dc13c'),
        ],
        '4e876f20b7d92feb',
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_rows_unchanged(case):
    value_rows, qual_rows, digest = run(CASES[case]())
    exp_values, exp_quals, exp_digest = EXPECTED[case]
    assert value_rows == exp_values
    assert qual_rows == exp_quals
    assert digest == exp_digest



@pytest.mark.parametrize("case", sorted(SKIPS))
def test_skip_fires(case, monkeypatch):
    """Counts the statements skipped a whole property at a time and one at
    a time: the sum must not change with the level that skips them."""
    skipped = []
    unchanged_stmts = PageDiffer._unchanged_stmts

    def spy(self, pid, prev_stmts, curr_stmts):
        hit = unchanged_stmts(self, pid, prev_stmts, curr_stmts)
        if hit is True:
            skipped.extend(s["id"] for s in curr_stmts)
        else:
            skipped.extend(hit)
        return hit

    monkeypatch.setattr(PageDiffer, "_unchanged_stmts", spy)
    run(CASES[case]())
    assert len(skipped) == SKIPS[case]
