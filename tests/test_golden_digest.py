"""Golden-digest oracle: all 12 output tables of a seeded corpus.

The reference-conformance suite needs the reference implementation checked
out next to this repository; this oracle does not. It pins the exact rows
the engine emits for `golden.golden_docs()` (every EntitySim op, the JSON
recovery paths, multi-statement revisions and a 120-revision entity), so a
change to the parser or the differ that alters any row fails here. Rows are
sorted before hashing, so the digest does not depend on emission order, and
the per-entity `total_*_sec` timers are left out.
"""
import golden

GOLDEN = {
    "datatype_metadata_change": (241, "fed65df47f602a9a"),
    "doc_spans": (1613, "75e2de73d558efbf"),
    "entity_stats": (203, "ef3d164931a944ce"),
    "features_entity": (44, "708b19dc9b938ea7"),
    "features_globecoordinate": (78, "e43ad65e39a8dcee"),
    "features_quantity": (66, "04f8151299389fbd"),
    "features_text": (347, "505f03a5b4ea8726"),
    "features_time": (59, "d8b3b4b94a13cdd3"),
    "qualifier_change": (221, "cb02d0dc154b0f60"),
    "reference_change": (159, "498b09f1ffa9dda9"),
    "revision": (1360, "e4c7b2e1c3f72bdd"),
    "value_change": (2580, "7e6363d7a4bb3799"),
    "errors": (0, "97d170e1550eee4a"),
}


def test_golden_digest():
    tables, errors = golden.extract(golden.golden_docs())
    got = golden.canonical_digests(tables, errors)
    assert {k: tuple(v) for k, v in got.items()} == GOLDEN
