"""Per-entity-class config gates (setup.yml:11-27 semantics): the engine's
DiffConfig.class_filters + ChangeExtractor write gates must keep/drop exactly
the tables the reference's db_writer.batch_insert would persist per class.

Conformance here runs the ACTUAL reference PageParser (shimmed) with an
ASYMMETRIC filter config and compares per-doc, per-table row multiplicities.
"""
import os

import pyarrow as pa
import pytest

from wikidata_edit_history_ray.core.differ import DiffConfig
from wikidata_edit_history_ray.sources.corpus import (AO_TYPES, DOCS_SCHEMA,
                                                      SA_TYPES, make_corpus)
from wikidata_edit_history_ray.stages.extract import ChangeExtractor

# sa: everything on; ao: extraction only; less: metadata but no features;
# rest: features but no metadata — every gate combination exercised
ASYM_FILTERS = {
    "scholarly_articles_filter": {
        "extract": True, "feature_extraction": True,
        "datatype_metadata_extraction": True},
    "astronomical_objects_filter": {
        "extract": True, "feature_extraction": False,
        "datatype_metadata_extraction": False},
    "less_filter": {
        "extract": True, "feature_extraction": False,
        "datatype_metadata_extraction": True, "threshold": 10},
    "rest": {"feature_extraction": True,
             "datatype_metadata_extraction": False},
}

FEATURE_TABLES = ("features_text", "features_time", "features_quantity",
                  "features_globecoordinate", "features_entity")


def _engine_outputs(docs, class_filters):
    ex = ChangeExtractor(
        config=DiffConfig(class_filters=class_filters).to_dict(),
        sa_types=sorted(SA_TYPES), ao_types=sorted(AO_TYPES))
    tables, errors = ex.extract_batch(docs)
    assert not errors
    return tables


class TestClassGatesConformance:
    @pytest.mark.skipif(not os.path.isdir("/root/reference/scripts"),
                        reason="reference repo not available")
    def test_asymmetric_gates_match_reference(self):
        from reference_shim import (REFERENCE_SET_UP,
                                    reference_write_gates,
                                    run_reference_page_parser)

        set_up = dict(REFERENCE_SET_UP,
                      change_extraction_filters=ASYM_FILTERS)
        docs, _ = make_corpus(60, seed=4242)
        tables = _engine_outputs(docs, ASYM_FILTERS)

        # expected per-table totals: reference output filtered by its own
        # write gates, accumulated over pages
        expected = {t: 0 for t in ("value_change", "qualifier_change",
                                   "reference_change",
                                   "datatype_metadata_change",
                                   "revision", "entity_stats",
                                   *FEATURE_TABLES)}
        classes_seen = set()
        for i in range(docs.num_rows):
            doc_id = docs["doc_id"][i].as_py()
            spans = docs["spans"][i].as_py()
            res = run_reference_page_parser(
                doc_id, spans, sa_types=SA_TYPES, ao_types=AO_TYPES,
                workdir="/tmp/widiff_ref_gates", set_up=set_up)
            keep, feats, md = reference_write_gates(
                ASYM_FILTERS, res["is_scholarly_article"],
                res["is_astronomical_object"], res["has_less_revisions"])
            classes_seen.add((res["is_scholarly_article"],
                              res["is_astronomical_object"],
                              res["has_less_revisions"]))
            if not keep:
                continue
            for t in expected:
                if t in FEATURE_TABLES and not feats:
                    continue
                if t == "datatype_metadata_change" and not md:
                    continue
                expected[t] += len(res[t])

        # the corpus must actually exercise several classes
        assert len(classes_seen) >= 3, classes_seen
        for t, n in expected.items():
            assert tables[t].num_rows == n, (t, tables[t].num_rows, n)
        # sanity: the gates actually bite (some features/metadata dropped)
        ungated = _engine_outputs(docs, None)
        assert sum(ungated[t].num_rows for t in FEATURE_TABLES) > \
            sum(tables[t].num_rows for t in FEATURE_TABLES)
        assert ungated["datatype_metadata_change"].num_rows > \
            tables["datatype_metadata_change"].num_rows


class TestClassGatesEngine:
    def test_extract_false_drops_class_docs(self):
        filters = {k: dict(v) for k, v in ASYM_FILTERS.items()}
        filters["scholarly_articles_filter"] = {
            "extract": False, "feature_extraction": True,
            "datatype_metadata_extraction": True}
        docs, _ = make_corpus(60, seed=4242)
        gated = _engine_outputs(docs, filters)
        ungated = _engine_outputs(docs, None)
        # sa entities vanish from every table
        schema_cols = gated["entity_stats"].column_names
        assert "is_scholarly_article" in schema_cols
        sa_rows = gated["entity_stats"].filter(
            pa.compute.field("is_scholarly_article"))
        assert sa_rows.num_rows == 0
        assert ungated["entity_stats"].filter(
            pa.compute.field("is_scholarly_article")).num_rows > 0
        assert gated["value_change"].num_rows < ungated["value_change"].num_rows

    def test_or_semantics_parse_time(self):
        # all classes off for features -> differ skips collection entirely
        filters = {
            "scholarly_articles_filter": {"extract": True,
                                          "feature_extraction": False,
                                          "datatype_metadata_extraction": False},
            "astronomical_objects_filter": {"extract": True,
                                            "feature_extraction": False,
                                            "datatype_metadata_extraction": False},
            "less_filter": {"extract": True, "feature_extraction": False,
                            "datatype_metadata_extraction": False},
            "rest": {"feature_extraction": False,
                     "datatype_metadata_extraction": False},
        }
        cfg = DiffConfig(class_filters=filters)
        assert cfg.extract_features is False
        assert cfg.extract_datatype_metadata is False
        # one class on (and extracted) flips the OR back on
        filters["less_filter"]["feature_extraction"] = True
        cfg2 = DiffConfig(class_filters=filters)
        assert cfg2.extract_features is True

    def test_threshold_passthrough_and_roundtrip(self):
        filters = {k: dict(v) for k, v in ASYM_FILTERS.items()}
        filters["less_filter"]["threshold"] = 3
        cfg = DiffConfig(class_filters=filters)
        assert cfg.less_changes_threshold == 3
        rt = DiffConfig.from_dict(cfg.to_dict())
        assert rt.less_changes_threshold == 3
        assert rt.write_gates(False, False, True) == cfg.write_gates(False, False, True)

    def test_ao_overrides_sa_routing(self):
        cfg = DiffConfig(class_filters=ASYM_FILTERS)
        # doc that is both sa and ao routes to _ao (reference sequential ifs)
        keep, feats, md = cfg.write_gates(True, True, False)
        assert (keep, feats, md) == (True, False, False)
        keep, feats, md = cfg.write_gates(True, False, False)
        assert (keep, feats, md) == (True, True, True)
