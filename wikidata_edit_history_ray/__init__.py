"""wikidata_edit_history_ray — a Ray-Data-native KG change-history construction engine.

A from-scratch engine (NOT a port) with the query/data-processing capabilities of
caroocortes/wikidata-edit-history ("WiDiff"): it reads tables of interleaved
text+media documents (``doc_id:string``, ``spans:list<struct<kind,text,media_ref,offset>>``),
diffs consecutive entity-revision snapshots carried by the text spans, and emits
claim-style (subj, pred, obj) change triples plus qualifier/reference/rank/metadata
change tables, revert tags, per-datatype ML features and per-entity stats — all as
``ray.data.Dataset`` pipelines of ``map_batches`` over Arrow batches.

Layout:
- ``core``      pure-Python change-extraction semantics (no Ray dependency)
- ``sources``   input readers, synthetic corpus + aux dimension-table generators
- ``stages``    Ray Data batch transforms (extract, enrich, dedup, text,
  similarity, packing) and shuffle helpers
- ``pipelines`` end-to-end pipelines (extraction, enrichment, graph replay,
  keyed dedup, analysis aggregates)
- ``state``     checkpoint manifests, transitive-closure cache
"""

__version__ = "0.1.0"
