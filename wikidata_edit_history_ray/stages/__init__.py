"""Ray Data batch transforms: change extraction and the multi-table sink,
enrichment, output schemas, the shuffle helpers of the keyed reducers, and
the corpus operators (dedup, text analysis, similarity search, clustering,
profiling, sampling, packing)."""
