"""Query contract of the KG change-history engine (Ray Data target).

`entry()` runs the flagship KG change-history extraction on sf0.001.
`queries()` exposes one callable per pipeline surface: the 22 `kg_*` queries
(the change-history tables, the errors table, graph replay, keyed dedup, the
analysis aggregates, enrichment, interleaved packing) and the remaining
corpus and analytics operators. `oracle_sql()` gives DuckDB SQL for every
queries() entry. Operator oracles read the pre-registered testdata views
(region nation customer supplier part orders lineitem events documents
embeddings). KG queries run over the deterministic synthetic
interleaved-document corpus (BASELINE.json input_hint shape); their oracles
read the construction-time ground-truth parquet the generator persists, and
text_analysis reads the independent spec-restatement expectations
(sources/text_expect.py).

Ray is initialised by the caller BEFORE this module is imported: nothing here
calls ray.init()/ray.shutdown().
"""

from __future__ import annotations

import os
from collections.abc import Callable
from typing import Any

_CACHE_DIR = "/tmp/widiff_cache"


# --------------------------------------------------------------------------
# deterministic synthetic corpus per sf tier (input_hint shape)
# --------------------------------------------------------------------------

def _corpus_docs_for(sf_dir: str) -> int:
    name = os.path.basename(os.path.normpath(sf_dir))
    try:
        scale = float(name.replace("sf", ""))
    except ValueError:
        scale = 0.001
    return max(100, int(200_000 * scale))


def _corpus_params(n: int) -> dict:
    """write_corpus_parquet keyword arguments for an n-doc corpus."""
    return {"num_docs": n, "seed": 42, "hot_doc_revisions": 1000,
            "hot_doc_every": max(10, n // 10)}


def _corpus_cache_name(n: int) -> str:
    """Cache directory name for an n-doc corpus, keyed by the generator
    parameters, the seed and a hash of the generator's source, so a generator
    change never silently reuses stale shards or expectation files."""
    import hashlib
    import json

    from wikidata_edit_history_ray.sources import corpus

    with open(corpus.__file__, "rb") as f:
        source = hashlib.sha1(f.read()).hexdigest()
    key = hashlib.sha1(
        f"{json.dumps(_corpus_params(n), sort_keys=True)}|{source}".encode()
    ).hexdigest()[:16]
    return f"docs_{n}_sharded_{key}"


def _corpus_path(sf_dir: str, n: int | None = None) -> str:
    """Generate (once) and cache the synthetic interleaved-doc corpus for a
    scale tier, together with its construction-time ground-truth expectation
    parquet (the DuckDB side of the driver's oracle comparison)."""
    import shutil

    from wikidata_edit_history_ray.sources.corpus import write_corpus_parquet

    if n is None:
        n = _corpus_docs_for(sf_dir)
    os.makedirs(_CACHE_DIR, exist_ok=True)
    path = os.path.join(_CACHE_DIR, _corpus_cache_name(n))
    expect = path + "_expect"
    if not (os.path.exists(path) and os.path.isdir(expect)):
        tmp, tmpe = path + ".tmp", expect + ".tmp"
        for p in (tmp, tmpe):
            if os.path.exists(p):
                shutil.rmtree(p, ignore_errors=True)
        params = _corpus_params(n)
        write_corpus_parquet(tmp, params.pop("num_docs"), expect_dir=tmpe,
                             **params)
        os.replace(tmpe, expect)
        os.replace(tmp, path)
    return path


def _expect_dir(sf_dir: str) -> str:
    """Path of the persisted expectation parquet for a scale tier (generating
    the corpus on demand)."""
    return _corpus_path(sf_dir) + "_expect"


def _text_expect_path(sf_dir: str) -> str:
    """Expectation parquet for text_analysis over `sf_dir`'s documents table
    (sources/text_expect.py — independent scalar restatement of the operator
    spec, the non-circular DuckDB side of the comparison). Keyed on the input
    file's identity + size so a regenerated testdata tier recomputes."""
    import hashlib

    from wikidata_edit_history_ray.sources.text_expect import \
        write_text_expectations

    docs = f"{sf_dir}/documents.parquet"
    key = hashlib.sha1(
        f"{docs}:{os.path.getsize(docs)}:v1".encode()).hexdigest()[:16]
    os.makedirs(_CACHE_DIR, exist_ok=True)
    path = os.path.join(_CACHE_DIR, f"text_expect_{key}.parquet")
    if not os.path.exists(path):
        write_text_expectations(docs, path)
    return path


def _corpus_glob(sf_dir: str) -> str:
    """DuckDB-readable path for the corpus: tiny tiers cache a single
    parquet file, bigger tiers a shard directory."""
    p = _corpus_path(sf_dir)
    return p if os.path.isfile(p) else f"{p}/*.parquet"


def _docs_ds(sf_dir: str):
    import ray

    from wikidata_edit_history_ray.sources.io import read_documents

    # at least ~64 blocks (and >=2 per core): enough waves that hot-doc
    # straggler blocks cannot stretch the tail; 64 tasks of dispatch overhead
    # is noise next to per-doc diff work
    nblocks = max(64, int(ray.cluster_resources().get("CPU", 8)) * 2)
    return read_documents(_corpus_path(sf_dir), override_num_blocks=nblocks)


_EXTRACTIONS: dict = {}


def _kg_table(sf_dir: str, table: str, config=None):
    """One table of the KG extraction of `sf_dir`'s corpus. `run_extraction`
    runs once per (corpus, config) per process, into a temp dir under
    _CACHE_DIR that is removed at exit."""
    import atexit
    import json
    import shutil
    import tempfile

    from wikidata_edit_history_ray.pipelines.kg import (read_table,
                                                        run_extraction)
    from wikidata_edit_history_ray.sources.corpus import AO_TYPES, SA_TYPES

    corpus = _corpus_path(sf_dir)
    key = (corpus, json.dumps(config.to_dict() if config else None,
                              sort_keys=True))
    if key not in _EXTRACTIONS:
        os.makedirs(_CACHE_DIR, exist_ok=True)
        out = tempfile.mkdtemp(prefix="kg_extract_", dir=_CACHE_DIR)
        atexit.register(shutil.rmtree, out, ignore_errors=True)
        run_extraction(corpus, out, config=config, sa_types=set(SA_TYPES),
                       ao_types=set(AO_TYPES))
        _EXTRACTIONS[key] = out
    return read_table(_EXTRACTIONS[key], table)


def entry() -> Any:
    """Flagship: KG change-history triples (value_change) on sf0.001."""
    return _kg_table("/root/testdata/sf0.001", "value_change")


# --------------------------------------------------------------------------
# SQL-checkable operator queries over the testdata views
# --------------------------------------------------------------------------

def _q_dedup_exact_docs(sf_dir: str):
    import ray.data

    from wikidata_edit_history_ray.stages.dedup_ops import exact_dedup

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet")
    return exact_dedup(ds, text_col="text", id_col="doc_id") \
        .select_columns(["doc_id", "lang", "source", "n_chars"])


def _q_doc_token_stats(sf_dir: str):
    import ray.data
    from ray.data.aggregate import Count, Mean, Sum

    from wikidata_edit_history_ray.stages.text_ops import token_counts

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "lang", "text", "n_chars"])
    t = ds.map_batches(token_counts, batch_format="pyarrow")
    out = t.groupby("lang").aggregate(
        Count(alias_name="num_docs"),
        Sum("ws_token_count", alias_name="total_tokens"),
        Mean("n_chars", alias_name="avg_chars"),
    )
    return _round_cols(out, ["avg_chars"])


def _q_doc_char_classes(sf_dir: str):
    """Per-source character-class profile (quality-scoring building blocks)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data
    from ray.data.aggregate import Count, Sum

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["source", "text"])

    def counts(batch: pa.Table) -> pa.Table:
        return pa.table({
            "source": batch.column("source"),
            "n_digits": pc.cast(pc.count_substring_regex(
                batch.column("text"), pattern="[0-9]"), pa.int64()),
            "n_spaces": pc.cast(pc.count_substring_regex(
                batch.column("text"), pattern=" "), pa.int64()),
            "n_chars": pc.cast(pc.utf8_length(batch.column("text")), pa.int64()),
        })

    return ds.map_batches(counts, batch_format="pyarrow").groupby("source").aggregate(
        Count(alias_name="num_docs"),
        Sum("n_digits", alias_name="total_digits"),
        Sum("n_spaces", alias_name="total_spaces"),
        Sum("n_chars", alias_name="total_chars"),
    )


def _q_events_type_stats(sf_dir: str):
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Count, Sum

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_type", "user_id", "value"])
    # distinct users: two-phase groupby; totals ride along via partial sums
    per_user = ds.groupby(["event_type", "user_id"]).aggregate(
        Count(alias_name="n"), Sum("value", alias_name="v"))
    out = per_user.groupby("event_type").aggregate(
        Count(alias_name="num_users"),
        Sum("n", alias_name="num_events"),
        Sum("v", alias_name="total_value"),
    )
    return _round_cols(out, ["total_value"])


def _q_events_monthly(sf_dir: str):
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Count, Sum

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["ts", "value"])

    def bucket(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ym = pc.strftime(batch.column("ts"), format="%Y-%m")
        return pa.table({"year_month": ym, "value": batch.column("value")})

    out = ds.map_batches(bucket, batch_format="pyarrow").groupby("year_month") \
        .aggregate(Count(alias_name="num_events"), Sum("value", alias_name="total_value"))
    return _round_cols(out, ["total_value"])


def _q_top_users_by_value(sf_dir: str):
    import ray.data
    from ray.data.aggregate import Sum

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["user_id", "value"])
    agg = ds.groupby("user_id").aggregate(Sum("value", alias_name="total_value"))
    agg = _round_cols(agg, ["total_value"])
    return agg.sort(["total_value", "user_id"], descending=[True, False]).limit(10)


def _q_lineitem_pricing_summary(sf_dir: str):
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Count, Mean, Sum

    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
                 "l_discount"])

    def revenue(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        rev = pc.multiply(batch.column("l_extendedprice"),
                          pc.subtract(pa.scalar(1.0), batch.column("l_discount")))
        return batch.append_column("revenue", rev)

    out = ds.map_batches(revenue, batch_format="pyarrow") \
        .groupby(["l_returnflag", "l_linestatus"]).aggregate(
            Sum("l_quantity", alias_name="sum_qty"),
            Sum("l_extendedprice", alias_name="sum_base_price"),
            Sum("revenue", alias_name="sum_revenue"),
            Mean("l_discount", alias_name="avg_discount"),
            Count(alias_name="count_order"))
    return _round_cols(out, ["sum_qty", "sum_base_price", "sum_revenue", "avg_discount"])


def _q_customer_nation_counts(sf_dir: str):
    """Broadcast join: tiny nation dim captured in the UDF, no shuffle join."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data
    from ray.data.aggregate import Count

    nation = pq.read_table(f"{sf_dir}/nation.parquet",
                           columns=["n_nationkey", "n_name"])
    lookup = dict(zip(nation.column("n_nationkey").to_pylist(),
                      nation.column("n_name").to_pylist()))
    ds = ray.data.read_parquet(f"{sf_dir}/customer.parquet",
                               columns=["c_custkey", "c_nationkey"])

    def enrich(batch: pa.Table) -> pa.Table:
        names = [lookup.get(k, "") for k in batch.column("c_nationkey").to_pylist()]
        return batch.append_column("n_name", pa.array(names, type=pa.string()))

    return ds.map_batches(enrich, batch_format="pyarrow").groupby("n_name") \
        .aggregate(Count(alias_name="num_customers"))


def _q_orders_priority_monthly(sf_dir: str):
    """Multi-key groupby with time bucketing over orders."""
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Count, Sum

    ds = ray.data.read_parquet(f"{sf_dir}/orders.parquet",
                               columns=["o_orderdate", "o_orderpriority",
                                        "o_totalprice"])

    def bucket(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ym = pc.strftime(batch.column("o_orderdate"), format="%Y-%m")
        return pa.table({"year_month": ym,
                         "o_orderpriority": batch.column("o_orderpriority"),
                         "o_totalprice": batch.column("o_totalprice")})

    out = ds.map_batches(bucket, batch_format="pyarrow") \
        .groupby(["year_month", "o_orderpriority"]).aggregate(
            Count(alias_name="num_orders"),
            Sum("o_totalprice", alias_name="total_price"))
    return _round_cols(out, ["total_price"])


def _q_supplier_part_stats(sf_dir: str):
    """Broadcast dimension join (part -> brand) + rollup over partsupp-less
    schema: supplier x part via lineitem."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data
    from ray.data.aggregate import Count, Sum

    part = pq.read_table(f"{sf_dir}/part.parquet", columns=["p_partkey", "p_brand"])
    brand = dict(zip(part.column("p_partkey").to_pylist(),
                     part.column("p_brand").to_pylist()))
    ds = ray.data.read_parquet(f"{sf_dir}/lineitem.parquet",
                               columns=["l_partkey", "l_quantity"])

    def enrich(batch: pa.Table) -> pa.Table:
        brands = [brand.get(k, "") for k in batch.column("l_partkey").to_pylist()]
        return pa.table({"p_brand": pa.array(brands, type=pa.string()),
                         "l_quantity": batch.column("l_quantity")})

    out = ds.map_batches(enrich, batch_format="pyarrow").groupby("p_brand") \
        .aggregate(Count(alias_name="num_lineitems"),
                   Sum("l_quantity", alias_name="total_qty"))
    return _round_cols(out, ["total_qty"])


def _q_events_filtered_distinct(sf_dir: str):
    """Filter pushdown + distinct: users that produced high-value events."""
    import ray.data

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["user_id", "event_type", "value"])
    high = ds.filter(expr="value > 50.0")
    return high.groupby(["user_id", "event_type"]).count() \
        .select_columns(["user_id", "event_type"])


def _q_docs_lang_source_matrix(sf_dir: str):
    """Two-key groupby over documents with min/max aggregates."""
    import ray.data
    from ray.data.aggregate import Count, Max, Min

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["lang", "source", "n_chars"])
    return ds.groupby(["lang", "source"]).aggregate(
        Count(alias_name="num_docs"),
        Min("n_chars", alias_name="min_chars"),
        Max("n_chars", alias_name="max_chars"))


def _q_knn_topk(sf_dir: str):
    import numpy as np
    import pyarrow.parquet as pq
    import ray.data

    from wikidata_edit_history_ray.stages.similarity import brute_force_topk

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    # query vectors: first row group only (never the whole file into the driver)
    first = pq.ParquetFile(f"{sf_dir}/embeddings.parquet") \
        .read_row_group(0, columns=["embedding"]).slice(0, 3)
    q = np.array(first.column("embedding").to_pylist(), dtype=np.float32)
    out = brute_force_topk(ds, q, k=10)
    return out.select_columns(["query_idx", "vec_id"])


def _round_cols(ds, cols, digits: int = 3):
    """Round float aggregate columns so Ray's and DuckDB's summation orders
    hash identically."""
    import pyarrow as pa
    import pyarrow.compute as pc

    def do(batch: pa.Table) -> pa.Table:
        for c in cols:
            i = batch.schema.get_field_index(c)
            batch = batch.set_column(i, c, pc.round(
                pc.cast(batch.column(c), pa.float64()), ndigits=digits))
        return batch

    return ds.map_batches(do, batch_format="pyarrow")


# --------------------------------------------------------------------------
# rows-only operator queries (not SQL-expressible)
# --------------------------------------------------------------------------

def _derived_dedup_docs(sf_dir: str, clone_mode: str):
    """Deterministic near-dup corpus derived from the documents table, with a
    SQL-decidable survivor set: every doc gets a unique token stream; ids
    ending in 0 get a clone (near: last token perturbed, Jaccard ~0.88;
    exact: verbatim copy) that must be dropped; ids ending in 5 get a far
    clone (disjoint tokens) that must survive."""
    import ray.data

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id"])

    def expand(batch):
        import pyarrow as pa

        out_id, out_text = [], []
        for d in batch.column("doc_id").to_pylist():
            toks = [f"w{d}x{i}" for i in range(48)]
            out_id.append(d)
            out_text.append(" ".join(toks))
            if d % 10 == 0:
                out_id.append(d + 10_000_000)
                out_text.append(" ".join(toks[:-1] + ["zz"])
                                if clone_mode == "near" else " ".join(toks))
            if d % 10 == 5:
                out_id.append(d + 20_000_000)
                out_text.append(" ".join(f"f{d}x{i}" for i in range(48)))
        return pa.table({"doc_id": pa.array(out_id, type=pa.int64()),
                         "text": pa.array(out_text, type=pa.string())})

    return ds.map_batches(expand, batch_format="pyarrow")


def _q_minhash_dedup(sf_dir: str):
    from wikidata_edit_history_ray.stages.dedup_ops import minhash_lsh_dedup

    ds = _derived_dedup_docs(sf_dir, "near")
    return minhash_lsh_dedup(ds).select_columns(["doc_id"])


def _q_simhash_dedup(sf_dir: str):
    from wikidata_edit_history_ray.stages.dedup_ops import simhash_dedup

    ds = _derived_dedup_docs(sf_dir, "exact")
    return simhash_dedup(ds).select_columns(["doc_id"])


def _q_ngram_jaccard_pairs(sf_dir: str):
    """Standalone exact n-gram Jaccard operator: score each (base, clone)
    pair of the derived corpus. The construction fixes the exact scores
    analytically (48 unique tokens, k=3 -> 46 shingles; only the final window
    contains the last token, so a last-token edit replaces exactly 1 shingle
    -> J = 45/47; far clones share none -> 0)."""
    import pyarrow as pa
    import ray.data

    from wikidata_edit_history_ray.stages.dedup_ops import ngram_jaccard

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id"])

    def score(batch: pa.Table) -> pa.Table:
        ids_out, j_out = [], []
        for d in batch.column("doc_id").to_pylist():
            toks = [f"w{d}x{i}" for i in range(48)]
            base = " ".join(toks)
            if d % 10 == 0:
                ids_out.append(d + 10_000_000)
                j_out.append(round(ngram_jaccard(
                    base, " ".join(toks[:-1] + ["zz"]), n=3), 3))
            if d % 10 == 5:
                ids_out.append(d + 20_000_000)
                j_out.append(round(ngram_jaccard(
                    base, " ".join(f"f{d}x{i}" for i in range(48)), n=3), 3))
        return pa.table({"pair_id": pa.array(ids_out, type=pa.int64()),
                         "jaccard": pa.array(j_out, type=pa.float64())})

    return ds.map_batches(score, batch_format="pyarrow")


def _q_embedding_dedup(sf_dir: str):
    import ray.data

    from wikidata_edit_history_ray.stages.dedup_ops import embedding_dedup

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding"])

    def clone(batch):
        import pyarrow as pa

        ids = batch.column("vec_id").to_pylist()
        vecs = batch.column("embedding").to_pylist()
        out_id, out_vec = list(ids), list(vecs)
        for i, v in zip(ids, vecs):
            if i % 10 == 0:  # exact duplicate vector, higher id -> dropped
                out_id.append(i + 10_000_000)
                out_vec.append(v)
        return pa.table({"vec_id": pa.array(out_id, type=pa.int64()),
                         "embedding": pa.array(
                             out_vec, type=batch.column("embedding").type)})

    derived = ds.map_batches(clone, batch_format="pyarrow")
    return embedding_dedup(derived, cosine_threshold=0.999) \
        .select_columns(["vec_id"])


def _q_text_analysis(sf_dir: str):
    import ray.data

    from wikidata_edit_history_ray.stages.text_ops import analyze_text

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    out = analyze_text(ds).select_columns(
        ["doc_id", "detected_lang", "ws_token_count", "bpe_token_count",
         "quality_score", "fingerprint"])
    # same rounding kernel the expectation parquet stores (text_expect.py)
    return _round_cols(out, ["quality_score"])


def _q_pack_sequences(sf_dir: str):
    """Sequence packing: assign every document to a 512-token training pack
    by its position in the doc_id-ordered token stream (distributed prefix
    sum — range partition + per-range offset broadcast)."""
    import ray.data

    from wikidata_edit_history_ray.stages.packing import pack_sequences
    from wikidata_edit_history_ray.stages.text_ops import token_counts

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    toks = ds.map_batches(token_counts, batch_format="pyarrow") \
        .select_columns(["doc_id", "ws_token_count"])
    return pack_sequences(toks, token_col="ws_token_count", max_tokens=512)


def _q_ivf_topk(sf_dir: str):
    """Full-probe IVF (nprobe == n_centroids) must equal the exact result —
    that is the oracle configuration; partial-probe recall is pytest-covered
    (tests/test_ops.py)."""
    import numpy as np
    import pyarrow.parquet as pq
    import ray.data

    from wikidata_edit_history_ray.stages.similarity import ivf_topk

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    # query vectors: first row group only (never the whole file into the driver)
    first = pq.ParquetFile(f"{sf_dir}/embeddings.parquet") \
        .read_row_group(0, columns=["embedding"]).slice(0, 3)
    q = np.array(first.column("embedding").to_pylist(), dtype=np.float32)
    return ivf_topk(ds, q, k=10, n_centroids=8, nprobe=8) \
        .select_columns(["query_idx", "vec_id"])


# per-table projections for the driver comparison: exactly the columns the
# generator records ground truth for (tests/test_expectations_oracle.py proves
# engine == expectation on these multisets)
_KG_PROJECTIONS = {
    "value_change": ["revision_id", "property_id", "value_id", "change_target",
                     "action", "entity_id"],
    "revision": ["prev_revision_id", "revision_id", "entity_id", "timestamp",
                 "user_id", "username", "user_type", "comment", "doc_id",
                 "entity_label"],
    "qualifier_change": ["revision_id", "property_id", "value_id",
                         "qual_property_id", "action", "entity_id"],
    "reference_change": ["revision_id", "property_id", "value_id",
                         "ref_property_id", "action", "entity_id"],
    "datatype_metadata_change": ["revision_id", "property_id", "value_id",
                                 "change_target", "action", "entity_id"],
    "entity_stats": [
        "entity_id", "entity_label", "entity_types_31", "num_revisions",
        "num_value_changes", "num_value_change_creates",
        "num_value_change_deletes", "num_value_change_updates",
        "num_rank_changes", "num_rank_creates", "num_rank_deletes",
        "num_rank_updates", "num_qualifier_changes", "num_reference_changes",
        "num_datatype_metadata_changes", "num_datatype_metadata_creates",
        "num_datatype_metadata_deletes", "num_datatype_metadata_updates",
        "first_revision_timestamp", "last_revision_timestamp",
        "num_bot_edits", "num_anonymous_edits", "num_human_edits",
        "is_scholarly_article", "is_astronomical_object",
        "has_less_revisions"],
    "doc_spans": ["doc_id", "entity_id", "span_index", "kind", "offset",
                  "media_ref", "text_sha1"],
    "features_text": ["revision_id", "property_id", "value_id"],
    "features_time": ["revision_id", "property_id", "value_id"],
    "features_quantity": ["revision_id", "property_id", "value_id"],
    "features_globecoordinate": ["revision_id", "property_id", "value_id"],
    "features_entity": ["revision_id", "property_id", "value_id"],
}


def _q_kg(table: str):
    def f(sf_dir: str):
        ds = _kg_table(sf_dir, table)
        proj = _KG_PROJECTIONS.get(table)
        return ds.select_columns(proj) if proj else ds

    return f


def _q_kg_errors(sf_dir: str):
    """Wide-row guard surface: docs whose span count exceeds the per-doc
    budget are routed to the errors table (the hot docs in this corpus)."""
    from wikidata_edit_history_ray.core.differ import DiffConfig

    return _kg_table(sf_dir, "errors", DiffConfig(max_spans_per_doc=500)) \
        .select_columns(["doc_id"])


def _q_kg_property_stats(sf_dir: str):
    from wikidata_edit_history_ray.pipelines.analysis import property_stats

    return property_stats(_kg_table(sf_dir, "value_change"))


def _q_kg_corpus_stats(sf_dir: str):
    import pandas as pd

    from wikidata_edit_history_ray.pipelines.analysis import corpus_stats

    stats = corpus_stats(_kg_table(sf_dir, "entity_stats"))
    # revert counters are a separate engine pass the generator's ground truth
    # does not model; everything else is oracle-checked
    keep = [k for k in stats
            if "reverted" not in k and k != "total_reversions"]
    row = {k: (round(stats[k], 3) if isinstance(stats[k], float) else stats[k])
           for k in keep}
    return pd.DataFrame([row])


def _q_kg_revision_distribution(sf_dir: str):
    """Revisions-per-entity histogram EXCLUDING the corpus's pathological hot
    entities (the sandbox-exclusion analog,
    analysis/scripts/general_analysis.py:148, 298). The hot-doc placement is a
    deterministic function of the corpus parameters, so the exclusion set is
    SQL-reproducible."""
    from wikidata_edit_history_ray.pipelines.analysis import revision_distribution

    n = _corpus_docs_for(sf_dir)
    every = max(10, n // 10)
    hot_ids = [10 + i for i in range(0, n) if i > 0 and i % every == 0]
    return revision_distribution(_kg_table(sf_dir, "entity_stats"),
                                 exclude_entity_ids=hot_ids)


def _q_kg_entity_type_stats(sf_dir: str):
    from wikidata_edit_history_ray.pipelines.analysis import entity_type_stats

    return entity_type_stats(_kg_table(sf_dir, "entity_stats"))


def _q_kg_graph_triples(sf_dir: str):
    """Materialized current-state KG: replay the change history into
    (subj, pred, obj) triples."""
    from wikidata_edit_history_ray.pipelines.kg import materialize_graph

    return materialize_graph(_kg_table(sf_dir, "value_change")) \
        .select_columns(["subj", "pred", "value_id"])


_ASOF_CUTOFF = "2020-01-01T12:35:00Z"  # = _ts(5): 5 revision slots into history


def _q_kg_graph_asof(sf_dir: str):
    """Temporal as-of snapshot: the KG state after replaying only changes up
    to a timestamp cutoff — materialize_graph over the time-filtered change
    stream. The generator's timestamps are a pure function of the per-entity
    revision index, so the oracle reproduces the cutoff as a window over the
    expectation table."""
    from wikidata_edit_history_ray.pipelines.kg import materialize_graph

    vc = _kg_table(sf_dir, "value_change")
    upto = vc.filter(expr=f"timestamp <= '{_ASOF_CUTOFF}'")
    return materialize_graph(upto).select_columns(["subj", "pred", "value_id"])


def _q_kg_canonical_triples(sf_dir: str):
    """Keyed canonicalization/dedup over the change table
    (idempotent on clean input; the ON CONFLICT analog across partitions)."""
    from wikidata_edit_history_ray.pipelines.kg import dedup_changes

    vc = _kg_table(sf_dir, "value_change")
    return dedup_changes(
        vc, ["revision_id", "property_id", "value_id", "change_target"],
    ).select_columns(_KG_PROJECTIONS["value_change"])


def _q_kg_features_entity_enriched(sf_dir: str):
    from wikidata_edit_history_ray.stages.enrich import enrich_entity_features

    fe = _kg_table(sf_dir, "features_entity")
    return enrich_entity_features(fe, entity_labels={}, concurrency=2) \
        .select_columns(["revision_id", "property_id", "value_id",
                         "is_link_change"])


def _q_dup_clusters(sf_dir: str):
    """Duplicate-cluster canonicalization: distributed connected components
    (iterative min-label propagation, stages/cluster.py) over a deterministic
    doc-similarity edge set — chains (d, d-1) for d%10 in 1..3 and star
    spokes (d, century_base) for d%100==7 (diameter-3 components, so the min
    label must flow multiple hops). Oracle: recursive CTE reachability."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from wikidata_edit_history_ray.stages.cluster import connected_components

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id"])

    def derive_edges(batch: pa.Table) -> pa.Table:
        d = batch.column("doc_id").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        m1 = (d % 10 >= 1) & (d % 10 <= 3)
        m2 = d % 100 == 7
        src = np.concatenate([d[m1], d[m2]])
        dst = np.concatenate([d[m1] - 1, (d[m2] // 100) * 100])
        return pa.table({"src": pa.array(src, type=pa.int64()),
                         "dst": pa.array(dst, type=pa.int64())})

    edges = docs.map_batches(derive_edges, batch_format="pyarrow")
    return connected_components(docs, edges, node_col="doc_id")


def _q_minhash_cluster(sf_dir: str):
    """Near-dup CLUSTERING (not just removal): minhash-LSH verified edges ->
    connected components -> every doc labeled with its duplicate-cluster
    representative (min doc_id). The derived corpus fixes the clusters
    analytically: {d, d+10M} for d%10==0, singletons otherwise."""
    import pyarrow as pa
    import ray.data

    from wikidata_edit_history_ray.stages.cluster import connected_components
    from wikidata_edit_history_ray.stages.dedup_ops import \
        minhash_lsh_verified_edges

    ds = _derived_dedup_docs(sf_dir, "near")
    edges = minhash_lsh_verified_edges(ds)
    nodes = ds.select_columns(["doc_id"])
    edges = edges.map_batches(
        lambda b: pa.table({"src": b.column("cand_a"),
                            "dst": b.column("cand_b")}),
        batch_format="pyarrow")
    return connected_components(nodes, edges, node_col="doc_id")


def _q_vocab_topk(sf_dir: str):
    """Global token vocabulary: top-100 lowercased [a-z0-9]+ tokens by
    (count desc, token asc) — per-batch partial counts, vocabulary-sized
    groupby-sum, sort on the aggregate only."""
    import ray.data

    from wikidata_edit_history_ray.stages.text_ops import vocab_topk

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["text"])
    return vocab_topk(ds, k=100)


def _q_decontaminate(sf_dir: str):
    """Benchmark decontamination: flag docs sharing any word 3-gram with the
    'benchmark' slice (doc_id % 29 == 1) — broadcast benchmark gram set,
    streaming membership probe."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from wikidata_edit_history_ray.stages.text_ops import decontaminate_flags

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def bench_slice(batch: pa.Table) -> pa.Table:
        keep = pc.equal(pc.subtract(
            batch.column("doc_id"),
            pc.multiply(pc.divide(batch.column("doc_id"), 29), 29)), 1)
        return batch.filter(keep)

    bench = ds.map_batches(bench_slice, batch_format="pyarrow")
    return decontaminate_flags(ds, bench)


def _q_pii_redact(sf_dir: str):
    """PII redaction inside Arrow RE2 kernels: emails then long digit runs,
    with per-doc match counts. Every third doc gets a deterministic
    synthetic email+number appended so the kernels have real work."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from wikidata_edit_history_ray.stages.text_ops import redact_pii

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def inject(batch: pa.Table) -> pa.Table:
        import numpy as np

        ids = batch.column("doc_id")
        iv = ids.to_numpy(zero_copy_only=False).astype(np.int64)
        tail = pc.binary_join_element_wise(
            " contact u", pc.cast(ids, pa.string()), "@example.com id ",
            pc.cast(pa.array(iv * 7919 + 1_000_000_000), pa.string()),
            " end", "")
        mask = pa.array(iv % 3 == 0)
        # fill_null BEFORE the append — binary_join on a null text would
        # drop the injected tail while the oracle's coalesce keeps it
        base = pc.fill_null(batch.column("text"), "")
        text2 = pc.if_else(mask,
                           pc.binary_join_element_wise(base, tail, ""),
                           base)
        return pa.table({"doc_id": ids, "text": text2})

    out = ds.map_batches(inject, batch_format="pyarrow") \
        .map_batches(redact_pii, batch_format="pyarrow")
    return out.select_columns(["doc_id", "clean_text", "n_emails",
                               "n_numbers"])


def _q_tfidf_top_terms(sf_dir: str):
    """Per-doc TF-IDF top-3 terms: corpus DF pass -> broadcast (token, df)
    dict -> one streaming scored pass (stages/text_ops.tfidf_top_terms)."""
    import ray.data

    from wikidata_edit_history_ray.stages.text_ops import tfidf_top_terms

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    return tfidf_top_terms(ds, k=3)


def _q_doc_repetition(sf_dir: str):
    """Gopher-style repetition signal: word-bigram total/distinct counts and
    duplicate fraction per doc — pure per-doc batch kernel."""
    import ray.data

    from wikidata_edit_history_ray.stages.text_ops import repetition_stats

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    return ds.map_batches(repetition_stats, batch_format="pyarrow")


def _q_kg_interleaved_pack(sf_dir: str):
    """Multimodal sequence assembly over the interleaved corpus: explode
    text/media spans (media = 64 patch tokens), pack the global (doc, span)
    stream into 2048-token training sequences via the distributed prefix
    sum (stages/packing.interleaved_span_pack). Oracle: SQL window over the
    corpus parquet itself — non-circular."""
    from wikidata_edit_history_ray.stages.packing import interleaved_span_pack

    return interleaved_span_pack(_docs_ds(sf_dir), max_tokens=2048,
                                 media_token_cost=64)


def _q_unigram_logprob(sf_dir: str):
    """KenLM-style quality signal: per-doc mean ln-likelihood under the
    corpus's own unigram model (stages/text_ops.unigram_logprob) — count
    pass + broadcast vocabulary + one streaming scored pass. Rounded to 6
    (the oracle's AVG sums in a different order)."""
    import ray.data

    from wikidata_edit_history_ray.stages.text_ops import unigram_logprob

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    return _round_cols(unigram_logprob(ds), ["unigram_logprob"], digits=6)


def _q_kmeans_assign(sf_dir: str):
    """SemDeDup-style clustering primitive: one Lloyd assignment step over
    the embeddings table, centroids = the 8 lowest-vec_id vectors
    (deterministic, SQL-restatable); broadcast centroid matrix, vectorized
    per-batch argmin, zero shuffle (stages/similarity.kmeans_assign)."""
    import ray.data

    from wikidata_edit_history_ray.stages.similarity import kmeans_assign

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    out = kmeans_assign(ds, k=8)
    return _round_cols(out, ["dist"], digits=6)


def _q_chunk_dedup(sf_dir: str):
    """Cross-corpus duplicate-span removal (paragraph-dedup analog, CCNet /
    Lee et al. 2021): 3-word blocks occurring in >= 2 distinct docs are
    removed from every doc (stages/text_ops.chunk_dedup) — heavy-hitter
    count over 128-bit chunk hashes, then one streaming rewrite."""
    import ray.data

    from wikidata_edit_history_ray.stages.text_ops import chunk_dedup

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    return chunk_dedup(ds, chunk_words=3, min_docs=2)


def _q_semdedup(sf_dir: str):
    """SemDeDup (Abbas et al. 2023): k-means-bounded semantic dedup — a
    vector is duplicate iff a lower-id same-cluster vector has cosine
    above 0.3 (stages/similarity.semdedup). Assignment streams against the
    broadcast centroid matrix; one cluster groupby bounds the quadratic
    scan. Decision on round(cos, 6) both sides."""
    import ray.data

    from wikidata_edit_history_ray.stages.similarity import semdedup

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    return semdedup(ds, k=8, threshold=0.3)


def _q_dsir_logratio(sf_dir: str):
    """DSIR (Xie et al. 2023) importance score vs a German-language target
    slice: per-doc avg [ln p_target - ln p_corpus] under bag-of-words LMs
    (stages/text_ops.dsir_logratio) — two vocabulary-sized count passes
    broadcast, one streaming scored pass. Rounded to 6 (oracle AVG sums in
    a different order)."""
    import ray.data

    from wikidata_edit_history_ray.stages.text_ops import dsir_logratio

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    tgt = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                columns=["doc_id", "text", "lang"]) \
        .filter(expr="lang == 'de'").drop_columns(["lang"])
    return _round_cols(dsir_logratio(ds, tgt), ["dsir_logratio"], digits=6)


def _q_corpus_diff(sf_dir: str):
    """Incremental snapshot diff (stages/dedup_ops.corpus_diff): two
    deterministic corpus versions derived from the documents table
    (old drops doc_id%10==0, new drops doc_id%7==0 and edits doc_id%5==0)
    -> (doc_id, status) over the id union via slim sha1 sketches
    co-partitioned on an id-hash bucket."""
    import pyarrow as _pa
    import pyarrow.compute as _pc
    import ray.data

    from wikidata_edit_history_ray.stages.dedup_ops import corpus_diff

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"])

    def mod_ne(col, m):
        return lambda b: b.filter(_pc.not_equal(
            _pc.subtract(b.column(col), _pc.multiply(
                _pc.divide(b.column(col), m), m)), 0))

    old = docs.map_batches(mod_ne("doc_id", 10), batch_format="pyarrow")

    def edit_new(b):
        b = mod_ne("doc_id", 7)(b)
        ids = b.column("doc_id")
        is_edit = _pc.equal(_pc.subtract(ids, _pc.multiply(
            _pc.divide(ids, 5), 5)), 0)
        edited = _pc.binary_join_element_wise(
            _pc.fill_null(b.column("text"), ""), " updated", "")
        return b.set_column(b.schema.get_field_index("text"), "text",
                            _pc.if_else(is_edit, edited, b.column("text")))

    new = docs.map_batches(edit_new, batch_format="pyarrow")
    return corpus_diff(old, new)


def _q_apply_corpus_delta(sf_dir: str):
    """Incremental upsert/delete merge (stages/dedup_ops.apply_corpus_delta):
    a deterministic delta derived from the documents table (doc_id%7==0
    deleted; %5==0 upserted with edited text; %11==0 inserted under
    doc_id+1000000) applied to the full snapshot — one id-hash bucket
    co-partition. Output slimmed to (doc_id, lang) + text length."""
    import pyarrow as _pa
    import pyarrow.compute as _pc
    import ray.data

    from wikidata_edit_history_ray.stages.dedup_ops import apply_corpus_delta

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"])

    def make_delta(b):
        ids = b.column("doc_id")
        mod = lambda m: _pc.subtract(ids, _pc.multiply(_pc.divide(ids, m), m))
        is_del = _pc.equal(mod(7), 0)
        is_up = _pc.and_(_pc.equal(mod(5), 0), _pc.invert(is_del))
        is_ins = _pc.equal(mod(11), 0)
        txt = _pc.fill_null(b.column("text"), "")
        out_ids, out_txt, out_op = [], [], []
        for i in range(b.num_rows):
            d = ids[i].as_py()
            if is_del[i].as_py():
                out_ids.append(d)
                out_txt.append(None)
                out_op.append("delete")
            elif is_up[i].as_py():
                out_ids.append(d)
                out_txt.append(txt[i].as_py() + " v2")
                out_op.append("upsert")
            if is_ins[i].as_py():
                out_ids.append(d + 1000000)
                out_txt.append("inserted " + txt[i].as_py())
                out_op.append("upsert")
        return _pa.table({
            "doc_id": _pa.array(out_ids, type=_pa.int64()),
            "text": _pa.array(out_txt, type=_pa.string()),
            "delta_op": _pa.array(out_op, type=_pa.string())})

    delta = docs.map_batches(make_delta, batch_format="pyarrow")
    merged = apply_corpus_delta(docs, delta)

    def slim(b):
        return _pa.table({
            "doc_id": b.column("doc_id"),
            "text_len": _pc.cast(_pc.utf8_length(
                _pc.fill_null(b.column("text"), "")), _pa.int64())})

    return merged.map_batches(slim, batch_format="pyarrow")


def _q_blocklist_flags(sf_dir: str):
    """C4-style blocklist signal: token-level badword flag against a fixed
    term list (stages/text_ops.blocklist_flags) — blocklist rides the task
    spec, one streaming pass, zero shuffle."""
    import ray.data

    from wikidata_edit_history_ray.stages.text_ops import blocklist_flags

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    return blocklist_flags(ds, ["spark"])


def _q_pack_texts(sf_dir: str):
    """Shard materialization: pack assignment (distributed prefix sum) +
    per-pack text concatenation in id order (stages/packing.
    materialize_packs) -> (pack_id, pack_text, n_docs, total_tokens).
    The slim assignment broadcasts; text rides only the assembling
    groupby."""
    import pyarrow as _pa
    import pyarrow.compute as _pc
    import ray.data

    from wikidata_edit_history_ray.stages.packing import (materialize_packs,
                                                          pack_sequences)

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"])

    def tok(b):
        return _pa.table({
            "doc_id": b.column("doc_id"),
            "ws": _pc.cast(_pc.count_substring_regex(
                _pc.fill_null(b.column("text"), ""), pattern=r"\S+"),
                _pa.int64())})

    packed = pack_sequences(docs.map_batches(tok, batch_format="pyarrow"),
                            token_col="ws", max_tokens=2048,
                            order_col="doc_id")
    return materialize_packs(docs, packed, token_col="ws")


def queries() -> dict[str, Callable[[str], Any]]:
    """One entry per pipeline surface or operator (58: 22 `kg_*` and 36
    corpus/analytics operators). Every key has a matching oracle_sql() entry,
    and the contract test in tests/ compares every pair at sf0.001."""
    return {
        # --- KG change-history pipeline (synthetic interleaved-doc corpus) ---
        "kg_value_change": _q_kg("value_change"),
        "kg_revision": _q_kg("revision"),
        "kg_qualifier_change": _q_kg("qualifier_change"),
        "kg_reference_change": _q_kg("reference_change"),
        "kg_datatype_metadata_change": _q_kg("datatype_metadata_change"),
        "kg_entity_stats": _q_kg("entity_stats"),
        "kg_doc_spans": _q_kg("doc_spans"),
        "kg_features_text": _q_kg("features_text"),
        "kg_features_time": _q_kg("features_time"),
        "kg_features_quantity": _q_kg("features_quantity"),
        "kg_features_globecoordinate": _q_kg("features_globecoordinate"),
        "kg_features_entity": _q_kg("features_entity"),
        "kg_errors": _q_kg_errors,
        "kg_graph_triples": _q_kg_graph_triples,
        "kg_graph_asof": _q_kg_graph_asof,
        "kg_canonical_triples": _q_kg_canonical_triples,
        "kg_property_stats": _q_kg_property_stats,
        "kg_revision_distribution": _q_kg_revision_distribution,
        "kg_corpus_stats": _q_kg_corpus_stats,
        "kg_entity_type_stats": _q_kg_entity_type_stats,
        "kg_features_entity_enriched": _q_kg_features_entity_enriched,
        # --- SQL-checked operators over the testdata views ---
        "dedup_exact_docs": _q_dedup_exact_docs,
        "doc_token_stats": _q_doc_token_stats,
        "doc_char_classes": _q_doc_char_classes,
        "events_type_stats": _q_events_type_stats,
        "events_monthly": _q_events_monthly,
        "top_users_by_value": _q_top_users_by_value,
        "lineitem_pricing_summary": _q_lineitem_pricing_summary,
        "customer_nation_counts": _q_customer_nation_counts,
        "orders_priority_monthly": _q_orders_priority_monthly,
        "supplier_part_stats": _q_supplier_part_stats,
        "events_filtered_distinct": _q_events_filtered_distinct,
        "docs_lang_source_matrix": _q_docs_lang_source_matrix,
        "knn_topk": _q_knn_topk,
        # --- rows-only operators ---
        "minhash_dedup_docs": _q_minhash_dedup,
        "simhash_dedup_docs": _q_simhash_dedup,
        "ngram_jaccard_pairs": _q_ngram_jaccard_pairs,
        "embedding_dedup": _q_embedding_dedup,
        "text_analysis": _q_text_analysis,
        "pack_sequences": _q_pack_sequences,
        "ivf_topk": _q_ivf_topk,
        # --- canonicalization / text operators (round 3) ---
        "dup_clusters": _q_dup_clusters,
        "minhash_cluster_docs": _q_minhash_cluster,
        "vocab_topk": _q_vocab_topk,
        "decontaminate": _q_decontaminate,
        "pii_redact": _q_pii_redact,
        "tfidf_top_terms": _q_tfidf_top_terms,
        "doc_repetition": _q_doc_repetition,
        "kg_interleaved_pack": _q_kg_interleaved_pack,
        # --- round-4 additions ---
        "unigram_logprob": _q_unigram_logprob,
        "kmeans_assign": _q_kmeans_assign,
        "chunk_dedup": _q_chunk_dedup,
        "semdedup": _q_semdedup,
        "dsir_logratio": _q_dsir_logratio,
        "corpus_diff": _q_corpus_diff,
        "apply_corpus_delta": _q_apply_corpus_delta,
        "blocklist_flags": _q_blocklist_flags,
        "pack_texts": _q_pack_texts,
    }


def _kg_oracles(sf_dir: str = "/root/testdata/sf0.01") -> dict[str, str]:
    """DuckDB oracle SQL for the KG pipeline: reads the construction-time
    ground-truth parquet persisted next to the corpus of `sf_dir` (default:
    sf0.01, the scale the driver runs correctness at). Non-circular: the
    expectations are recorded by the generator per edit operation, never
    derived from engine output (tests/test_expectations_oracle.py proves the
    correspondence)."""
    d = _expect_dir(sf_dir)

    def rp(name: str) -> str:
        return f"read_parquet('{d}/{name}.parquet')"

    feat = (lambda t: f"""
        SELECT revision_id, property_id, value_id
        FROM {rp('features')} WHERE "table" = '{t}'
    """)
    value_change_sql = f"""
        SELECT revision_id, property_id, value_id, change_target, action,
               entity_id
        FROM {rp('value_change')}
    """
    return {
        "kg_value_change": value_change_sql,
        "kg_canonical_triples": value_change_sql,
        "kg_revision": f"""
            SELECT prev_revision_id, revision_id, entity_id, timestamp,
                   user_id, username, user_type, comment, doc_id, entity_label
            FROM {rp('revision')}
        """,
        "kg_qualifier_change": f"""
            SELECT revision_id, property_id, value_id, qual_property_id,
                   action, entity_id
            FROM {rp('qualifier_change')}
        """,
        "kg_reference_change": f"""
            SELECT revision_id, property_id, value_id, ref_property_id,
                   action, entity_id
            FROM {rp('reference_change')}
        """,
        "kg_datatype_metadata_change": f"""
            SELECT revision_id, property_id, value_id, change_target, action,
                   entity_id
            FROM {rp('datatype_metadata_change')}
        """,
        "kg_entity_stats": f"SELECT * FROM {rp('entity_stats')}",
        "kg_doc_spans": f"SELECT * FROM {rp('doc_spans')}",
        "kg_features_text": feat("features_text"),
        "kg_features_time": feat("features_time"),
        "kg_features_quantity": feat("features_quantity"),
        "kg_features_globecoordinate": feat("features_globecoordinate"),
        "kg_features_entity": feat("features_entity"),
        "kg_features_entity_enriched": f"""
            SELECT revision_id, property_id, value_id,
                   CAST(1 AS BIGINT) AS is_link_change
            FROM {rp('features')} WHERE "table" = 'features_entity'
        """,
        "kg_graph_triples": f"SELECT subj, pred, value_id FROM {rp('graph_triples')}",
        # as-of replay: generator timestamps are _ts(i) with i = revision_id -
        # entity_id*1000, so ts <= _ts(5) <=> that index <= 5; last action per
        # statement within the window, DELETEs filtered
        "kg_graph_asof": f"""
            SELECT entity_id AS subj, property_id AS pred, value_id
            FROM (
              SELECT entity_id, property_id, value_id, action,
                     ROW_NUMBER() OVER (
                       PARTITION BY entity_id, property_id, value_id
                       ORDER BY revision_id DESC) AS rn
              FROM {rp('value_change')}
              WHERE change_target = ''
                AND revision_id - entity_id * 1000 <= 5
            ) WHERE rn = 1 AND action <> 'DELETE'
        """,
        "kg_errors": f"""
            SELECT doc_id FROM {rp('doc_spans')}
            GROUP BY doc_id HAVING COUNT(*) > 500
        """,
        "kg_property_stats": f"""
            SELECT property_id,
                   COUNT(DISTINCT entity_id)::BIGINT AS num_entities,
                   COUNT(*)::BIGINT AS num_changes,
                   SUM(CASE WHEN action = 'CREATE' THEN 1 ELSE 0 END)::BIGINT AS num_creates,
                   SUM(CASE WHEN action = 'DELETE' THEN 1 ELSE 0 END)::BIGINT AS num_deletes,
                   SUM(CASE WHEN action = 'UPDATE' THEN 1 ELSE 0 END)::BIGINT AS num_updates
            FROM {rp('value_change')} GROUP BY property_id
        """,
        "kg_revision_distribution": f"""
            SELECT num_revisions, COUNT(*)::BIGINT AS num_entities
            FROM {rp('entity_stats')}
            WHERE NOT (entity_id > 10
                       AND (entity_id - 10) % {max(10, _corpus_docs_for(sf_dir) // 10)} = 0)
            GROUP BY num_revisions
        """,
        "kg_entity_type_stats": f"""
            SELECT t AS individual_type, '' AS type_label,
                   COUNT(*)::BIGINT AS num_entities,
                   SUM(num_value_changes)::BIGINT AS num_value_changes
            FROM (
              SELECT unnest(string_split(entity_types_31, ', ')) AS t,
                     num_value_changes
              FROM {rp('entity_stats')} WHERE entity_types_31 <> ''
            ) WHERE t <> '' GROUP BY t
        """,
        "kg_corpus_stats": f"""
            SELECT COUNT(*)::BIGINT AS num_entities,
                   SUM(num_revisions)::BIGINT AS total_revisions,
                   SUM(num_value_changes)::BIGINT AS total_value_changes,
                   SUM(num_value_change_creates)::BIGINT AS total_value_change_creates,
                   SUM(num_value_change_deletes)::BIGINT AS total_value_change_deletes,
                   SUM(num_value_change_updates)::BIGINT AS total_value_change_updates,
                   SUM(CASE WHEN num_value_change_updates = 0 THEN 1 ELSE 0 END)::BIGINT
                       AS num_entities_no_updates,
                   ROUND(AVG(num_value_changes), 3) AS avg_value_changes,
                   ROUND(AVG(num_value_change_creates), 3) AS avg_value_change_creates,
                   ROUND(AVG(num_value_change_deletes), 3) AS avg_value_change_deletes,
                   ROUND(AVG(num_value_change_updates), 3) AS avg_value_change_updates,
                   SUM(num_rank_changes)::BIGINT AS total_rank_changes,
                   SUM(num_qualifier_changes)::BIGINT AS total_qualifier_changes,
                   SUM(num_reference_changes)::BIGINT AS total_reference_changes,
                   SUM(num_bot_edits)::BIGINT AS total_bot_edits,
                   SUM(num_anonymous_edits)::BIGINT AS total_anonymous_edits,
                   SUM(num_human_edits)::BIGINT AS total_human_edits,
                   ROUND(AVG(num_revisions), 3) AS avg_revisions_per_entity,
                   MIN(num_revisions)::BIGINT AS min_revisions,
                   MAX(num_revisions)::BIGINT AS max_revisions
            FROM {rp('entity_stats')}
        """,
    }


def oracle_sql(sf_dir: str = "/root/testdata/sf0.01") -> dict[str, str]:
    """Driver contract: called with no args, the SQL targets sf0.01 (where
    the driver runs correctness). Tests pass another tier's sf_dir."""
    return {
        **_kg_oracles(sf_dir),
        "dedup_exact_docs": """
            SELECT doc_id, lang, source, n_chars FROM (
              SELECT doc_id, lang, source, n_chars,
                     ROW_NUMBER() OVER (PARTITION BY text ORDER BY doc_id) rn
              FROM documents) WHERE rn = 1
        """,
        "doc_token_stats": """
            SELECT lang, COUNT(*)::BIGINT AS num_docs,
                   SUM(length(regexp_extract_all(text, '\\S+')))::BIGINT AS total_tokens,
                   ROUND(AVG(n_chars), 3) AS avg_chars
            FROM documents GROUP BY lang
        """,
        "doc_char_classes": """
            SELECT source, COUNT(*)::BIGINT AS num_docs,
                   SUM(length(regexp_extract_all(text, '[0-9]')))::BIGINT AS total_digits,
                   SUM(length(regexp_extract_all(text, ' ')))::BIGINT AS total_spaces,
                   SUM(length(text))::BIGINT AS total_chars
            FROM documents GROUP BY source
        """,
        "events_type_stats": """
            SELECT event_type, COUNT(DISTINCT user_id)::BIGINT AS num_users,
                   COUNT(*)::BIGINT AS num_events,
                   ROUND(SUM(value), 3) AS total_value
            FROM events GROUP BY event_type
        """,
        "events_monthly": """
            SELECT strftime(ts, '%Y-%m') AS year_month,
                   COUNT(*)::BIGINT AS num_events,
                   ROUND(SUM(value), 3) AS total_value
            FROM events GROUP BY 1
        """,
        "top_users_by_value": """
            SELECT user_id, ROUND(SUM(value), 3) AS total_value
            FROM events GROUP BY user_id
            ORDER BY total_value DESC, user_id ASC LIMIT 10
        """,
        "lineitem_pricing_summary": """
            SELECT l_returnflag, l_linestatus,
                   ROUND(SUM(l_quantity), 3) AS sum_qty,
                   ROUND(SUM(l_extendedprice), 3) AS sum_base_price,
                   ROUND(SUM(l_extendedprice * (1 - l_discount)), 3) AS sum_revenue,
                   ROUND(AVG(l_discount), 3) AS avg_discount,
                   COUNT(*)::BIGINT AS count_order
            FROM lineitem GROUP BY l_returnflag, l_linestatus
        """,
        "customer_nation_counts": """
            SELECT n.n_name AS n_name, COUNT(*)::BIGINT AS num_customers
            FROM customer c JOIN nation n ON c.c_nationkey = n.n_nationkey
            GROUP BY n.n_name
        """,
        "orders_priority_monthly": """
            SELECT strftime(o_orderdate, '%Y-%m') AS year_month,
                   o_orderpriority,
                   COUNT(*)::BIGINT AS num_orders,
                   ROUND(SUM(o_totalprice), 3) AS total_price
            FROM orders GROUP BY 1, 2
        """,
        "supplier_part_stats": """
            SELECT p.p_brand AS p_brand, COUNT(*)::BIGINT AS num_lineitems,
                   ROUND(SUM(l.l_quantity), 3) AS total_qty
            FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey
            GROUP BY p.p_brand
        """,
        "events_filtered_distinct": """
            SELECT DISTINCT user_id, event_type
            FROM events WHERE value > 50.0
        """,
        "docs_lang_source_matrix": """
            SELECT lang, source, COUNT(*)::BIGINT AS num_docs,
                   MIN(n_chars)::BIGINT AS min_chars,
                   MAX(n_chars)::BIGINT AS max_chars
            FROM documents GROUP BY lang, source
        """,
        "minhash_dedup_docs": """
            SELECT doc_id FROM documents
            UNION ALL
            SELECT doc_id + 20000000 AS doc_id FROM documents
            WHERE doc_id % 10 = 5
        """,
        "simhash_dedup_docs": """
            SELECT doc_id FROM documents
            UNION ALL
            SELECT doc_id + 20000000 AS doc_id FROM documents
            WHERE doc_id % 10 = 5
        """,
        "embedding_dedup": """
            SELECT vec_id FROM embeddings
        """,
        "text_analysis": f"""
            SELECT doc_id, detected_lang, ws_token_count, bpe_token_count,
                   quality_score, fingerprint
            FROM read_parquet('{_text_expect_path(sf_dir)}')
        """,
        "pack_sequences": """
            WITH t AS (
              SELECT doc_id,
                     length(regexp_extract_all(text, '\\S+'))::BIGINT
                         AS ws_token_count
              FROM documents)
            SELECT doc_id, ws_token_count,
                   CAST(FLOOR((SUM(ws_token_count) OVER (
                                 ORDER BY doc_id
                                 ROWS UNBOUNDED PRECEDING)
                               - ws_token_count) / 512.0) AS BIGINT) AS pack_id
            FROM t
        """,
        "ngram_jaccard_pairs": """
            SELECT doc_id + 10000000 AS pair_id,
                   ROUND(45.0 / 47.0, 3) AS jaccard
            FROM documents WHERE doc_id % 10 = 0
            UNION ALL
            SELECT doc_id + 20000000 AS pair_id, 0.0 AS jaccard
            FROM documents WHERE doc_id % 10 = 5
        """,
        "ivf_topk": """
            WITH q AS (
              SELECT (ROW_NUMBER() OVER (ORDER BY vec_id)) - 1 AS query_idx,
                     embedding AS qv
              FROM (SELECT * FROM embeddings ORDER BY vec_id LIMIT 3)
            ), scored AS (
              SELECT q.query_idx, e.vec_id,
                     list_cosine_similarity(e.embedding, q.qv) AS score,
                     ROW_NUMBER() OVER (PARTITION BY q.query_idx
                                        ORDER BY list_cosine_similarity(e.embedding, q.qv) DESC,
                                                 e.vec_id) AS rk
              FROM embeddings e CROSS JOIN q
            )
            SELECT query_idx, vec_id FROM scored WHERE rk <= 10
        """,
        "knn_topk": """
            WITH q AS (
              SELECT (ROW_NUMBER() OVER (ORDER BY vec_id)) - 1 AS query_idx,
                     embedding AS qv
              FROM (SELECT * FROM embeddings ORDER BY vec_id LIMIT 3)
            ), scored AS (
              SELECT q.query_idx, e.vec_id,
                     list_cosine_similarity(e.embedding, q.qv) AS score,
                     ROW_NUMBER() OVER (PARTITION BY q.query_idx
                                        ORDER BY list_cosine_similarity(e.embedding, q.qv) DESC,
                                                 e.vec_id) AS rk
              FROM embeddings e CROSS JOIN q
            )
            SELECT query_idx, vec_id FROM scored WHERE rk <= 10
        """,
        # min-label reachability: recursive CTE fixpoint == the engine's
        # min-label-propagation connected components (stages/cluster.py)
        "dup_clusters": """
            WITH RECURSIVE
            raw_edges AS (
              SELECT doc_id AS src, doc_id - 1 AS dst FROM documents
              WHERE doc_id % 10 BETWEEN 1 AND 3
              UNION ALL
              SELECT doc_id AS src, (doc_id // 100) * 100 AS dst
              FROM documents WHERE doc_id % 100 = 7
            ),
            sym AS (
              SELECT src, dst FROM raw_edges
              UNION
              SELECT dst, src FROM raw_edges
            ),
            reach(node, lbl) AS (
              SELECT doc_id, doc_id FROM documents
              UNION
              SELECT s.src, r.lbl FROM sym s JOIN reach r ON s.dst = r.node
            )
            SELECT node AS doc_id, MIN(lbl)::BIGINT AS cluster_id
            FROM reach GROUP BY node
        """,
        # derived near-dup corpus fixes the clusters analytically:
        # {d, d+10M} for d%10==0 (verified pair, min label d), singletons
        # otherwise (far clones d+20M share no shingles)
        "minhash_cluster_docs": """
            SELECT doc_id, doc_id AS cluster_id FROM documents
            UNION ALL
            SELECT doc_id + 10000000 AS doc_id, doc_id AS cluster_id
            FROM documents WHERE doc_id % 10 = 0
            UNION ALL
            SELECT doc_id + 20000000 AS doc_id,
                   doc_id + 20000000 AS cluster_id
            FROM documents WHERE doc_id % 10 = 5
        """,
        "vocab_topk": """
            WITH toks AS (
              SELECT unnest(regexp_extract_all(lower(coalesce(text, '')),
                                               '[a-z0-9]+')) AS token
              FROM documents
            )
            SELECT token, COUNT(*)::BIGINT AS count FROM toks
            GROUP BY token ORDER BY count DESC, token ASC LIMIT 100
        """,
        "decontaminate": """
            WITH toks AS (
              SELECT doc_id,
                     regexp_extract_all(lower(coalesce(text, '')),
                                        '[a-z0-9]+') AS t
              FROM documents
            ),
            grams AS (
              SELECT doc_id, t[i] || ' ' || t[i+1] || ' ' || t[i+2] AS g
              FROM toks, unnest(range(1, len(t) - 1)) AS u(i)
              WHERE len(t) >= 3
            ),
            bench AS (SELECT DISTINCT g FROM grams WHERE doc_id % 29 = 1),
            hits AS (SELECT DISTINCT doc_id FROM grams
                     WHERE g IN (SELECT g FROM bench))
            SELECT d.doc_id,
                   (CASE WHEN h.doc_id IS NOT NULL THEN 1 ELSE 0 END)::BIGINT
                     AS contaminated
            FROM documents d LEFT JOIN hits h USING (doc_id)
        """,
        # same RE2 pattern strings as stages/text_ops.redact_pii; DuckDB and
        # Arrow both run RE2, so counts and replacements agree byte-for-byte
        "pii_redact": """
            WITH injected AS (
              SELECT doc_id,
                     CASE WHEN doc_id % 3 = 0 THEN
                       coalesce(text, '') || ' contact u' || doc_id ||
                       '@example.com id ' ||
                       (doc_id * 7919 + 1000000000) || ' end'
                     ELSE coalesce(text, '') END AS text
              FROM documents
            ),
            pass1 AS (
              SELECT doc_id,
                     len(regexp_extract_all(text,
                       '[a-z0-9._%+-]+@[a-z0-9.-]+\\.[a-z]{2,}'))::BIGINT
                       AS n_emails,
                     regexp_replace(text,
                       '[a-z0-9._%+-]+@[a-z0-9.-]+\\.[a-z]{2,}',
                       '<EMAIL>', 'g') AS t2
              FROM injected
            )
            SELECT doc_id,
                   regexp_replace(t2, '[0-9]{7,}', '<NUMBER>', 'g')
                     AS clean_text,
                   n_emails,
                   len(regexp_extract_all(t2, '[0-9]{7,}'))::BIGINT
                     AS n_numbers
            FROM pass1
        """,
        # score left unrounded on both sides: tf * ln(N/df) runs through the
        # same libm on this machine, so the doubles are bit-identical
        "tfidf_top_terms": """
            WITH toks AS (
              SELECT doc_id,
                     unnest(regexp_extract_all(lower(coalesce(text, '')),
                                               '[a-z0-9]+')) AS token
              FROM documents
            ),
            tf AS (SELECT doc_id, token, COUNT(*)::BIGINT AS tf
                   FROM toks GROUP BY doc_id, token),
            df AS (SELECT token, COUNT(DISTINCT doc_id)::DOUBLE AS df
                   FROM toks GROUP BY token),
            n AS (SELECT COUNT(*)::DOUBLE AS nn FROM documents),
            scored AS (
              SELECT tf.doc_id, tf.token,
                     tf.tf * ln((SELECT nn FROM n) / df.df) AS score,
                     ROW_NUMBER() OVER (
                       PARTITION BY tf.doc_id
                       ORDER BY tf.tf * ln((SELECT nn FROM n) / df.df) DESC,
                                tf.token) AS rk
              FROM tf JOIN df USING (token)
            )
            SELECT doc_id, token, score FROM scored WHERE rk <= 3
        """,
        "doc_repetition": """
            WITH toks AS (
              SELECT doc_id,
                     regexp_extract_all(lower(coalesce(text, '')),
                                        '[a-z0-9]+') AS t
              FROM documents
            ),
            grams AS (
              SELECT doc_id, t[i] || ' ' || t[i+1] AS g
              FROM toks, unnest(range(1, len(t))) AS u(i)
              WHERE len(t) >= 2
            ),
            agg AS (
              SELECT doc_id, COUNT(*)::BIGINT AS total_bigrams,
                     COUNT(DISTINCT g)::BIGINT AS distinct_bigrams
              FROM grams GROUP BY doc_id
            )
            SELECT d.doc_id,
                   COALESCE(a.total_bigrams, 0)::BIGINT AS total_bigrams,
                   COALESCE(a.distinct_bigrams, 0)::BIGINT
                     AS distinct_bigrams,
                   (CASE WHEN a.total_bigrams > 0
                         THEN 1.0 - a.distinct_bigrams
                                    / a.total_bigrams::DOUBLE
                         ELSE 0.0 END)::DOUBLE AS rep_ratio
            FROM documents d LEFT JOIN agg a USING (doc_id)
        """,
        # direct window over the corpus parquet itself (non-circular): the
        # engine's distributed prefix sum must equal the global running-sum
        # window over the (qnum, span_index) order
        "kg_interleaved_pack": f"""
            WITH sp AS (
              SELECT doc_id,
                     CAST(substr(doc_id, 2) AS BIGINT) AS qnum,
                     i AS span_index,
                     (CASE WHEN spans[i+1].kind = 'text'
                           THEN length(regexp_extract_all(
                                  coalesce(spans[i+1].text, ''), '\\S+'))
                           ELSE 64 END)::BIGINT AS span_tokens
              FROM read_parquet('{_corpus_glob(sf_dir)}'),
                   unnest(range(len(spans))) AS u(i)
            ),
            w AS (
              SELECT doc_id, span_index, span_tokens,
                     SUM(span_tokens) OVER (
                       ORDER BY qnum * 1048576 + span_index
                       ROWS UNBOUNDED PRECEDING) AS cum
              FROM sp
            )
            SELECT doc_id, span_index::BIGINT AS span_index, span_tokens,
                   ((cum - span_tokens) // 2048)::BIGINT AS pack_id
            FROM w
        """,
        "unigram_logprob": """
            WITH toks AS (
              SELECT doc_id,
                     UNNEST(regexp_extract_all(lower(coalesce(text, '')),
                                               '[a-z0-9]+')) AS tok
              FROM documents
            ),
            counts AS (SELECT tok, COUNT(*)::DOUBLE AS c
                       FROM toks GROUP BY tok),
            total AS (SELECT COUNT(*)::DOUBLE AS n FROM toks)
            SELECT t.doc_id,
                   COUNT(*)::BIGINT AS n_tokens,
                   ROUND(AVG(ln(c.c / (SELECT n FROM total))), 6)
                       AS unigram_logprob
            FROM toks t JOIN counts c USING (tok)
            GROUP BY t.doc_id
        """,
        "kmeans_assign": """
            WITH c AS (
              SELECT embedding AS cvec,
                     ROW_NUMBER() OVER (ORDER BY vec_id) - 1 AS cluster
              FROM embeddings ORDER BY vec_id LIMIT 8
            ),
            d AS (
              SELECT e.vec_id, c.cluster,
                     list_sum(list_transform(
                       list_zip(e.embedding, c.cvec),
                       x -> (CAST(x[1] AS DOUBLE)
                             - CAST(x[2] AS DOUBLE)) ** 2)) AS dist
              FROM embeddings e CROSS JOIN c
            )
            SELECT vec_id, cluster::BIGINT AS cluster,
                   ROUND(dist, 6) AS dist
            FROM d
            QUALIFY ROW_NUMBER() OVER (
              PARTITION BY vec_id ORDER BY dist, cluster) = 1
        """,
        "chunk_dedup": """
            WITH w AS (
              SELECT doc_id,
                     unnest(string_split(coalesce(text, ''), ' ')) AS word,
                     generate_subscripts(string_split(coalesce(text, ''),
                                                      ' '), 1) AS ord
              FROM documents
            ), ch AS (
              SELECT doc_id, CAST(floor((ord - 1) / 3) AS BIGINT)
                         AS chunk_ord,
                     string_agg(word, ' ' ORDER BY ord) AS chunk
              FROM w GROUP BY doc_id, 2
            ), freq AS (
              SELECT chunk FROM ch
              GROUP BY chunk HAVING count(DISTINCT doc_id) >= 2
            ), marked AS (
              SELECT c.doc_id, c.chunk_ord, c.chunk,
                     (f.chunk IS NOT NULL) AS is_dup
              FROM ch c LEFT JOIN freq f USING (chunk)
            )
            SELECT doc_id,
                   string_agg(chunk, ' ' ORDER BY chunk_ord)
                       FILTER (WHERE NOT is_dup) AS clean_text,
                   CAST(COALESCE(sum(CASE WHEN is_dup THEN 1 ELSE 0 END), 0)
                        AS BIGINT) AS removed_chunks,
                   CAST(count(*) AS BIGINT) AS total_chunks
            FROM marked GROUP BY doc_id
        """,
        "semdedup": """
            WITH c AS (
              SELECT embedding AS cvec,
                     ROW_NUMBER() OVER (ORDER BY vec_id) - 1 AS cl
              FROM embeddings ORDER BY vec_id LIMIT 8
            ),
            a AS (
              SELECT e.vec_id, c.cl,
                     list_sum(list_transform(list_zip(e.embedding, c.cvec),
                         x -> (CAST(x[1] AS DOUBLE)
                               - CAST(x[2] AS DOUBLE)) ** 2)) AS dist
              FROM embeddings e CROSS JOIN c
            ),
            asg AS (
              SELECT vec_id, cl AS cluster FROM a
              QUALIFY ROW_NUMBER() OVER (
                PARTITION BY vec_id ORDER BY dist, cl) = 1
            ),
            n AS (
              SELECT e.vec_id, s.cluster, e.embedding,
                     sqrt(list_sum(list_transform(e.embedding,
                         x -> CAST(x AS DOUBLE) ** 2))) AS nrm
              FROM embeddings e JOIN asg s USING (vec_id)
            ),
            p AS (
              SELECT a2.vec_id,
                     max(CASE WHEN ROUND(
                            list_sum(list_transform(
                                list_zip(a2.embedding, b.embedding),
                                x -> CAST(x[1] AS DOUBLE)
                                     * CAST(x[2] AS DOUBLE)))
                            / (a2.nrm * b.nrm), 6) > 0.3
                          THEN 1 ELSE 0 END) AS is_dup
              FROM n a2 JOIN n b ON a2.cluster = b.cluster
                                AND b.vec_id < a2.vec_id
              GROUP BY a2.vec_id)
            SELECT n.vec_id, n.cluster,
                   CAST(COALESCE(p.is_dup, 0) AS BIGINT) AS is_dup
            FROM n LEFT JOIN p USING (vec_id)
        """,
        "dsir_logratio": """
            WITH toks AS (
              SELECT doc_id,
                     UNNEST(regexp_extract_all(lower(coalesce(text, '')),
                                               '[a-z0-9]+')) AS tok
              FROM documents
            ),
            ttoks AS (
              SELECT UNNEST(regexp_extract_all(lower(coalesce(text, '')),
                                               '[a-z0-9]+')) AS tok
              FROM documents WHERE lang = 'de'
            ),
            cc AS (SELECT tok, COUNT(*)::DOUBLE AS c FROM toks GROUP BY tok),
            tcn AS (SELECT tok, COUNT(*)::DOUBLE AS c
                    FROM ttoks GROUP BY tok),
            tot AS (SELECT COUNT(*)::DOUBLE AS n FROM toks),
            ttot AS (SELECT COUNT(*)::DOUBLE AS n FROM ttoks),
            vv AS (SELECT COUNT(*)::DOUBLE AS v FROM cc)
            SELECT t.doc_id, COUNT(*)::BIGINT AS n_tokens,
                   ROUND(AVG(ln((COALESCE(x.c, 0) + 1)
                                / ((SELECT n FROM ttot)
                                   + (SELECT v FROM vv)))
                             - ln(ccx.c / (SELECT n FROM tot))), 6)
                       AS dsir_logratio
            FROM toks t JOIN cc ccx USING (tok) LEFT JOIN tcn x USING (tok)
            GROUP BY t.doc_id
        """,
        "corpus_diff": """
            WITH old AS (
              SELECT doc_id, text FROM documents WHERE doc_id % 10 <> 0
            ),
            new AS (
              SELECT doc_id,
                     CASE WHEN doc_id % 5 = 0
                          THEN coalesce(text, '') || ' updated'
                          ELSE text END AS text
              FROM documents WHERE doc_id % 7 <> 0
            )
            SELECT COALESCE(o.doc_id, n.doc_id) AS doc_id,
                   CASE WHEN o.doc_id IS NULL THEN 'added'
                        WHEN n.doc_id IS NULL THEN 'removed'
                        WHEN coalesce(o.text, '') = coalesce(n.text, '')
                             THEN 'unchanged'
                        ELSE 'changed' END AS status
            FROM old o FULL OUTER JOIN new n ON o.doc_id = n.doc_id
        """,
        "apply_corpus_delta": """
            WITH survivors AS (
              SELECT doc_id, coalesce(text, '') AS text
              FROM documents
              WHERE doc_id % 7 <> 0 AND NOT (doc_id % 5 = 0)
            ),
            upserts AS (
              SELECT doc_id, coalesce(text, '') || ' v2' AS text
              FROM documents
              WHERE doc_id % 5 = 0 AND doc_id % 7 <> 0
            ),
            inserts AS (
              SELECT doc_id + 1000000 AS doc_id,
                     'inserted ' || coalesce(text, '') AS text
              FROM documents WHERE doc_id % 11 = 0
            ),
            merged AS (
              SELECT * FROM survivors
              UNION ALL SELECT * FROM upserts
              UNION ALL SELECT * FROM inserts
            )
            SELECT doc_id, CAST(length(text) AS BIGINT) AS text_len
            FROM merged
        """,
        "blocklist_flags": """
            SELECT doc_id,
                   CAST(CASE WHEN EXISTS (
                       SELECT 1 FROM unnest(regexp_extract_all(
                           lower(coalesce(d.text, '')), '[a-z0-9]+')) t(tok)
                       WHERE tok IN ('spark')) THEN 1 ELSE 0 END
                     AS BIGINT) AS blocked
            FROM documents d
        """,
        "pack_texts": """
            WITH w AS (
              SELECT doc_id, coalesce(text, '') AS text,
                     CAST(len(regexp_extract_all(coalesce(text, ''),
                                                 '\\S+')) AS BIGINT) AS ws,
                     SUM(CAST(len(regexp_extract_all(coalesce(text, ''),
                                                     '\\S+')) AS BIGINT))
                         OVER (ORDER BY doc_id
                               ROWS UNBOUNDED PRECEDING) AS cum
              FROM documents)
            SELECT CAST((cum - ws) // 2048 AS BIGINT) AS pack_id,
                   string_agg(text, chr(10) ORDER BY doc_id) AS pack_text,
                   CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(ws) AS BIGINT) AS total_tokens
            FROM w GROUP BY 1
        """,
    }
