"""Text-analysis operators for large-scale training-data pipelines:
language-ID, quality scoring, token counting, document fingerprinting.

All are vectorized/batched `map_batches` transforms over a generic documents
table (doc_id, text, ...). Regexes compile at module import (once per worker
process), not per batch.
"""
from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_WS_RE = re.compile(r"\s+")
_PUNCT_RE = re.compile(r"[^\w\s]")
# a BPE-ish pre-tokenizer: word pieces, numbers, punctuation runs
_BPE_RE = re.compile(r"\w+|[^\w\s]+")

# tiny n-gram language profiles (top character trigrams per language) — the
# classic heuristic; deterministic, dependency-free
_LANG_PROFILES = {
    "en": (" th", "the", "he ", " an", "and", "nd ", " of", "of ", "ing", "ng "),
    "de": ("en ", "er ", " de", "der", "ie ", "ch ", "sch", "ein", " un", "und"),
    "fr": (" de", "es ", "de ", " le", "le ", "ent", "nt ", "que", " qu", "la "),
    "es": (" de", "de ", "os ", " la", "la ", "as ", "el ", " el", "que", " qu"),
    "it": (" di", "di ", " co", "to ", "la ", " la", "re ", "one", "che", " ch"),
}
_LANG_SETS = {lang: set(grams) for lang, grams in _LANG_PROFILES.items()}


def detect_language(text: str) -> str:
    """Character-trigram overlap against per-language profiles; 'und' when no
    profile matches."""
    t = f" {text.lower()} "
    grams = {t[i:i + 3] for i in range(len(t) - 2)}
    best, best_score = "und", 0
    for lang, prof in _LANG_SETS.items():
        score = len(grams & prof)
        if score > best_score:
            best, best_score = lang, score
    return best


_LANG_ORDER = list(_LANG_PROFILES.items())


def language_id(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Vectorized: a profile trigram is in the text's trigram set iff it is a
    substring of the padded text, so the score is a sum of Arrow
    match_substring masks (one pass per profile gram, 50 total) and the
    winner is the first-profile-order strict argmax — identical to
    detect_language row by row (differentially tested)."""
    n = batch.num_rows
    if n == 0:
        return batch.append_column("detected_lang",
                                   pa.array([], type=pa.string()))
    lowered = pc.utf8_lower(pc.fill_null(batch.column(text_col), ""))
    padded = pc.binary_join_element_wise(" ", lowered, " ", "")
    scores = np.zeros((len(_LANG_ORDER), n), dtype=np.int32)
    for li, (_lang, grams) in enumerate(_LANG_ORDER):
        for g in grams:
            scores[li] += pc.match_substring(padded, g).combine_chunks() \
                .to_numpy(zero_copy_only=False).astype(np.int32)
    best_idx = np.argmax(scores, axis=0)  # first max = profile-order winner
    best_score = scores[best_idx, np.arange(n)]
    langs = np.array([lang for lang, _ in _LANG_ORDER])
    out = np.where(best_score > 0, langs[best_idx], "und")
    return batch.append_column("detected_lang",
                               pa.array(out, type=pa.string()))


def token_counts(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Whitespace tokens (Arrow RE2 kernel) + BPE-ish piece count. The BPE
    branch stays a per-doc sre findall: the measured alternatives lose —
    a joined-blob finditer+searchsorted binning costs MORE (match objects
    are heavier than the findall strings: 1.57s vs 1.01s on 5k x 6KB docs),
    and Arrow's RE2 \\w/\\s classes are ASCII-only, which would change the
    pinned unicode semantics (sources/text_expect.py)."""
    texts = batch.column(text_col)
    ws_tokens = pc.count_substring_regex(texts, pattern=r"\S+")
    bpe_counts = pa.array(
        [len(_BPE_RE.findall(t or "")) for t in texts.to_pylist()],
        type=pa.int64())
    out = batch.append_column("ws_token_count", pc.cast(ws_tokens, pa.int64()))
    return out.append_column("bpe_token_count", bpe_counts)


_STOPWORDS = frozenset(
    ("the", "a", "an", "and", "or", "of", "to", "in", "is", "it",
     "that", "for", "on", "as", "with"))


def quality_score(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Heuristic quality features + score: length, punctuation ratio, stopword
    ratio, mean word length. Semantics pinned by sources/text_expect.py
    (Python re/str unicode semantics — NOT swappable for RE2, whose \\w/\\s
    are ASCII-only). Kernel choices are MEASURED, not guessed: the loop body
    is C-level str/regex calls; np.mean over a per-doc list comprehension was
    the one real hotspot (3.4x slower than sum(map(len, words))/n — same
    float64 value, int sums are exact) and a batch-flattened pandas
    isin/str.len rewrite LOSES (object-Series str.len alone costs 3.1s where
    this whole loop runs in ~1.7s on 5k x 6KB docs)."""
    stopwords = _STOPWORDS
    texts = batch.column(text_col).to_pylist()
    n = len(texts)
    lengths = np.empty(n, dtype=np.int64)
    punct_ratio = np.empty(n, dtype=np.float64)
    stop_ratio = np.empty(n, dtype=np.float64)
    mean_word_len = np.empty(n, dtype=np.float64)
    for i, t in enumerate(texts):
        t = t or ""
        lengths[i] = len(t)
        punct = len(_PUNCT_RE.findall(t))
        punct_ratio[i] = punct / len(t) if t else 0.0
        words = t.lower().split()
        nw = len(words)
        if nw:
            stop_ratio[i] = sum(w in stopwords for w in words) / nw
            mean_word_len[i] = sum(map(len, words)) / nw
        else:
            stop_ratio[i] = 0.0
            mean_word_len[i] = 0.0
    score = (
        np.clip(lengths / 1000.0, 0, 1) * 0.4
        + (1.0 - np.clip(punct_ratio * 5, 0, 1)) * 0.2
        + np.clip(stop_ratio * 4, 0, 1) * 0.2
        + np.clip(mean_word_len / 8.0, 0, 1) * 0.2
    )
    out = batch.append_column("char_count", pa.array(lengths, type=pa.int64()))
    out = out.append_column("punct_ratio", pa.array(punct_ratio, type=pa.float64()))
    out = out.append_column("stopword_ratio", pa.array(stop_ratio, type=pa.float64()))
    out = out.append_column("mean_word_len", pa.array(mean_word_len, type=pa.float64()))
    return out.append_column("quality_score", pa.array(score, type=pa.float64()))


_FP_BASE = np.uint64(1000003)
_FP_POWERS = {}  # window -> uint64 power vector (mod 2^64 natural wrap)


def _fp_powers(window: int) -> np.ndarray:
    p = _FP_POWERS.get(window)
    if p is None:
        p = np.empty(window, dtype=np.uint64)
        acc = np.uint64(1)
        for i in range(window - 1, -1, -1):
            p[i] = acc
            acc = acc * _FP_BASE  # natural mod 2^64
        _FP_POWERS[window] = p
    return p


def rolling_fingerprint(text: str, window: int = 16) -> int:
    """Karp-Rabin document fingerprint: min rolling hash over char windows
    (mod 2^64 natural wrap) — stable content identity robust to document
    concatenation order. Fully vectorized: every window hash is one
    sliding-window x power-vector product (no per-char Python loop)."""
    t = text or ""
    codes = np.frombuffer(t.encode("utf-32-le"), dtype=np.uint32).astype(np.uint64)
    if len(codes) == 0:
        return 0
    if len(codes) < window:
        window = len(codes)
    w = np.lib.stride_tricks.sliding_window_view(codes, window)
    with np.errstate(over="ignore"):
        hashes = w @ _fp_powers(window)  # uint64 wrap == mod 2^64
    return int(hashes.min())


def fingerprint(batch: pa.Table, text_col: str = "text", window: int = 16) -> pa.Table:
    texts = batch.column(text_col).to_pylist()
    vals = [rolling_fingerprint(t, window) for t in texts]
    # store as two's-complement int64 (Arrow has no uint64-friendly hash col)
    return batch.append_column(
        "fingerprint",
        pa.array([v - (1 << 64) if v >= (1 << 63) else v for v in vals],
                 type=pa.int64()))


# ---- vocabulary / decontamination / PII redaction ----

# ASCII word tokens over lowercased text — matches the oracle's
# regexp_extract_all(lower(text), '[a-z0-9]+') exactly (RE2 and Python `re`
# agree on this pattern; [a-z0-9] only matches ASCII under both)
_VOCAB_RE = re.compile(r"[a-z0-9]+")


def _batch_tokens(texts: pa.ChunkedArray | pa.Array) -> list[str]:
    """One C-level regex scan over the newline-joined lowered batch — token
    lists per doc are not needed for global counts, so docs are scanned as a
    single blob (newline can't appear inside a token)."""
    lowered = pc.utf8_lower(pc.fill_null(texts, ""))
    blob = "\n".join(lowered.to_pylist())
    return _VOCAB_RE.findall(blob)


def vocab_topk(ds, text_col: str = "text", k: int = 1000):
    """Global token vocabulary: top-k [a-z0-9]+ tokens of the lowercased
    corpus by (count desc, token asc) -> Dataset of (token, count).

    100-TB shape: per-batch partial counts (one regex scan + one Counter per
    batch) mean the shuffle moves (token, partial_count) rows — bounded by
    batches x per-batch-distinct-tokens, not corpus tokens; the groupby-sum
    output is vocabulary-sized and the final sort runs on that, never on the
    corpus."""
    from collections import Counter

    def partial_counts(batch: pa.Table) -> pa.Table:
        counts = Counter(_batch_tokens(batch.column(text_col)))
        return pa.table({
            "token": pa.array(list(counts.keys()), type=pa.string()),
            "count": pa.array(list(counts.values()), type=pa.int64())})

    totals = ds.map_batches(partial_counts, batch_format="pyarrow") \
        .groupby("token").sum("count")

    def rename(batch: pa.Table) -> pa.Table:
        return pa.table({"token": batch.column("token"),
                         "count": pc.cast(batch.column("sum(count)"),
                                          pa.int64())})

    return totals.map_batches(rename, batch_format="pyarrow") \
        .sort(["count", "token"], descending=[True, False]).limit(k)


def _gram_hash128(grams: list, buckets: int):
    """128-bit gram keys for the decontamination shuffle: two independent
    64-bit siphash passes (pandas hash_pandas_object, fixed keys — process
    stable) packed into one fixed_size_binary(16) Arrow array, zero Python
    per-gram work. Returns (key array, int64 bucket array). The bucket
    derives from the first hash half only, so routing is a pure function of
    the gram value. Two DIFFERENT grams share a key with P ~ 2^-128 — at a
    trillion distinct grams the expected collision count is ~1e-15."""
    import pandas as pd
    from pandas.util import hash_pandas_object

    m = len(grams)
    if m == 0:
        return (pa.Array.from_buffers(pa.binary(16), 0,
                                      [None, pa.py_buffer(b"")]),
                np.zeros(0, dtype=np.int64))
    s = pd.Series(grams, dtype=object)
    h1 = hash_pandas_object(s, index=False,
                            hash_key="wdgramhashkey001").to_numpy()
    h2 = hash_pandas_object(s, index=False,
                            hash_key="wdgramhashkey002").to_numpy()
    data = np.empty((m, 2), dtype="<u8")
    data[:, 0] = h1
    data[:, 1] = h2
    keys = pa.Array.from_buffers(
        pa.binary(16), m, [None, pa.py_buffer(data.tobytes())])
    return keys, (h1 % np.uint64(buckets)).astype(np.int64)


def _doc_ngrams(text: str, n: int = 3) -> set:
    toks = _VOCAB_RE.findall((text or "").lower())
    return {" ".join(toks[i:i + n]) for i in range(len(toks) - n + 1)}


def _bench_gram_table(bench_ds, text_col: str, n: int):
    """Materialized + pinned single-column ('gram') table of the benchmark
    side's distinct word n-grams."""
    from .distributed import _pin

    def bench_grams(batch: pa.Table) -> pa.Table:
        grams = set()
        for t in batch.column(text_col).to_pylist():
            grams |= _doc_ngrams(t, n)
        return pa.table({"gram": pa.array(sorted(grams), type=pa.string())})

    bench_mat = bench_ds.map_batches(
        bench_grams, batch_format="pyarrow").materialize()
    _pin(bench_mat)
    return bench_mat


def decontaminate_flags(ds, bench_ds, text_col: str = "text",
                        id_col: str = "doc_id", n: int = 3,
                        broadcast_limit: int = 2_000_000,
                        buckets: int | None = None):
    """Benchmark decontamination: flag every doc sharing any word n-gram with
    the benchmark set -> Dataset of (id_col, 'contaminated' int64 0/1).

    100-TB shape, dual path like the dedup anti-joins:
    - benchmark gram set <= broadcast_limit (the common case — eval
      benchmarks are small): the set is built once and BROADCAST
      (object-store block refs fetched once per worker), the corpus side is
      one streaming map_batches membership probe — zero shuffle.
    - beyond the limit (decontaminating against another CORPUS): corpus
      doc-grams and benchmark grams co-partition on a gram-hash bucket
      (`_contamination_hit_ids`), each bucket emits its hit doc-ids locally,
      and the hit set flags the docs through the same dual-path membership
      primitive (stages/distributed.membership_flags) — nothing materializes
      centrally. The shuffle ships 128-BIT GRAM HASHES (fixed_size_binary(16)
      from two independent 64-bit siphash passes, vectorized), never the gram
      strings themselves: ~16 bytes fixed per gram vs 16-30+ variable for
      word 3-grams plus offset overhead, a several-fold exchange-volume cut.
      Matching two DIFFERENT grams requires a 128-bit collision
      (P ~ G^2/2^129 — at a trillion distinct grams, ~1e-15), documented in
      lieu of a string re-verify."""
    from .distributed import (_get_broadcast_set, default_reduce_buckets,
                              membership_flags)

    bench_mat = _bench_gram_table(bench_ds, text_col, n)

    if bench_mat.count() <= broadcast_limit:
        gram_refs = tuple(bench_mat.to_arrow_refs())

        def probe(batch: pa.Table) -> pa.Table:
            bench = _get_broadcast_set(gram_refs, "gram")
            flags = np.empty(batch.num_rows, dtype=np.int64)
            for i, t in enumerate(batch.column(text_col).to_pylist()):
                flags[i] = int(not _doc_ngrams(t, n).isdisjoint(bench))
            return pa.table({id_col: batch.column(id_col),
                             "contaminated": pa.array(flags, type=pa.int64())})

        return ds.map_batches(probe, batch_format="pyarrow")

    if buckets is None:
        buckets = default_reduce_buckets()
    hit_ids = _contamination_hit_ids(ds, bench_mat, text_col, id_col, n,
                                     buckets)
    return membership_flags(ds.select_columns([id_col]), hit_ids, id_col,
                            flag_col="contaminated",
                            broadcast_limit=broadcast_limit,
                            buckets=buckets)


def _contamination_hit_ids(ds, bench_mat, text_col: str, id_col: str, n: int,
                           buckets: int):
    """Shuffle path of decontaminate_flags: corpus doc-grams and benchmark
    grams co-partition on a 128-bit gram-hash bucket; each bucket emits its
    hit doc-ids locally -> Dataset of (id_col) hit ids."""
    id_type = ds.schema().types[ds.schema().names.index(id_col)]

    def corpus_grams(batch: pa.Table) -> pa.Table:
        gs, ids = [], []
        for d, t in zip(batch.column(id_col).to_pylist(),
                        batch.column(text_col).to_pylist()):
            for g in _doc_ngrams(t, n):
                gs.append(g)
                ids.append(d)
        gh, bk = _gram_hash128(gs, buckets)
        return pa.table({"gram_h": gh,
                         "doc": pa.array(ids, type=id_type),
                         "is_bench": pa.array(
                             np.zeros(len(gs), dtype=np.int8)),
                         "bucket": pa.array(bk, type=pa.int64())})

    def tag_bench(batch: pa.Table) -> pa.Table:
        gs = batch.column("gram").to_pylist()
        gh, bk = _gram_hash128(gs, buckets)
        return pa.table({"gram_h": gh,
                         "doc": pa.nulls(len(gs), type=id_type),
                         "is_bench": pa.array(np.ones(len(gs), dtype=np.int8)),
                         "bucket": pa.array(bk, type=pa.int64())})

    unioned = ds.map_batches(corpus_grams, batch_format="pyarrow") \
        .union(bench_mat.map_batches(tag_bench, batch_format="pyarrow"))

    # arrow group format: pandas would coerce the null-padded doc column of
    # the bench rows to float64 and retype the hit ids
    def bucket_hits(group: pa.Table) -> pa.Table:
        is_b = pc.equal(group.column("is_bench"), 1)
        bench = group.filter(is_b).column("gram_h").combine_chunks()
        corpus = group.filter(pc.invert(is_b))
        # an all-bench or all-corpus bucket must emit a TYPED empty table,
        # not a null-typed one
        if len(bench) == 0 or corpus.num_rows == 0:
            return pa.table({id_col: pa.array([], type=id_type)})
        hits = corpus.filter(
            pc.is_in(corpus.column("gram_h"), value_set=bench)) \
            .column("doc").unique()
        return pa.table({id_col: hits})

    return unioned.groupby("bucket").map_groups(
        bucket_hits, batch_format="pyarrow")


# rides the (token, df) partials as a pseudo-token; [a-z0-9]+ tokens can
# never collide with a \x00-prefixed key
_N_DOCS_SENTINEL = "\x00n_docs"


def tfidf_top_terms(ds, text_col: str = "text", id_col: str = "doc_id",
                    k: int = 3):
    """Per-doc TF-IDF top-k terms -> Dataset of (id_col, token, score),
    score = tf * ln(N / df) (raw double — identical libm bits on the engine
    and DuckDB sides, so no rounding is needed or wanted), ranked
    (score desc, token asc); empty docs emit nothing.

    100-TB shape — a corpus statistic joined back into a per-doc transform:
    pass 1 computes document frequency from per-batch partial counts of
    per-doc DISTINCT tokens (shuffle volume = vocabulary x batches, never
    corpus tokens) AND carries the corpus row count as a sentinel partial
    (token '\\x00n_docs', which [a-z0-9]+ tokens can never collide with) —
    N comes out of the pass the operator already makes, no extra
    ds.count() execution of the upstream lineage. The vocabulary-sized
    (token, df) table is BROADCAST (block refs, dict built once per
    worker) and pass 2 streams the corpus once, scoring and top-k-ing
    inside the batch. No corpus-sized shuffle at any point. ln via libm
    (math.log) so the bits match the DuckDB oracle's ln()."""
    import math
    from collections import Counter

    from .distributed import _get_broadcast_dict, broadcast_dataset

    schema = ds.schema()
    id_type = schema.types[schema.names.index(id_col)]

    def partial_df(batch: pa.Table) -> pa.Table:
        c = Counter()
        for t in batch.column(text_col).to_pylist():
            c.update(set(_VOCAB_RE.findall((t or "").lower())))
        return pa.table({
            "token": pa.array([_N_DOCS_SENTINEL] + list(c.keys()),
                              type=pa.string()),
            "df": pa.array([batch.num_rows] + list(c.values()),
                           type=pa.int64())})

    df_ds = ds.map_batches(partial_df, batch_format="pyarrow") \
        .groupby("token").sum("df")
    df_refs = broadcast_dataset(df_ds.map_batches(
        lambda b: pa.table({"token": b.column("token"),
                            "df": pc.cast(b.column("sum(df)"), pa.int64())}),
        batch_format="pyarrow"))

    def score(batch: pa.Table) -> pa.Table:
        df_map = _get_broadcast_dict(df_refs, "token", "df")
        n_docs = float(df_map[_N_DOCS_SENTINEL])
        out_id, out_tok, out_score = [], [], []
        for d, txt in zip(batch.column(id_col).to_pylist(),
                          batch.column(text_col).to_pylist()):
            tf = Counter(_VOCAB_RE.findall((txt or "").lower()))
            if not tf:
                continue
            pairs = []
            for tok, t in tf.items():
                df = df_map.get(tok)
                if df is None:
                    # only reachable when ds's lineage is non-deterministic
                    # (sampling / re-resolved globs between the two passes)
                    raise ValueError(
                        f"tfidf_top_terms: token {tok!r} of doc {d!r} is "
                        f"absent from the document-frequency pass — the "
                        f"input dataset's lineage produced different rows "
                        f"on re-execution; materialize a deterministic "
                        f"input before calling tfidf_top_terms")
                pairs.append((t * math.log(n_docs / df), tok))
            for s, tok in sorted(pairs, key=lambda s: (-s[0], s[1]))[:k]:
                out_id.append(d)
                out_tok.append(tok)
                out_score.append(s)
        return pa.table({
            id_col: pa.array(out_id, type=id_type),
            "token": pa.array(out_tok, type=pa.string()),
            "score": pa.array(out_score, type=pa.float64())})

    return ds.map_batches(score, batch_format="pyarrow")


def repetition_stats(batch: pa.Table, text_col: str = "text",
                     id_col: str = "doc_id") -> pa.Table:
    """Gopher-style repetition quality signal per doc: total and distinct
    word 2-grams plus the duplicate fraction rep_ratio = 1 - distinct/total
    (0.0 for docs with < 2 tokens; raw double — small-int division is
    bit-identical to the SQL oracle's, no rounding). Pure per-doc batch
    kernel — composes into any map_batches stage."""
    total, distinct, ratio = bigram_rep_arrays(
        batch.column(text_col).to_pylist())
    return pa.table({
        id_col: batch.column(id_col),
        "total_bigrams": pa.array(total),
        "distinct_bigrams": pa.array(distinct),
        "rep_ratio": pa.array(ratio, type=pa.float64())})


def bigram_rep_arrays(texts: list):
    """(total, distinct, dup-fraction) word-bigram arrays per text — the one
    kernel behind repetition_stats AND the flagship quality gate, so the
    standalone operator, its SQL oracle and the composed pipeline can never
    drift apart."""
    n_rows = len(texts)
    total = np.zeros(n_rows, dtype=np.int64)
    distinct = np.zeros(n_rows, dtype=np.int64)
    for i, txt in enumerate(texts):
        toks = _VOCAB_RE.findall((txt or "").lower())
        n = len(toks) - 1
        if n <= 0:
            continue
        total[i] = n
        distinct[i] = len({(toks[j], toks[j + 1]) for j in range(n)})
    ratio = np.where(total > 0, 1.0 - distinct / np.maximum(total, 1), 0.0)
    return total, distinct, ratio


_N_TOKENS_SENTINEL = "\x00n_tokens"


def _doc_tokens(texts) -> list:
    """Per-doc token lists under the SAME lowering as _batch_tokens (Arrow
    utf8_lower) — a scorer that lowers with Python str.lower() would tokenize
    some non-ASCII text differently (e.g. U+0130: Arrow 'aib' vs Python
    'ai\u0307b' -> 'ai','b') and then miss tokens the count pass recorded."""
    lowered = pc.utf8_lower(pc.fill_null(texts, ""))
    return [_VOCAB_RE.findall(t) for t in lowered.to_pylist()]


def _token_count_refs(ds, text_col: str):
    """Broadcast handle for the corpus (token, count) table with the
    total-token count riding as the _N_TOKENS_SENTINEL pseudo-token —
    the statistic both unigram_logprob and dsir_logratio stream against."""
    from collections import Counter

    from .distributed import broadcast_dataset

    def partial_counts(batch: pa.Table) -> pa.Table:
        c = Counter(_batch_tokens(batch.column(text_col)))
        n = sum(c.values())
        return pa.table({
            "token": pa.array([_N_TOKENS_SENTINEL] + list(c.keys()),
                              type=pa.string()),
            "count": pa.array([n] + list(c.values()), type=pa.int64())})

    count_ds = ds.map_batches(partial_counts, batch_format="pyarrow") \
        .groupby("token").sum("count")
    return broadcast_dataset(count_ds.map_batches(
        lambda b: pa.table({"token": b.column("token"),
                            "count": pc.cast(b.column("sum(count)"),
                                             pa.int64())}),
        batch_format="pyarrow"))


def unigram_logprob(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Per-doc mean log-likelihood under the corpus's OWN unigram model —
    the KenLM-style quality-filter signal (CCNet/LLaMA data pipelines score
    docs by LM perplexity and keep the fluent band; a unigram model is the
    self-contained, oracle-exact analog): for each doc,
        unigram_logprob = avg over tokens of ln(count(token) / total_tokens)
    with counts from the WHOLE corpus -> Dataset of
    (id_col, n_tokens, unigram_logprob). Empty docs emit nothing. The mean
    is a RAW double; consumers comparing against a SQL AVG (different
    summation order) should round both sides (__ray_entry__._round_cols).

    100-TB shape — same two-pass statistic-then-stream as tfidf_top_terms:
    pass 1 builds (token, count) from per-batch Counter partials (shuffle
    volume = vocabulary x batches, never corpus tokens) and carries the
    corpus token total as a sentinel partial; the vocabulary-sized table is
    BROADCAST (block refs, dict once per worker); pass 2 streams the corpus
    once, scoring inside the batch with libm ln. No corpus-sized shuffle."""
    import math

    from .distributed import _get_broadcast_dict

    schema = ds.schema()
    id_type = schema.types[schema.names.index(id_col)]
    count_refs = _token_count_refs(ds, text_col)

    def score(batch: pa.Table) -> pa.Table:
        cmap = _get_broadcast_dict(count_refs, "token", "count")
        n_total = float(cmap[_N_TOKENS_SENTINEL])
        out_id, out_n, out_lp = [], [], []
        for d, toks in zip(batch.column(id_col).to_pylist(),
                           _doc_tokens(batch.column(text_col))):
            if not toks:
                continue
            acc = 0.0
            for tok in toks:
                c = cmap.get(tok)
                if c is None:
                    raise ValueError(
                        f"unigram_logprob: token {tok!r} of doc {d!r} is "
                        f"absent from the count pass — the input dataset's "
                        f"lineage produced different rows on re-execution; "
                        f"materialize a deterministic input first")
                acc += math.log(c / n_total)
            out_id.append(d)
            out_n.append(len(toks))
            out_lp.append(acc / len(toks))
        return pa.table({
            id_col: pa.array(out_id, type=id_type),
            "n_tokens": pa.array(out_n, type=pa.int64()),
            "unigram_logprob": pa.array(out_lp, type=pa.float64())})

    return ds.map_batches(score, batch_format="pyarrow")


# PII patterns (RE2-compatible — the same source strings run under Arrow's
# RE2 kernels here and DuckDB's RE2 regexp_replace in the oracle)
PII_EMAIL_RE = r"[a-z0-9._%+-]+@[a-z0-9.-]+\.[a-z]{2,}"
PII_LONG_DIGITS_RE = r"[0-9]{7,}"


def redact_pii(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Redact emails then long digit runs (phone/account-number shaped),
    fully inside Arrow RE2 kernels: counts first (n_emails on the raw text,
    n_numbers on the email-redacted text so digits inside an address aren't
    double-counted), then the two replacements. Adds clean_text, n_emails,
    n_numbers."""
    texts = pc.fill_null(batch.column(text_col), "")
    n_emails = pc.cast(
        pc.count_substring_regex(texts, pattern=PII_EMAIL_RE), pa.int64())
    no_email = pc.replace_substring_regex(
        texts, pattern=PII_EMAIL_RE, replacement="<EMAIL>")
    n_numbers = pc.cast(
        pc.count_substring_regex(no_email, pattern=PII_LONG_DIGITS_RE),
        pa.int64())
    clean = pc.replace_substring_regex(
        no_email, pattern=PII_LONG_DIGITS_RE, replacement="<NUMBER>")
    out = batch.append_column("clean_text", clean)
    out = out.append_column("n_emails", n_emails)
    return out.append_column("n_numbers", n_numbers)


# ---- Dataset-level wrappers ----

def analyze_text(ds, text_col: str = "text", ops=("language", "tokens", "quality", "fingerprint")):
    """Chain the selected text ops as vectorized map_batches stages."""
    if "language" in ops:
        ds = ds.map_batches(lambda b: language_id(b, text_col), batch_format="pyarrow")
    if "tokens" in ops:
        ds = ds.map_batches(lambda b: token_counts(b, text_col), batch_format="pyarrow")
    if "quality" in ops:
        ds = ds.map_batches(lambda b: quality_score(b, text_col), batch_format="pyarrow")
    if "fingerprint" in ops:
        ds = ds.map_batches(lambda b: fingerprint(b, text_col), batch_format="pyarrow")
    return ds


# ---- Cross-corpus duplicate-chunk removal (paragraph-level dedup) ----

def _doc_chunks(text: str, chunk_words: int) -> list:
    """Fixed non-overlapping word blocks — ''.split(' ') == [''] matches SQL
    string_split(text, ' ') on empty text, so both sides chunk identically."""
    words = (text or "").split(" ")
    return [" ".join(words[i:i + chunk_words])
            for i in range(0, len(words), chunk_words)]


def _bucket_from_key128(keys, buckets: int) -> np.ndarray:
    """Bucket of a fixed_size_binary(16) gram key = first 64-bit half mod
    buckets — identical to the bucket _gram_hash128 assigned the original
    string, so key-only tables co-partition with string-derived tables.
    Accepts Array or ChunkedArray; honors a sliced array's offset (its data
    buffer is the parent's)."""
    if isinstance(keys, pa.ChunkedArray):
        keys = keys.combine_chunks()
    n = len(keys)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    data = np.frombuffer(keys.buffers()[1], dtype="<u8",
                         offset=keys.offset * 16, count=n * 2).reshape(n, 2)
    return (data[:, 0] % np.uint64(buckets)).astype(np.int64)


def chunk_dedup(ds, text_col: str = "text", id_col: str = "doc_id",
                chunk_words: int = 3, min_docs: int = 2,
                broadcast_limit: int = 2_000_000, buckets: int | None = None):
    """Cross-corpus duplicate-span removal, the fixed-block analog of
    paragraph/line-level dedup (CCNet drops lines repeated across documents;
    Lee et al. 2021 deduplicate repeated training-data substrings): each doc
    splits into consecutive `chunk_words`-word blocks, a block whose exact
    text occurs in >= `min_docs` DISTINCT docs corpus-wide is boilerplate and
    is removed -> Dataset of (id_col, clean_text, removed_chunks,
    total_chunks); clean_text is NULL when every block of a doc is removed.

    100-TB shape — heavy-hitter statistic, then one streaming rewrite:
    pass 1 counts docs per chunk from per-batch partials (distinct chunks
    within a doc counted once), exchanged as slim 128-bit chunk hashes
    (fixed_size_binary(16) via _gram_hash128 — never the chunk strings) into
    coarse hash buckets; each bucket sums locally and emits only the FREQUENT
    keys (>= min_docs). Real-corpus boilerplate follows a power law, so the
    frequent set is orders of magnitude smaller than the distinct-chunk set.
    Pass 2 is dual-path like decontaminate:
    - frequent set <= broadcast_limit (common): broadcast the 16-byte keys,
      one streaming map_batches rewrites every doc — zero further shuffle;
    - beyond: slim (chunk_h, doc, ord) instance rows co-partition with the
      frequent keys on the chunk-hash bucket, buckets emit hit (doc, ord)
      pairs, and one doc-id-bucket co-partition joins the hit ords back to
      the doc rows for the rewrite — text rides the shuffle exactly once.
    Two DIFFERENT chunks share a 128-bit key with P ~ 2^-128 (documented
    collision bound, same as the decontamination gram keys)."""
    from collections import Counter

    from .distributed import (_get_broadcast_set, _hash_bucket_array,
                              default_reduce_buckets)

    if min_docs < 2:
        raise ValueError(f"chunk_dedup: min_docs must be >= 2 (a block is "
                         f"always frequent to itself), got {min_docs}")
    if buckets is None:
        buckets = default_reduce_buckets()
    schema = ds.schema()
    id_type = schema.types[schema.names.index(id_col)]

    def partial_counts(batch: pa.Table) -> pa.Table:
        cnt = Counter()
        for t in batch.column(text_col).to_pylist():
            for ch in set(_doc_chunks(t, chunk_words)):
                cnt[ch] += 1
        kh, bk = _gram_hash128(list(cnt.keys()), buckets)
        return pa.table({
            "chunk_h": kh,
            "bucket": pa.array(bk, type=pa.int64()),
            "ndocs": pa.array(list(cnt.values()), type=pa.int64())})

    def bucket_frequent(group: pa.Table) -> pa.Table:
        agg = group.group_by("chunk_h").aggregate([("ndocs", "sum")])
        freq = agg.filter(
            pc.greater_equal(agg.column("ndocs_sum"), min_docs))
        return pa.table({"chunk_h": freq.column("chunk_h")})

    freq_mat = ds.map_batches(partial_counts, batch_format="pyarrow") \
        .groupby("bucket").map_groups(bucket_frequent,
                                      batch_format="pyarrow").materialize()

    def rebuild_rows(ids, texts, is_dup_of):
        """Shared rewrite: is_dup_of(doc_index, flat_chunk_slice) -> bool[]"""
        out_text, out_rem, out_tot = [], [], []
        per_doc = [_doc_chunks(t, chunk_words) for t in texts]
        for i, chs in enumerate(per_doc):
            dup = is_dup_of(i, chs)
            kept = [c for c, d in zip(chs, dup) if not d]
            out_tot.append(len(chs))
            out_rem.append(len(chs) - len(kept))
            out_text.append(" ".join(kept) if kept else None)
        return pa.table({
            id_col: pa.array(ids, type=id_type),
            "clean_text": pa.array(out_text, type=pa.string()),
            "removed_chunks": pa.array(out_rem, type=pa.int64()),
            "total_chunks": pa.array(out_tot, type=pa.int64())})

    if freq_mat.count() <= broadcast_limit:
        from .distributed import _pin
        _pin(freq_mat)
        freq_refs = tuple(freq_mat.to_arrow_refs())

        def rewrite(batch: pa.Table) -> pa.Table:
            fset = _get_broadcast_set(freq_refs, "chunk_h")
            texts = batch.column(text_col).to_pylist()
            per_doc = [_doc_chunks(t, chunk_words) for t in texts]
            flat = [c for chs in per_doc for c in chs]
            kh, _ = _gram_hash128(flat, 1)
            khl = kh.to_pylist()
            offsets = np.cumsum([0] + [len(chs) for chs in per_doc])

            def is_dup(i, chs):
                return [h in fset for h in khl[offsets[i]:offsets[i + 1]]]

            return rebuild_rows(batch.column(id_col).to_pylist(), texts,
                                is_dup)

        return ds.map_batches(rewrite, batch_format="pyarrow")

    # --- shuffle path: frequent set too large to broadcast ---
    def instance_rows(batch: pa.Table) -> pa.Table:
        ids, ords, chs = [], [], []
        for d, t in zip(batch.column(id_col).to_pylist(),
                        batch.column(text_col).to_pylist()):
            for j, ch in enumerate(_doc_chunks(t, chunk_words)):
                ids.append(d)
                ords.append(j)
                chs.append(ch)
        kh, bk = _gram_hash128(chs, buckets)
        return pa.table({
            "chunk_h": kh,
            "doc": pa.array(ids, type=id_type),
            "ord": pa.array(ords, type=pa.int64()),
            "is_freq": pa.array(np.zeros(len(ids), dtype=np.int8)),
            "bucket": pa.array(bk, type=pa.int64())})

    def tag_frequent(batch: pa.Table) -> pa.Table:
        kh = batch.column("chunk_h").combine_chunks()
        bk = _bucket_from_key128(kh, buckets)
        n = len(kh)
        return pa.table({
            "chunk_h": kh,
            "doc": pa.nulls(n, type=id_type),
            "ord": pa.nulls(n, type=pa.int64()),
            "is_freq": pa.array(np.ones(n, dtype=np.int8)),
            "bucket": pa.array(bk, type=pa.int64())})

    def bucket_hits(group: pa.Table) -> pa.Table:
        is_f = pc.equal(group.column("is_freq"), 1)
        freq = group.filter(is_f).column("chunk_h").combine_chunks()
        inst = group.filter(pc.invert(is_f))
        if len(freq) == 0 or inst.num_rows == 0:
            return pa.table({"doc": pa.array([], type=id_type),
                             "ord": pa.array([], type=pa.int64())})
        hits = inst.filter(pc.is_in(inst.column("chunk_h"), value_set=freq))
        return pa.table({"doc": hits.column("doc"),
                         "ord": hits.column("ord")})

    hit_pairs = ds.map_batches(instance_rows, batch_format="pyarrow") \
        .union(freq_mat.map_batches(tag_frequent, batch_format="pyarrow")) \
        .groupby("bucket").map_groups(bucket_hits, batch_format="pyarrow")

    # join the hit (doc, ord) pairs back onto the doc rows: one doc-id-hash
    # co-partition; the doc text rides this single shuffle and nothing else
    def docs_tagged(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col)
        return pa.table({
            "doc": ids,
            "text_p": batch.column(text_col),
            "ord": pa.nulls(batch.num_rows, type=pa.int64()),
            "is_pair": pa.array(np.zeros(batch.num_rows, dtype=np.int8)),
            "bucket": _hash_bucket_array(ids.to_pylist(), buckets)})

    def pairs_tagged(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc")
        return pa.table({
            "doc": ids,
            "text_p": pa.nulls(batch.num_rows, type=pa.string()),
            "ord": batch.column("ord"),
            "is_pair": pa.array(np.ones(batch.num_rows, dtype=np.int8)),
            "bucket": _hash_bucket_array(ids.to_pylist(), buckets)})

    def bucket_rewrite(group: pa.Table) -> pa.Table:
        is_p = pc.equal(group.column("is_pair"), 1)
        pairs = group.filter(is_p)
        docs = group.filter(pc.invert(is_p))
        removed: dict = {}
        for d, o in zip(pairs.column("doc").to_pylist(),
                        pairs.column("ord").to_pylist()):
            removed.setdefault(d, set()).add(o)
        ids = docs.column("doc").to_pylist()
        texts = docs.column("text_p").to_pylist()

        def is_dup(i, chs):
            gone = removed.get(ids[i], ())
            return [j in gone for j in range(len(chs))]

        return rebuild_rows(ids, texts, is_dup)

    return ds.select_columns([id_col, text_col]) \
        .map_batches(docs_tagged, batch_format="pyarrow") \
        .union(hit_pairs.map_batches(pairs_tagged, batch_format="pyarrow")) \
        .groupby("bucket").map_groups(bucket_rewrite, batch_format="pyarrow")


# ---- DSIR importance scoring (target-domain data selection) ----

def dsir_logratio(ds, target_ds, text_col: str = "text",
                  id_col: str = "doc_id"):
    """DSIR (Xie et al. 2023, arXiv:2302.03169) importance score: rank
    general-corpus docs by how target-domain-like they are under bag-of-words
    language models —
        score(doc) = avg over tokens of [ ln p_target(tok) - ln p_corpus(tok) ]
    with p_corpus(tok) = count_corpus(tok) / total_corpus (every scored token
    exists in the corpus by construction) and p_target Laplace-smoothed over
    the CORPUS vocabulary, p_target(tok) = (count_target(tok) + 1) /
    (total_target + V_corpus), so unseen-in-target tokens penalize instead of
    zeroing -> Dataset of (id_col, n_tokens, dsir_logratio). Empty docs emit
    nothing. Raw doubles sum in document order on both engine and SQL sides
    only after an AVG whose order differs — consumers compare ROUND'ed
    (same convention as unigram_logprob).

    100-TB shape — two vocabulary-sized statistics, then one streaming pass:
    both LMs build from per-batch Counter partials (shuffle volume =
    vocabulary x blocks, never corpus tokens; the target side is typically
    tiny), broadcast as (token -> count) dicts built once per worker, and
    the corpus streams through a single scored map_batches. No corpus-sized
    shuffle."""
    import math

    from .distributed import _get_broadcast_dict

    schema = ds.schema()
    id_type = schema.types[schema.names.index(id_col)]
    corpus_refs = _token_count_refs(ds, text_col)
    target_refs = _token_count_refs(target_ds, text_col)

    def score(batch: pa.Table) -> pa.Table:
        cmap = _get_broadcast_dict(corpus_refs, "token", "count")
        tmap = _get_broadcast_dict(target_refs, "token", "count")
        n_corpus = float(cmap[_N_TOKENS_SENTINEL])
        n_target = float(tmap.get(_N_TOKENS_SENTINEL, 0))
        v_corpus = float(len(cmap) - 1)
        denom_t = n_target + v_corpus
        out_id, out_n, out_s = [], [], []
        for d, toks in zip(batch.column(id_col).to_pylist(),
                           _doc_tokens(batch.column(text_col))):
            if not toks:
                continue
            acc = 0.0
            for tok in toks:
                cc = cmap.get(tok)
                if cc is None:
                    raise ValueError(
                        f"dsir_logratio: token {tok!r} of doc {d!r} absent "
                        f"from the corpus count pass — non-deterministic "
                        f"upstream lineage; materialize the input first")
                tc = tmap.get(tok, 0)
                acc += (math.log((tc + 1) / denom_t)
                        - math.log(cc / n_corpus))
            out_id.append(d)
            out_n.append(len(toks))
            out_s.append(acc / len(toks))
        return pa.table({
            id_col: pa.array(out_id, type=id_type),
            "n_tokens": pa.array(out_n, type=pa.int64()),
            "dsir_logratio": pa.array(out_s, type=pa.float64())})

    return ds.map_batches(score, batch_format="pyarrow")


def blocklist_flags(ds, terms, text_col: str = "text",
                    id_col: str = "doc_id"):
    """C4-style blocklist filter signal: flag every doc whose TOKEN set
    ([a-z0-9]+ of the lowered text — word-boundary semantics, 'class' never
    matches inside 'classification') intersects `terms` -> Dataset of
    (id_col, blocked 0/1). The blocklist is tiny and rides the task spec;
    one streaming map_batches, zero shuffle. Probing is a per-doc set
    intersection against a frozenset — the same shape as the
    decontamination broadcast path at n=1."""
    tset = frozenset(t.lower() for t in terms)
    if not tset:
        raise ValueError("blocklist_flags: empty blocklist — flagging "
                         "nothing is almost certainly a caller bug")

    def probe(batch: pa.Table) -> pa.Table:
        flags = np.empty(batch.num_rows, dtype=np.int64)
        for i, toks in enumerate(_doc_tokens(batch.column(text_col))):
            flags[i] = int(not tset.isdisjoint(toks))
        return pa.table({id_col: batch.column(id_col),
                         "blocked": pa.array(flags)})

    return ds.map_batches(probe, batch_format="pyarrow")
