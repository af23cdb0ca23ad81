"""Seeded benchmark inputs, their ground truth, and the on-disk input cache.

Every workload is a pure function of (workload, size, seed). The program under
test only ever sees the parquet files written here; the ground truth comes from
the generator's own expectation records (`EntitySim.expected_value_changes`,
`EntitySim.expected_triples`), never from the engine.

Inputs are cached under `<checkout>/.bench_cache/`, keyed by the generator
parameters, the seed, and a hash of `sources/corpus.py` plus this file, so a
generator change can never silently reuse stale inputs.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import time

import pyarrow as pa
import pyarrow.parquet as pq

from wikidata_edit_history_ray.sources import corpus

# value_change key the P/R gate compares: the table's identity columns plus
# the action the generator recorded
VC_KEY = ("entity_id", "revision_id", "property_id", "value_id",
          "change_target", "action")
# primary key dedup_changes deduplicates on
DEDUP_PK = ["entity_id", "revision_id", "property_id", "value_id",
            "change_target"]
TRIPLE_KEY = ("subj", "pred", "value_id")

# Per-size generator parameters. "full" is the benchmark of record; "tiny" is
# the self-test size. Revision ids are qid * 1000 + n, so no entity may carry
# 1000 or more revisions.
SIZES = {
    "full": {
        "long_tail": {"docs": 1200, "min_revisions": 2, "max_revisions": 4,
                      "media_prob": 0.15, "shard_docs": 300,
                      "row_group": 100},
        "hot_entities": {"entities": 8, "revisions": 100, "statements": 160,
                         "row_group": 1},
    },
    "tiny": {
        "long_tail": {"docs": 60, "min_revisions": 2, "max_revisions": 4,
                      "media_prob": 0.15, "shard_docs": 30,
                      "row_group": 10},
        "hot_entities": {"entities": 3, "revisions": 12, "statements": 8,
                         "row_group": 1},
    },
}

_KEEP_CACHE_ENTRIES = 12


def _long_tail(seed: int, p: dict) -> list:
    rng = random.Random(seed)
    return [corpus.build_doc(f"Q{10 + i}", rng,
                             n_revisions=rng.randint(p["min_revisions"],
                                                     p["max_revisions"]),
                             media_prob=p["media_prob"])
            for i in range(p["docs"])]


def _hot_entity(qid: str, rng: random.Random, revisions: int,
                statements: int) -> corpus.EntitySim:
    """One high-edit entity: a wide first snapshot, then value updates, added
    statements and added qualifiers in fixed 3:1:1 proportions (shuffled by
    the seed), so that every seed carries the same amount of work."""
    sim = corpus.EntitySim(qid, rng, rev_base=int(qid[1:]) * 1000)
    pool = rng.choice([corpus.SA_TYPES, corpus.AO_TYPES, corpus.OTHER_TYPES])
    sim.op_create_entity(type_qids=[rng.choice(pool)],
                         n_statements=statements, label=f"Hot {qid}",
                         desc=f"hot entity {qid}")
    ops = [
        lambda: sim.op_update_value(
            username=rng.choice(["Alice", "FixBot", ""])),
        lambda: sim.op_add_statement(with_qualifier=rng.random() < 0.3,
                                     with_reference=rng.random() < 0.3),
        lambda: sim.op_add_qualifier(),
    ]
    n = revisions - 1
    schedule = [0] * (n - 2 * (n // 5)) + [1] * (n // 5) + [2] * (n // 5)
    rng.shuffle(schedule)
    for op in schedule:
        ops[op]()
    return sim


def _hot_entities(seed: int, p: dict) -> list:
    rng = random.Random(seed)
    return [_hot_entity(f"Q{10 + i}", rng, p["revisions"], p["statements"])
            for i in range(p["entities"])]


_BUILDERS = {"long_tail": _long_tail, "hot_entities": _hot_entities}


def _source_hash() -> str:
    h = hashlib.sha1()
    for path in (corpus.__file__, __file__):
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:12]


def cache_key(workload: str, size: str, seed: int) -> str:
    params = json.dumps(SIZES[size][workload], sort_keys=True)
    digest = hashlib.sha1(
        f"{workload}|{size}|{seed}|{params}|{_source_hash()}".encode()
    ).hexdigest()[:16]
    return f"{workload}-{size}-s{seed}-{digest}"


def _write(sims: list, p: dict, root: str) -> dict:
    docs_dir = os.path.join(root, "docs")
    os.makedirs(docs_dir)
    table = pa.Table.from_pydict(
        {"doc_id": [s.qid for s in sims], "spans": [s.spans for s in sims]},
        schema=corpus.DOCS_SCHEMA)
    per = p.get("shard_docs") or table.num_rows
    for i, start in enumerate(range(0, table.num_rows, per)):
        pq.write_table(table.slice(start, per),
                       os.path.join(docs_dir, f"shard-{i:05d}.parquet"),
                       row_group_size=p["row_group"])
    vc = [dict(e, entity_id=int(s.qid[1:])) for s in sims
          for e in s.expected_value_changes]
    pq.write_table(pa.Table.from_pylist(
        [{k: r[k] for k in VC_KEY} for r in vc],
        schema=pa.schema([("entity_id", pa.int64()),
                          ("revision_id", pa.int64()),
                          ("property_id", pa.int32()),
                          ("value_id", pa.string()),
                          ("change_target", pa.string()),
                          ("action", pa.string())])),
        os.path.join(root, "truth_value_change.parquet"))
    pq.write_table(pa.Table.from_pylist(
        [t for s in sims for t in s.expected_triples()],
        schema=pa.schema([("subj", pa.int64()), ("pred", pa.int32()),
                          ("value_id", pa.string())])),
        os.path.join(root, "truth_triples.parquet"))
    spans = [sp for s in sims for sp in s.spans]
    text_spans = sum(1 for sp in spans if sp["kind"] == "text")
    return {
        "docs": len(sims),
        "spans": len(spans),
        "text_spans": text_spans,
        "media_spans": len(spans) - text_spans,
        "input_bytes": sum(os.path.getsize(os.path.join(docs_dir, f))
                           for f in os.listdir(docs_dir)),
        "row_group": p["row_group"],
    }


class Inputs:
    """One workload's materialized input: the docs directory the program
    reads, plus the generator's ground truth (loaded lazily)."""

    def __init__(self, root: str, meta: dict, gen_s: float, cached: bool):
        self.root = root
        self.docs_dir = os.path.join(root, "docs")
        self.meta = meta
        self.gen_s = gen_s
        self.cached = cached

    def truth_value_change(self) -> set:
        t = pq.read_table(os.path.join(self.root,
                                       "truth_value_change.parquet"))
        return set(zip(*(t.column(c).to_pylist() for c in VC_KEY)))

    def truth_triples(self) -> set:
        t = pq.read_table(os.path.join(self.root, "truth_triples.parquet"))
        return set(zip(*(t.column(c).to_pylist() for c in TRIPLE_KEY)))


def materialize(workload: str, size: str, seed: int, cache_dir: str) -> Inputs:
    """Generate (or reuse) the workload's input. Writes go to a temporary
    directory that is renamed into place, so an interrupted run never leaves
    a half-written cache entry."""
    root = os.path.join(cache_dir, cache_key(workload, size, seed))
    meta_path = os.path.join(root, "meta.json")
    if os.path.exists(meta_path):
        with open(meta_path) as f:
            meta = json.load(f)
        os.utime(root)
        return Inputs(root, meta, 0.0, cached=True)
    t0 = time.perf_counter()
    p = SIZES[size][workload]
    tmp = f"{root}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    meta = _write(_BUILDERS[workload](seed, p), p, tmp)
    with open(os.path.join(tmp, "meta.json"), "w") as f:
        json.dump(meta, f)
    os.replace(tmp, root)
    _prune(cache_dir)
    return Inputs(root, meta, time.perf_counter() - t0, cached=False)


def _prune(cache_dir: str):
    """Keep the most recently used entries only."""
    entries = [os.path.join(cache_dir, d) for d in os.listdir(cache_dir)
               if os.path.exists(os.path.join(cache_dir, d, "meta.json"))]
    entries.sort(key=os.path.getmtime, reverse=True)
    for old in entries[_KEEP_CACHE_ENTRIES:]:
        shutil.rmtree(old, ignore_errors=True)
