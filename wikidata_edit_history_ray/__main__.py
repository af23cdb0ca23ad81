"""CLI entry point — the `ray job submit` surface.

    # full change-history extraction (all tables, resumable):
    ray job submit -- python -m wikidata_edit_history_ray extract \
        --input /data/docs --output /data/kg_out [--aux-dir AUX]

    # second-pass enrichment (closures + labels + embedding cosines):
    python -m wikidata_edit_history_ray enrich --output /data/kg_out \
        [--closure-dir DIR]

    # generate a deterministic synthetic corpus:
    python -m wikidata_edit_history_ray gen-corpus --path /tmp/docs --docs 10000

Standalone runs own their Ray session (guarded init); when the caller has
already initialised Ray, the existing session is reused.
"""
from __future__ import annotations

import argparse
import json
import sys


def _ensure_ray():
    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False, log_to_driver=False)
    return ray


def _load_config(path):
    """DiffConfig kwargs from a JSON or YAML file. A reference-style setup.yml
    is accepted directly: its change_extraction_filters section maps onto
    DiffConfig.class_filters, language/re_interpretation/time threshold map
    onto the matching kwargs."""
    if not path:
        return None
    with open(path) as f:
        if path.endswith((".yml", ".yaml")):
            import yaml

            raw = yaml.safe_load(f)
        else:
            raw = json.load(f)
    from .core.differ import DiffConfig

    known = set(DiffConfig().__dict__)
    if set(raw) <= known:
        return DiffConfig.from_dict(raw)
    # reference setup.yml shape
    kwargs = {}
    if "change_extraction_filters" in raw:
        kwargs["class_filters"] = raw["change_extraction_filters"]
    proc = raw.get("change_extraction_processing", {})
    if "language" in proc:
        kwargs["language"] = proc["language"]
    if "re_interpretation" in raw:
        kwargs["re_interpretation"] = raw["re_interpretation"]
    thr = raw.get("reverted_edit_tagging", {}).get("time_threshold_seconds")
    if thr is not None:
        kwargs["revert_time_threshold_seconds"] = thr
    return DiffConfig(**kwargs)


def cmd_extract(args):
    ray = _ensure_ray()
    from .pipelines.kg import run_extraction
    from .sources.io import load_aux_tables

    property_labels, sa_types, ao_types = ({}, set(), set())
    if args.aux_dir:
        property_labels, sa_types, ao_types = load_aux_tables(args.aux_dir)
    manifest = run_extraction(
        args.input, args.output, config=_load_config(args.config),
        property_labels=property_labels,
        sa_types=sa_types, ao_types=ao_types,
        target_rows_per_partition=args.partition_rows)
    rows = manifest.take_all()
    resumed = sum(1 for r in rows if r["resumed"])
    print(json.dumps({
        "partitions": len(rows), "resumed": resumed,
        "docs": sum(r["num_docs"] for r in rows),
        "extract_seconds": round(sum(r["extract_seconds"] for r in rows), 2),
    }))
    ray.shutdown()


def cmd_enrich(args):
    ray = _ensure_ray()
    from .pipelines.kg import run_enrichment

    res = run_enrichment(args.output, closure_dir=args.closure_dir,
                         labels_dir=args.labels_dir, embedder=args.embedder,
                         num_gpus=args.num_gpus)
    print(json.dumps(res))
    ray.shutdown()


def cmd_ingest(args):
    """XML dump files -> sharded interleaved-doc parquet table."""
    import glob as _glob

    ray = _ensure_ray()
    from .sources.xml_ingest import ingest_dumps

    paths = sorted(p for pat in args.dumps for p in _glob.glob(pat))
    if not paths:
        raise SystemExit(f"no dump files match {args.dumps}")
    n = ingest_dumps(paths, output_dir=args.output,
                     max_docs_per_chunk=args.chunk_docs).count()
    print(json.dumps({"files": len(paths), "docs": n, "output": args.output}))
    ray.shutdown()


def cmd_extract_labels(args):
    """Entity-JSON dumps -> label/property dimension (S8 parity:
    wdtk/ExtractLabelsProperties.java as a Ray pipeline). --format csv emits
    the two reference-shaped CSVs; --format partitioned lays the entity
    labels out as the hash-partitioned J3 join dimension."""
    import glob as _glob

    ray = _ensure_ray()
    from .sources.labels_dump import (ingest_labels, labels_to_partitioned,
                                      write_labels_csv)

    paths = sorted(p for pat in args.dumps for p in _glob.glob(pat))
    if not paths:
        raise SystemExit(f"no dump files match {args.dumps}")
    ds = ingest_labels(paths, language=args.language)
    if args.format == "partitioned":
        out = {"labels_dir": labels_to_partitioned(ds, args.output,
                                                   buckets=args.buckets)}
    else:
        out = write_labels_csv(ds, args.output)
    print(json.dumps({"files": len(paths), **out}))
    ray.shutdown()


def cmd_gen_corpus(args):
    from .sources.corpus import write_corpus_parquet

    if args.chunk_docs:
        _ensure_ray()  # chunked generation parallelizes as Ray tasks
    path = write_corpus_parquet(
        args.path, args.docs, seed=args.seed,
        hot_doc_revisions=args.hot_revisions,
        hot_doc_every=args.hot_every or 0,
        chunk_docs=args.chunk_docs)
    print(json.dumps({"path": path, "docs": args.docs}))


def main(argv=None):
    p = argparse.ArgumentParser(prog="wikidata_edit_history_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    e = sub.add_parser("extract", help="run the KG change-history extraction")
    e.add_argument("--input", required=True)
    e.add_argument("--output", required=True)
    e.add_argument("--aux-dir", default=None)
    e.add_argument("--config", default=None,
                   help="DiffConfig JSON or reference-style setup.yml")
    e.add_argument("--partition-rows", type=int, default=None,
                   help="coalesce row groups into ~N-row resume partitions "
                        "(default: one partition per row group)")
    e.set_defaults(fn=cmd_extract)

    n = sub.add_parser("enrich", help="second-pass feature enrichment")
    n.add_argument("--output", required=True)
    n.add_argument("--closure-dir", default=None)
    n.add_argument("--labels-dir", default=None,
                   help="hash-partitioned label dimension (partition_entity_labels)")
    n.add_argument("--embedder", default=None,
                   help="make_embedder spec, e.g. st:all-MiniLM-L6-v2")
    n.add_argument("--num-gpus", type=float, default=None)
    n.set_defaults(fn=cmd_enrich)

    i = sub.add_parser("ingest", help="XML dumps -> interleaved-doc table")
    i.add_argument("--dumps", nargs="+", required=True,
                   help="dump file paths/globs (*.xml[.bz2])")
    i.add_argument("--output", required=True)
    i.add_argument("--chunk-docs", type=int, default=2000)
    i.set_defaults(fn=cmd_ingest)

    x = sub.add_parser("extract-labels",
                       help="entity-JSON dumps -> label/property dimension")
    x.add_argument("--dumps", nargs="+", required=True,
                   help="glob(s) of latest-all.json[.bz2]-shaped dumps")
    x.add_argument("--output", required=True)
    x.add_argument("--language", default="en")
    x.add_argument("--format", choices=("csv", "partitioned"), default="csv")
    x.add_argument("--buckets", type=int, default=32)
    x.set_defaults(fn=cmd_extract_labels)

    g = sub.add_parser("gen-corpus", help="deterministic synthetic corpus")
    g.add_argument("--path", required=True)
    g.add_argument("--docs", type=int, default=1000)
    g.add_argument("--seed", type=int, default=42)
    g.add_argument("--hot-revisions", type=int, default=0)
    g.add_argument("--hot-every", type=int, default=0)
    g.add_argument("--chunk-docs", type=int, default=None,
                   help="chunked (Ray-parallel) generation for huge corpora")
    g.set_defaults(fn=cmd_gen_corpus)

    args = p.parse_args(argv)
    args.fn(args)


if __name__ == "__main__":
    main(sys.argv[1:])
