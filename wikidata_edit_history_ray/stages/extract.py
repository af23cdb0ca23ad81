"""The change-extraction stage: per-doc diffing inside `map_batches`.

`ChangeExtractor` is a callable class whose instance is passed to
``ds.map_batches(..., batch_format="pyarrow")``: it pickles into each task,
and its per-worker setup (differ construction, ``ray.get`` of the broadcast
aux tables) runs lazily, once per worker process, mirroring the reference's
per-process CSV dict loading (scripts/file_parser.py:84-88) without
re-shipping state per batch.

All diff state is per-document, so extraction is embarrassingly parallel and
needs no shuffle; doc-level skew (hot entities with tens of thousands of
revisions) surfaces as long tasks, absorbed by task waves over many input
blocks.
"""
from __future__ import annotations

import hashlib
import json
import time

import pyarrow as pa

from ..core.constants import TABLE_COLS
from ..core.differ import DiffConfig, PageDiffer
from .schemas import ERRORS_SCHEMA, ROUTING_COLS, TABLE_SCHEMAS

_ROUTING_NAMES = [name for name, _ in ROUTING_COLS]


def resolve_filesystem(path):
    """(pyarrow FileSystem, fs-internal path) for a path or URI. Bare paths
    resolve to LocalFileSystem, `file://` / `s3://` / any pyarrow-registered
    scheme to that filesystem — the location transparency the reference got
    from its Postgres sink (scripts/utils.py:151-241)."""
    from pyarrow import fs as pafs

    p = str(path)
    if "://" in p:
        return pafs.FileSystem.from_uri(p)
    return pafs.LocalFileSystem(), p


def _fs_exists(fs, path: str) -> bool:
    from pyarrow import fs as pafs

    return fs.get_file_info(path).type != pafs.FileType.NotFound


_BROADCAST_CACHE: dict = {}


def _maybe_get(obj):
    """Dereference a ray.put broadcast handle if one was passed; cached per
    worker process so task-based stages deserialize each broadcast object once
    per worker, not once per task."""
    try:
        import ray

        if isinstance(obj, ray.ObjectRef):
            key = obj.hex()
            if key not in _BROADCAST_CACHE:
                if len(_BROADCAST_CACHE) > 64:
                    _BROADCAST_CACHE.clear()
                _BROADCAST_CACHE[key] = ray.get(obj)
            return _BROADCAST_CACHE[key]
    except ImportError:
        pass
    return obj


def rows_to_table(table_name: str, rows: list, routing: list | None) -> pa.Table:
    """Column-ize emitted row tuples into a typed Arrow table.

    `routing` carries the per-row (doc_id, is_sa, is_ao, has_less) tuples for
    change tables; None for doc_spans.
    """
    schema = TABLE_SCHEMAS[table_name]
    ncols = len(TABLE_COLS[table_name])
    if rows:
        cols = list(zip(*rows))
    else:
        cols = [[] for _ in range(ncols)]
    if routing is not None:
        if routing:
            cols = cols + list(zip(*routing))
        else:
            cols = cols + [[] for _ in _ROUTING_NAMES]
    import pyarrow.compute as pc

    arrays = []
    for field, col in zip(schema, cols):
        if pa.types.is_string(field.type):
            try:
                arr = pa.array(col, type=pa.string())
            except (pa.ArrowInvalid, pa.ArrowTypeError, TypeError):
                # rare defensive path: a non-string slipped into a string
                # column (e.g. numeric user_id from odd input) — cast per value
                arr = pa.array(
                    [v if v is None or isinstance(v, str) else str(v)
                     for v in col], type=pa.string())
            if field.name in ("value_id", "change_target"):
                # PK components use the '' sentinel instead of NULL
                arr = pc.fill_null(arr, "")
            arrays.append(arr)
        else:
            arrays.append(pa.array(col, type=field.type))
    return pa.Table.from_arrays(arrays, schema=schema)


class ChangeExtractor:
    """Task stage: documents batch in → one logical table (or a tagged union
    of all tables) out.

    Parameters
    - config: DiffConfig kwargs dict
    - property_labels / sa_types / ao_types: plain objects or ray.put refs
    - emit: table name to emit ('value_change', ...), or 'all' for the
      multi-table dict used by the parquet multi-sink
    """

    def __init__(self, config: dict | None = None, property_labels=None,
                 sa_types=None, ao_types=None, emit: str = "value_change"):
        # broadcast handles resolve lazily (in the worker, once per process):
        # the pickled instance is dispatched task-by-task to Ray's
        # prestarted workers
        self._config = config or {}
        self._property_labels = property_labels
        self._sa_types = sa_types
        self._ao_types = ao_types
        self.differ = None
        self.emit = emit

    def _ensure_differ(self):
        if self.differ is None:
            self.differ = PageDiffer(
                DiffConfig.from_dict(self._config),
                property_labels=_maybe_get(self._property_labels) or {},
                scholarly_article_types=set(_maybe_get(self._sa_types) or ()),
                astronomical_object_types=set(_maybe_get(self._ao_types) or ()),
            )

    def extract_batch(self, batch: pa.Table, file_path: str = ""):
        """Diff every doc in the batch; returns ({table: pa.Table}, errors)."""
        self._ensure_differ()
        doc_ids = batch.column("doc_id").to_pylist()
        spans_col = batch.column("spans").to_pylist()
        buf = {t: [] for t in TABLE_COLS}
        routing = {t: [] for t in TABLE_COLS}
        errors = []
        max_spans = self.differ.cfg.max_spans_per_doc
        for doc_id, spans in zip(doc_ids, spans_col):
            if not doc_id or not doc_id.startswith("Q"):
                continue  # non-entity docs are filtered, like non-Q page titles
            if max_spans is not None and spans and len(spans) > max_spans:
                errors.append((doc_id,
                               f"WideDocSkipped: {len(spans)} spans > "
                               f"max_spans_per_doc={max_spans}"))
                continue
            try:
                out = self.differ.process_doc(doc_id, spans or [], file_path)
            except Exception as e:  # poison doc: route to error table, keep going
                errors.append((doc_id, f"{type(e).__name__}: {e}"))
                continue
            # per-class write gates (setup.yml semantics; the batch_insert
            # analog — scripts/db_writer.py:16-49)
            keep, keep_feats, keep_md = self.differ.cfg.write_gates(
                out["is_scholarly_article"], out["is_astronomical_object"],
                out["has_less_revisions"])
            if not keep:
                continue
            flag = (doc_id, out["is_scholarly_article"],
                    out["is_astronomical_object"], out["has_less_revisions"])
            for t in TABLE_COLS:
                if not keep_feats and t.startswith("features_"):
                    continue
                if not keep_md and t == "datatype_metadata_change":
                    continue
                rows = out[t]
                if rows:
                    buf[t].extend(rows)
                    if t != "doc_spans":
                        routing[t].extend([flag] * len(rows))
        tables = {
            t: rows_to_table(t, buf[t], None if t == "doc_spans" else routing[t])
            for t in TABLE_COLS
        }
        return tables, errors

    def __call__(self, batch: pa.Table) -> pa.Table:
        tables, errors = self.extract_batch(batch)
        if self.emit == "errors":
            return pa.Table.from_arrays(
                [pa.array([e[0] for e in errors], type=pa.string()),
                 pa.array([e[1] for e in errors], type=pa.string())],
                schema=ERRORS_SCHEMA)
        if errors:
            # single-table mode has no errors sink; surface the loss instead
            # of silently dropping poison/wide docs (use emit='errors' or the
            # multi-sink pipeline to persist them)
            import logging

            logging.getLogger(__name__).warning(
                "ChangeExtractor(emit=%r): %d doc(s) skipped with errors "
                "(first: %s) — errors only persist in multi-sink mode",
                self.emit, len(errors), errors[0])
        return tables[self.emit]


class MultiSinkExtractor(ChangeExtractor):
    """Extraction with fan-out parquet sinks + per-partition lineage manifest.

    The work unit is a DETERMINISTIC input partition — one (file, row-group)
    pair — not a Ray batch: Ray's block/batch boundaries vary run to run, so a
    batch-fingerprinted sink would both miss resume hits and leave stale part
    files behind (duplicate output rows). Each task receives a partition spec
    row, reads exactly that row group, diffs it, and writes every logical
    table to `<output_dir>/<table>/<partition_id>.parquet`. The returned batch
    is one manifest row per partition (input fingerprint, row counts,
    timings) — the tiny dataset the driver consumes, so the big outputs never
    transit the object store. A partition whose manifest file exists is
    skipped wholesale (resume path).

    `output_dir` (and spec input files) may be a local path OR any
    pyarrow-filesystem URI (`file://`, `s3://`, ...): on a multi-node
    cluster the sink writes to shared/object storage, not per-node disks.
    The commit point stays the manifest file: write-tmp-then-rename on
    filesystems with atomic rename (local), a single atomic PUT on object
    stores.
    """

    def __init__(self, output_dir: str, config: dict | None = None,
                 property_labels=None, sa_types=None, ao_types=None,
                 compression: str = "zstd"):
        super().__init__(config, property_labels, sa_types, ao_types, emit="all")
        self.output_dir = output_dir
        self.compression = compression
        self._fs = None  # resolved lazily, once per worker

    def _out_fs(self):
        if self._fs is None:
            self._fs = resolve_filesystem(self.output_dir)
        return self._fs

    def __call__(self, batch: pa.Table) -> pa.Table:
        import os

        import pyarrow.parquet as pq
        from pyarrow import fs as pafs

        fs, out_root = self._out_fs()
        atomic_rename = isinstance(fs, pafs.LocalFileSystem)
        rows = []
        for spec in batch.to_pylist():
            path, rg, num_rows = spec["file"], spec["row_group"], spec["num_rows"]
            n_rgs = spec.get("num_row_groups") or 1
            in_fs, in_path = resolve_filesystem(path)
            # content signal (file size) in the fingerprint: regenerating an
            # input in place with the same name/row-group layout but different
            # contents must NOT silently reuse stale partition outputs
            fsize = in_fs.get_file_info(in_path).size
            fingerprint = hashlib.sha1(
                f"{in_path.rsplit('/', 1)[-1]}:{rg}:{n_rgs}:{num_rows}:{fsize}"
                .encode()).hexdigest()[:16]
            part_id = f"part-{fingerprint}"
            manifest_dir = f"{out_root}/_manifest"
            manifest_path = f"{manifest_dir}/{part_id}.json"

            if _fs_exists(fs, manifest_path):
                with fs.open_input_stream(manifest_path) as f:
                    m = json.loads(f.read())
                m["resumed"] = True
                rows.append(m)
                continue

            t0 = time.time()
            docs = pq.ParquetFile(in_path, filesystem=in_fs).read_row_groups(
                list(range(rg, rg + n_rgs)))
            import pyarrow.compute as pc

            num_spans = int(pc.sum(pc.list_value_length(docs.column("spans"))).as_py() or 0)
            tables, errors = self.extract_batch(docs, file_path=part_id)
            extract_seconds = time.time() - t0

            t0 = time.time()
            rows_per_table = {}
            for name, table in tables.items():
                rows_per_table[name] = table.num_rows
                if table.num_rows == 0:
                    continue
                tdir = f"{out_root}/{name}"
                fs.create_dir(tdir, recursive=True)
                pq.write_table(table, f"{tdir}/{part_id}.parquet",
                               filesystem=fs, compression=self.compression)
            if errors:
                edir = f"{out_root}/errors"
                fs.create_dir(edir, recursive=True)
                pq.write_table(
                    rows_to_table_errors(errors),
                    f"{edir}/{part_id}.parquet",
                    filesystem=fs, compression=self.compression)
                rows_per_table["errors"] = len(errors)
            write_seconds = time.time() - t0

            m = {
                "partition_id": part_id,
                "input_fingerprint": fingerprint,
                "num_docs": docs.num_rows,
                "num_spans": num_spans,
                "rows_per_table": json.dumps(rows_per_table),
                "extract_seconds": extract_seconds,
                "write_seconds": write_seconds,
                "resumed": False,
            }
            fs.create_dir(manifest_dir, recursive=True)
            payload = json.dumps(m).encode()
            if atomic_rename:
                tmp = manifest_path + f".tmp{os.getpid()}"
                with fs.open_output_stream(tmp) as f:
                    f.write(payload)
                fs.move(tmp, manifest_path)  # atomic: manifest is the commit point
            else:
                # object stores: a single PUT is already atomic (no partial
                # objects are ever visible), so write the commit marker directly
                with fs.open_output_stream(manifest_path) as f:
                    f.write(payload)
            rows.append(m)
        return self._manifest_rows(rows)

    @staticmethod
    def _manifest_rows(ms: list) -> pa.Table:
        from .schemas import MANIFEST_SCHEMA

        return pa.Table.from_pylist(
            [{k: m.get(k) for k in MANIFEST_SCHEMA.names} for m in ms],
            schema=MANIFEST_SCHEMA)


def list_partition_specs(input_path: str,
                         target_rows_per_partition: int | None = None) -> list:
    """Deterministic partition list for a parquet file or directory. Cheap —
    reads only parquet footers.

    Default: one spec per (file, row_group) — the finest resume granularity.
    With target_rows_per_partition, CONSECUTIVE row groups of a file coalesce
    until the target: at corpus scale, row-group-sized partitions mean tens
    of thousands of small output files per table (write-bound); coarser
    partitions trade resume granularity for sink efficiency. Both shapes stay
    deterministic (pure function of the input footers).

    `input_path` may be a local path or a pyarrow-filesystem URI; spec file
    entries keep the URI scheme so downstream tasks re-resolve the same
    filesystem."""
    from pyarrow import fs as pafs
    import pyarrow.parquet as pq

    fs, root = resolve_filesystem(input_path)
    # keep the scheme prefix so spec['file'] round-trips through resolve;
    # from_uri normalizes (e.g. drops a trailing slash), so locate root
    # inside the original URI instead of suffix-matching it
    p = str(input_path)
    prefix = ""
    if "://" in p:
        i = p.find(root)
        prefix = p[:i] if i > 0 else p.split("://", 1)[0] + "://"
    info = fs.get_file_info(root)
    if info.type == pafs.FileType.Directory:
        sel = pafs.FileSelector(root)
        files = sorted(f.path for f in fs.get_file_info(sel)
                       if f.path.endswith(".parquet"))
    else:
        files = [root]
    specs = []
    for f in files:
        md = pq.read_metadata(f, filesystem=fs)
        pending, pending_rows = [], 0
        for rg in range(md.num_row_groups):
            pending.append(rg)
            pending_rows += md.row_group(rg).num_rows
            if (target_rows_per_partition is None
                    or pending_rows >= target_rows_per_partition
                    or rg == md.num_row_groups - 1):
                specs.append({"file": prefix + f, "row_group": pending[0],
                              "num_row_groups": len(pending),
                              "num_rows": pending_rows})
                pending, pending_rows = [], 0
    return specs


def rows_to_table_errors(errors) -> pa.Table:
    return pa.Table.from_arrays(
        [pa.array([e[0] for e in errors], type=pa.string()),
         pa.array([e[1] for e in errors], type=pa.string())],
        schema=ERRORS_SCHEMA)
