"""The change-extraction stage: deterministic input partitions in, the 12
change tables plus errors on storage out.

- `list_partition_specs`: the (file, row-group range) work units and their
  partition ids;
- `ChangeExtractor`: the task `pipelines.kg.run_extraction` maps over the
  specs that still need work; its `extract_batch` diffs a documents table
  and needs no Ray session;
- `read_manifests` / `run_key`: what the driver decides resume from.

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
from .schemas import (ERRORS_SCHEMA, MANIFEST_SCHEMA, ROUTING_COLS,
                      TABLE_SCHEMAS)

_ROUTING_NAMES = [name for name, _ in ROUTING_COLS]
_COMPRESSION = "zstd"
MANIFEST_DIR = "_manifest"
# default partition size, in uncompressed input bytes (`list_partition_specs`)
TARGET_PARTITION_BYTES = 32 << 20


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
    """The extraction task: partition specs in, change tables on storage out.

    `run_extraction` maps an instance over the partition specs that still
    need work (``map_batches(..., batch_size=1)``): it pickles into each
    task, and its per-worker setup (differ construction, ``ray.get`` of the
    broadcast aux tables, the output filesystem) runs lazily, once per worker
    process, mirroring the reference's per-process CSV dict loading
    (scripts/file_parser.py:84-88) without re-shipping state per batch.

    The work unit is a DETERMINISTIC input partition — consecutive row groups
    of one file — not a Ray batch: Ray's block/batch boundaries vary run to
    run, so a batch-keyed sink would duplicate output rows on a re-run. Each
    task reads its spec's row groups one at a time (one input row group in
    memory, however large the partition) and diffs each into Arrow tables.
    It then writes every non-empty table once, to
    `<output_dir>/<table>/<partition_id>.parquet`, and removes that file of
    every empty table, which an earlier attempt at the partition may have
    left. Last it commits `<output_dir>/_manifest/<partition_id>.json` and
    returns that manifest as one row, so the big outputs never transit the
    object store.

    `output_dir` (and spec input files) may be a local path OR any
    pyarrow-filesystem URI (`file://`, `s3://`, ...): on a multi-node
    cluster the sink writes to shared/object storage, not per-node disks.
    The commit point stays the manifest file: write-tmp-then-rename on
    filesystems with atomic rename (local), a single atomic PUT on object
    stores.

    Parameters
    - config: DiffConfig kwargs dict
    - property_labels / sa_types / ao_types: plain objects or ray.put refs
    - output_dir: where the tables and manifests go (unused by extract_batch)
    - run_key: recorded in each manifest (see `run_key`)
    """

    def __init__(self, config: dict | None = None, property_labels=None,
                 sa_types=None, ao_types=None, output_dir: str = "",
                 run_key: str = ""):
        self._config = config or {}
        self._property_labels = property_labels
        self._sa_types = sa_types
        self._ao_types = ao_types
        self.differ = None
        self.output_dir = output_dir
        self.run_key = run_key
        self._fs = None

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

    def _out_fs(self):
        if self._fs is None:
            self._fs = resolve_filesystem(self.output_dir)
        return self._fs

    def __call__(self, batch: pa.Table) -> pa.Table:
        return pa.Table.from_pylist(
            [self._extract_partition(spec) for spec in batch.to_pylist()],
            schema=MANIFEST_SCHEMA)

    def _extract_partition(self, spec: dict) -> dict:
        import os

        import pyarrow.compute as pc
        import pyarrow.parquet as pq
        from pyarrow import fs as pafs

        fs, out_root = self._out_fs()
        part_id, rg = spec["partition_id"], spec["row_group"]
        in_fs, in_path = resolve_filesystem(spec["file"])

        # one input row group in memory at a time, whatever the partition size
        t0 = time.time()
        parts = {t: [] for t in TABLE_COLS}
        errors = []
        num_docs = num_spans = 0
        with pq.ParquetFile(in_path, filesystem=in_fs) as pf:
            for i in range(rg, rg + spec["num_row_groups"]):
                docs = pf.read_row_group(i)
                num_docs += docs.num_rows
                num_spans += int(pc.sum(pc.list_value_length(
                    docs.column("spans"))).as_py() or 0)
                tables, errs = self.extract_batch(docs, file_path=part_id)
                for name, table in tables.items():
                    parts[name].append(table)
                errors.extend(errs)
        tables = {name: pa.concat_tables(ts) for name, ts in parts.items()}
        tables["errors"] = rows_to_table_errors(errors)
        extract_seconds = time.time() - t0

        t0 = time.time()
        rows_per_table = {}
        for name, table in tables.items():
            rows_per_table[name] = table.num_rows
            path = f"{out_root}/{name}/{part_id}.parquet"
            if table.num_rows:
                fs.create_dir(f"{out_root}/{name}", recursive=True)
                pq.write_table(table, path, filesystem=fs,
                               compression=_COMPRESSION)
            elif _fs_exists(fs, path):
                # an earlier attempt at this partition wrote rows here
                fs.delete_file(path)
        write_seconds = time.time() - t0

        m = {
            "partition_id": part_id,
            "input_fingerprint": part_id.removeprefix("part-"),
            "num_docs": num_docs,
            "num_spans": num_spans,
            "rows_per_table": json.dumps(rows_per_table),
            "extract_seconds": extract_seconds,
            "write_seconds": write_seconds,
            "resumed": False,
            "run_key": self.run_key,
        }
        manifest_dir = f"{out_root}/{MANIFEST_DIR}"
        manifest_path = f"{manifest_dir}/{part_id}.json"
        fs.create_dir(manifest_dir, recursive=True)
        payload = json.dumps(m).encode()
        if isinstance(fs, pafs.LocalFileSystem):
            tmp = manifest_path + f".tmp{os.getpid()}"
            with fs.open_output_stream(tmp) as f:
                f.write(payload)
            fs.move(tmp, manifest_path)  # atomic: manifest is the commit point
        else:
            # object stores: a single PUT is already atomic (no partial
            # objects are ever visible), so write the commit marker directly
            with fs.open_output_stream(manifest_path) as f:
                f.write(payload)
        return m


def read_manifests(output_dir: str) -> dict:
    """{partition_id: manifest dict} of every partition committed under
    `output_dir` — one listing of `_manifest/`, read on the driver."""
    from pyarrow import fs as pafs

    fs, root = resolve_filesystem(output_dir)
    infos = fs.get_file_info(
        pafs.FileSelector(f"{root}/{MANIFEST_DIR}", allow_not_found=True))
    manifests = {}
    for info in infos:
        # a task killed mid-commit leaves a `.json.tmp<pid>`: not committed
        if info.type == pafs.FileType.File and info.base_name.endswith(".json"):
            with fs.open_input_stream(info.path) as f:
                manifests[info.base_name.removesuffix(".json")] = \
                    json.loads(f.read())
    return manifests


def run_key(config: dict, property_labels: dict, sa_types: list,
            ao_types: list) -> str:
    """Signature of everything that shapes a partition's outputs besides its
    input: the DiffConfig, the aux tables and the engine source (`core/`,
    this module and the schemas). A finished partition is reusable only
    under the same key."""
    from pathlib import Path

    pkg = Path(__file__).resolve().parent.parent
    h = hashlib.sha1(json.dumps(
        [config, sorted(property_labels.items()), sorted(sa_types),
         sorted(ao_types)], sort_keys=True).encode())
    for src in sorted(pkg.glob("core/*.py")) + [
            pkg / "stages" / "extract.py", pkg / "stages" / "schemas.py"]:
        h.update(src.name.encode())
        h.update(src.read_bytes())
    return h.hexdigest()[:16]


def list_partition_specs(input_path: str,
                         target_rows_per_partition: int | None = None) -> list:
    """Deterministic partition list for a parquet file or directory. Cheap —
    reads only parquet footers. Each spec carries its `partition_id`: a hash
    of the file name and size, the row-group range and the row count.

    A partition is a run of CONSECUTIVE row groups of one file. By default a
    run closes at the first row group that brings its uncompressed bytes
    (the footers' `total_byte_size`) to `TARGET_PARTITION_BYTES`, or at the
    file's last row group: every partition but a file's last reaches the
    target, and none extends past the row group that reached it, so a row
    group over the target that starts a run is a partition of its own.
    Each partition writes one file per non-empty table, at a cost per
    file, so row-group-sized partitions would make the sink write-bound;
    larger ones resume in larger units. With target_rows_per_partition,
    runs close on input rows instead (1 gives one partition per row group,
    the finest resume granularity). Both shapes are a pure function of the
    input footers.

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
        files = sorted((f for f in fs.get_file_info(pafs.FileSelector(root))
                        if f.path.endswith(".parquet")), key=lambda f: f.path)
    else:
        files = [info]
    specs = []
    for f in files:
        md = pq.read_metadata(f.path, filesystem=fs)
        pending, pending_rows, pending_bytes = [], 0, 0
        for rg in range(md.num_row_groups):
            pending.append(rg)
            pending_rows += md.row_group(rg).num_rows
            pending_bytes += md.row_group(rg).total_byte_size
            if target_rows_per_partition is None:
                full = pending_bytes >= TARGET_PARTITION_BYTES
            else:
                full = pending_rows >= target_rows_per_partition
            if full or rg == md.num_row_groups - 1:
                # file size in the id: an input regenerated in place with
                # the same name and row-group layout gets new partition ids
                fingerprint = hashlib.sha1(
                    f"{f.base_name}:{pending[0]}:{len(pending)}:"
                    f"{pending_rows}:{f.size}".encode()).hexdigest()[:16]
                specs.append({"file": prefix + f.path, "row_group": pending[0],
                              "num_row_groups": len(pending),
                              "num_rows": pending_rows,
                              "partition_id": f"part-{fingerprint}"})
                pending, pending_rows, pending_bytes = [], 0, 0
    return specs


def rows_to_table_errors(errors) -> pa.Table:
    return pa.Table.from_arrays(
        [pa.array([e[0] for e in errors], type=pa.string()),
         pa.array([e[1] for e in errors], type=pa.string())],
        schema=ERRORS_SCHEMA)
