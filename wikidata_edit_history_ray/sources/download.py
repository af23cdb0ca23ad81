"""Dump-download planner/runner (operator S7 parity — the reference's
download/download_wikidumps.sh: read a URL list, skip already-present files,
fetch each with retries, log name/bytes/seconds).

This container has no network, so the FETCH is an injectable seam (pass any
`fetcher(url, dest_path)` callable — requests/aria2 wrapper in production, a
deterministic fake in tests); everything around it is real and tested:
URL parsing (dump date / history shard / page range), the skip-existing
resume semantics, Ray-parallel fan-out with per-file manifest rows, and
tmp-then-rename atomic placement so a killed run never leaves truncated
files the resume pass would skip.
"""
from __future__ import annotations

import os
import re
import time

import pyarrow as pa

_DUMP_RE = re.compile(
    r"(?P<wiki>[a-z]+wiki)-(?P<date>\d{8})-pages-meta-history"
    r"(?P<shard>\d+)\.xml-p(?P<p_lo>\d+)p(?P<p_hi>\d+)\.(?P<ext>\w+)$")

MANIFEST_SCHEMA = pa.schema([
    ("url", pa.string()), ("filename", pa.string()),
    ("dump_date", pa.string()), ("shard", pa.int32()),
    ("page_lo", pa.int64()), ("page_hi", pa.int64()),
    ("skipped", pa.bool_()), ("bytes", pa.int64()),
    ("seconds", pa.float64()), ("error", pa.string()),
])


def parse_dump_url(url: str) -> dict:
    """Filename + (date, history shard, page range) from a dump URL; page
    fields are -1 for non-standard names (still downloadable)."""
    filename = url.rsplit("/", 1)[-1]
    m = _DUMP_RE.search(filename)
    return {
        "url": url, "filename": filename,
        "dump_date": m.group("date") if m else "",
        "shard": int(m.group("shard")) if m else -1,
        "page_lo": int(m.group("p_lo")) if m else -1,
        "page_hi": int(m.group("p_hi")) if m else -1,
    }


def plan_downloads(url_list_path: str, download_dir: str) -> list:
    """URL list file -> ordered download specs, with the reference's
    skip-existing resume flag resolved against download_dir."""
    with open(url_list_path, encoding="utf-8") as f:
        urls = [ln.strip() for ln in f if ln.strip()]
    plan = []
    for url in urls:
        spec = parse_dump_url(url)
        spec["skipped"] = os.path.exists(
            os.path.join(download_dir, spec["filename"]))
        plan.append(spec)
    return plan


def _default_fetcher(url: str, dest: str):
    raise NotImplementedError(
        "no network in this environment: inject fetcher=... (anything with "
        "the signature fetcher(url, dest_path) that writes the file)")


def run_downloads(url_list_path: str, download_dir: str, fetcher=None,
                  max_tries: int = 3):
    """Execute the plan as a Ray pipeline; returns the manifest Dataset (one
    row per URL: skipped/bytes/seconds/error). Files land via tmp + atomic
    rename; a re-run skips everything already present (reference semantics)."""
    import ray.data

    os.makedirs(download_dir, exist_ok=True)
    plan = plan_downloads(url_list_path, download_dir)
    fetch = fetcher or _default_fetcher

    def fetch_one(batch: pa.Table) -> pa.Table:
        rows = []
        for spec in batch.to_pylist():
            dest = os.path.join(download_dir, spec["filename"])
            row = {k: spec.get(k) for k in
                   ("url", "filename", "dump_date", "shard",
                    "page_lo", "page_hi")}
            if os.path.exists(dest):
                row.update(skipped=True, bytes=os.path.getsize(dest),
                           seconds=0.0, error="")
                rows.append(row)
                continue
            t0 = time.time()
            err = ""
            for attempt in range(max_tries):
                tmp = dest + f".tmp{os.getpid()}"
                try:
                    fetch(spec["url"], tmp)
                    os.replace(tmp, dest)  # atomic: never a truncated dest
                    err = ""
                    break
                except Exception as e:  # noqa: BLE001 — retry then report
                    err = f"{type(e).__name__}: {e}"[:200]
                    if os.path.exists(tmp):
                        os.remove(tmp)
            row.update(
                skipped=False,
                bytes=os.path.getsize(dest) if os.path.exists(dest) else 0,
                seconds=round(time.time() - t0, 3), error=err)
            rows.append(row)
        return pa.Table.from_pylist(rows, schema=MANIFEST_SCHEMA)

    # one task per URL (batch_size=1); IO-bound -> 0.25 cpu
    ds = ray.data.from_items(plan)
    return ds.map_batches(fetch_one, batch_size=1, batch_format="pyarrow",
                          num_cpus=0.25)
