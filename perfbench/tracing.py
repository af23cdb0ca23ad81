"""In-memory span tracer, the benchmark's clock, and host probes.

Spans are recorded by the benchmark around each call into a layer of the
program (name, start, end, parent) and written out once, when the run ends.
A span's self time is its duration minus the part of it its children cover.
The clock times a block in wall seconds and in CPU seconds of the
benchmark's process tree; the reference work tells how fast the host runs a
fixed load right now.
"""
from __future__ import annotations

import gc
import hashlib
import json
import os
import time
from contextlib import contextmanager


@contextmanager
def clock(rec: dict, name: str):
    """Times the block: `rec[name + "_s"]` gets its wall seconds and
    `rec[name + "_cpu_s"]` the CPU seconds the process tree used in it
    (tree_cpu_ticks)."""
    c0 = tree_cpu_ticks()
    t0 = time.perf_counter()
    yield
    rec[f"{name}_s"] = time.perf_counter() - t0
    rec[f"{name}_cpu_s"] = (tree_cpu_ticks() - c0) / _TICKS_PER_S


# The reference work: a fixed load that does not touch the program, in the
# style of its hot loop (parse an entity's JSON, walk its claims, hash the
# text, dump it again).
_REF_TEXT = json.dumps({"claims": {
    f"P{i}": [{"id": f"Q{i}${j}", "value": {"amount": str(i * j), "unit": "1"}}
              for j in range(4)]
    for i in range(300)}})
# Normalized CPU seconds are CPU seconds scaled to a host on which one pass
# of the reference work takes this long (about what an idle 4-vCPU VM gives).
REF_NOMINAL_S = 0.012


def reference_cpu_s(reps: int = 5) -> float:
    """Thread CPU seconds of one pass of the reference work, the mean of
    `reps` passes. The cyclic garbage collector is off meanwhile: a full
    collection walks the driver's whole heap and, when it fell inside a
    reading, doubled it."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        c0 = time.thread_time()
        for _ in range(4 * reps):
            doc = json.loads(_REF_TEXT)
            n = 0
            for values in doc["claims"].values():
                for v in values:
                    n += len(v["id"]) + int(v["value"]["amount"])
            hashlib.sha1(_REF_TEXT.encode()).digest()
            json.dumps(doc)
        return (time.thread_time() - c0) / reps
    finally:
        if was_enabled:
            gc.enable()


class Tracer:
    """Records spans when enabled; a disabled tracer records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield
            return
        sid = len(self.spans)
        rec = {"id": sid, "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        if attrs:
            rec["attrs"] = attrs
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def self_times(self) -> dict:
        """{span name: summed self time} over all closed spans."""
        children: dict[int, list] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append(s)
        out: dict[str, float] = {}
        for s in self.spans:
            if s["end"] is None:
                continue
            covered = _union_length(
                [(c["start"], c["end"]) for c in children.get(s["id"], ())
                 if c["end"] is not None])
            out[s["name"]] = out.get(s["name"], 0.0) + \
                (s["end"] - s["start"]) - covered
        return out


def _union_length(intervals: list) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for a, b in sorted(intervals):
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def nproc() -> int:
    """What `nproc` prints: the CPUs this process may run on, capped by
    OMP_NUM_THREADS and OMP_THREAD_LIMIT. Ray is sized to this many CPUs.

    The processes are deliberately not pinned to that many cores: on a
    shared host, pinning the session to one core raised the run-to-run
    spread of every phase from 3-6% to 10-18%, because the pinned core
    carries other tenants' load and the scheduler Ray Data runs in the
    calling process."""
    n = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OMP_THREAD_LIMIT"):
        try:
            n = min(n, int(os.environ[var].split(",")[0]))
        except (KeyError, ValueError):
            pass
    return max(n, 1)


_TICKS_PER_S = os.sysconf("SC_CLK_TCK")


def tree_cpu_ticks() -> int:
    """CPU clock ticks, user plus system, used so far by this process and
    every process under it -- the benchmark's driver and the Ray session it
    started -- counting reaped children too. Time a process spends waiting
    for a CPU is not in it."""
    parent, ticks = {}, {}
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # fields after "(comm)": state ppid ... utime stime cutime cstime
        fields = stat[stat.rindex(")") + 2:].split()
        parent[int(pid)] = int(fields[1])
        ticks[int(pid)] = sum(int(x) for x in fields[11:15])
    children: dict[int, list] = {}
    for pid, ppid in parent.items():
        children.setdefault(ppid, []).append(pid)
    total, todo = 0, [os.getpid()]
    while todo:
        pid = todo.pop()
        total += ticks.get(pid, 0)
        todo.extend(children.get(pid, ()))
    return total


def _cpu_ticks() -> tuple:
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    steal = fields[7] if len(fields) > 7 else 0
    return steal, sum(fields[:8])


class HostWeather:
    """Host-weather stamp: CPUs, load, and the share of CPU time stolen by
    the hypervisor over the run, with the Ray and pyarrow versions."""

    def __init__(self, ncpus: int):
        self.ncpus = ncpus
        self.load_start = os.getloadavg()
        self._ticks = _cpu_ticks()

    def stamp(self) -> dict:
        import pyarrow
        import ray

        steal, total = _cpu_ticks()
        d_total = total - self._ticks[1]
        return {
            "nproc": self.ncpus,
            "affinity": sorted(os.sched_getaffinity(0)),
            "loadavg_start": self.load_start,
            "loadavg_end": os.getloadavg(),
            "steal_pct": round(100.0 * (steal - self._ticks[0]) / d_total, 3)
            if d_total > 0 else 0.0,
            "ray": ray.__version__,
            "pyarrow": pyarrow.__version__,
        }


def _proc_status(pid: str) -> dict:
    out = {}
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            key, _, val = line.partition(":")
            out[key] = val.strip()
    return out


def peak_worker_rss_mb(session_dir: str) -> float:
    """Highest VmHWM across the Ray worker processes of this session: the
    `ray::` processes whose parent is this session's raylet."""
    procs = {}
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                procs[pid] = f.read().replace(b"\0", b" ").decode(
                    errors="replace")
        except OSError:
            continue
    raylets = {pid for pid, cmd in procs.items()
               if "raylet" in cmd.split(" ", 1)[0] and session_dir in cmd}
    peak_kb = 0
    for pid, cmd in procs.items():
        if not cmd.startswith("ray::"):
            continue
        try:
            st = _proc_status(pid)
        except OSError:
            continue
        if st.get("PPid") in raylets:
            peak_kb = max(peak_kb, int(st.get("VmHWM", "0 kB").split()[0]))
    return peak_kb / 1024.0
