"""Content-addressed cross-run cache of raw simulation results.

Simulating an invocation is pure: the raw (pre-noise, pre-extrapolation)
wave cycles, event counters and stall cycles are a deterministic
function of the workload contents, the invocation index, the trace seed
and the full simulator configuration.  Repetitions, epsilon-sweep
points and DSE variants that share that context therefore re-derive
identical raw results — this cache stores them once per machine, with
the same durability discipline as :class:`repro.parallel.ProfileCache`
(content-addressed keys, atomic ``os.replace`` writes, in-process LRU).

What is cached
--------------
The **raw** per-invocation outputs of ``GpuSimulator._execute_trace``
(wave cycles, extrapolation factor, unscaled stall cycles and the
unscaled integer event matrix) — never the post-processed
``KernelSimResult``.  Noise, launch overhead, extrapolation scaling and
rounding are recomputed by the caller through the unchanged vectorized
code path, which is what keeps cached runs bit-identical to cold runs.
``SimStats`` objects are mutable and mutated downstream, so the cache
stores plain arrays and callers materialize fresh stats per use.

Key derivation
--------------
A *context key* hashes the simulator version salt, the workload
fingerprint, ``repr(gpu)``, the trace seed and the simulator's identity
string (latency table, tracer knobs, warmup strategy).  Disk entries
are keyed by ``sha256(context, sorted unique index list)`` — one file
per simulate-call — while the in-process layer additionally memoizes
per (context, index), so a later call over a *different* index subset
still reuses every invocation the process has already simulated.

Integrity
---------
Entry metadata carries a SHA-256 checksum over every stored array
(indices, wave cycles, extrapolation, stall cycles, events), verified
on each disk read.  A mismatch or an unreadable file moves the entry
into the cache's ``quarantine/`` subdirectory (kept for forensics,
excluded from ``len()``), counts it in obs metrics, and reports a miss
so the invocations are transparently re-simulated — a corrupted cache
can cost simulation time but can never poison results.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import zipfile
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from .. import obs

__all__ = ["RawKernelSim", "SimResultCache", "SIM_VERSION"]

#: Bump when the on-disk entry layout changes incompatibly.
#: v2 added the content checksum to entry metadata.
CACHE_FORMAT_VERSION = 2

#: Subdirectory (under the cache root) holding quarantined entries.
QUARANTINE_DIR = "quarantine"


def _entry_checksum(arrays: Iterable[np.ndarray]) -> str:
    """SHA-256 over each array's bytes, dtype and shape, in order."""
    h = hashlib.sha256()
    for array in arrays:
        h.update(str(array.dtype).encode())
        h.update(repr(tuple(array.shape)).encode())
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()

#: Simulator version salt — bump whenever :mod:`repro.sim` changes in a
#: way that alters raw simulation outputs, so stale entries can never be
#: replayed against a newer simulator.
#: v2 draws each invocation's address streams for all resident warps in
#: one lock-step pass (see ``TraceGenerator._address_lines``).
#: v3 draws each invocation's noise factor from a counter-based SplitMix64
#: hash of the full 64-bit (seed, index) (see :mod:`repro.sim.noise`).
SIM_VERSION = 3


@dataclass(frozen=True)
class RawKernelSim:
    """Raw (unscaled) outcome of simulating one invocation's trace."""

    wave_cycles: float
    extrapolation: float
    stall_cycles: float
    #: Unscaled integer event counters in ``_EVENT_FIELDS`` order.
    events: np.ndarray


class SimResultCache:
    """Content-addressed store for raw simulation results.

    Parameters
    ----------
    root:
        Directory holding the cache (created on demand).
    max_memory_entries:
        Capacity of the per-invocation in-process LRU layer.
    """

    def __init__(self, root: str, max_memory_entries: int = 16384):
        self.root = str(root)
        self.max_memory_entries = max(1, int(max_memory_entries))
        self._memory: "OrderedDict[Tuple[str, int], RawKernelSim]" = OrderedDict()
        #: Per-invocation counters (kept in addition to obs metrics so
        #: callers can read hit rates without enabling observability).
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0
        #: Optional :class:`~repro.resilience.FaultInjector` used by the
        #: chaos harness to flip entry bytes right after a store.
        self.fault_injector = None

    # -- keys ----------------------------------------------------------------
    @staticmethod
    def context_for(workload, gpu, seed: int, simulator_id: str = "") -> str:
        """Context key: everything that shapes raw results except indices."""
        h = hashlib.sha256()
        h.update(
            f"v{CACHE_FORMAT_VERSION}\x00sim{SIM_VERSION}\x00{int(seed)}\x00".encode()
        )
        h.update(workload.fingerprint().encode())
        h.update(b"\x00")
        h.update(repr(gpu).encode())
        h.update(b"\x00")
        h.update(simulator_id.encode())
        return h.hexdigest()

    @staticmethod
    def key_for(context: str, indices: np.ndarray) -> str:
        h = hashlib.sha256()
        h.update(context.encode())
        h.update(b"\x00")
        h.update(np.ascontiguousarray(indices, dtype=np.int64).tobytes())
        return h.hexdigest()

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".npz")

    # -- integrity -----------------------------------------------------------
    def _quarantine_entry(self, path: str, reason: str) -> None:
        """Move a bad entry into ``quarantine/`` and count it.

        The file is kept (not deleted) so corruption can be inspected
        after the fact; quarantined entries are invisible to ``load``
        and excluded from ``len()``, so the invocations are simply
        re-simulated.
        """
        qdir = os.path.join(self.root, QUARANTINE_DIR)
        os.makedirs(qdir, exist_ok=True)
        try:
            os.replace(path, os.path.join(qdir, os.path.basename(path)))
        except OSError:
            pass  # racing reader already moved it; counting still applies
        self.corrupt += 1
        obs.inc("memo.sim_cache.corrupt_quarantined")
        obs.log_event(
            "memo.sim_cache_quarantined", level="warning", path=path, reason=reason
        )

    # -- memory layer --------------------------------------------------------
    def _memory_get(self, context: str, index: int) -> Optional[RawKernelSim]:
        raw = self._memory.get((context, index))
        if raw is not None:
            self._memory.move_to_end((context, index))
        return raw

    def _memory_put(self, context: str, index: int, raw: RawKernelSim) -> None:
        self._memory[(context, index)] = raw
        self._memory.move_to_end((context, index))
        while len(self._memory) > self.max_memory_entries:
            self._memory.popitem(last=False)

    # -- public API ----------------------------------------------------------
    def load(
        self, context: str, indices: Iterable[int]
    ) -> Tuple[Dict[int, RawKernelSim], List[int]]:
        """Look up raw results for a set of (unique) invocation indices.

        Returns ``(found, missing)``: whatever subset the memory layer or
        a whole-call disk entry already holds, and the indices the caller
        still has to simulate.  Hit/miss counters are per invocation, so
        ``hits / (hits + misses)`` is the fraction of simulation work the
        cache saved.
        """
        index_list = [int(i) for i in indices]
        found: Dict[int, RawKernelSim] = {}
        missing: List[int] = []
        for index in index_list:
            raw = self._memory_get(context, index)
            if raw is not None:
                found[index] = raw
            else:
                missing.append(index)
        if missing:
            from_disk = self._load_disk(context, np.asarray(index_list, np.int64))
            if from_disk is not None:
                for index, raw in from_disk.items():
                    self._memory_put(context, index, raw)
                found = from_disk
                missing = []
        self.hits += len(found)
        self.misses += len(missing)
        obs.inc("memo.sim_cache.hits", len(found))
        obs.inc("memo.sim_cache.misses", len(missing))
        return found, missing

    def store(
        self, context: str, indices: Iterable[int], raws: Dict[int, RawKernelSim]
    ) -> str:
        """Persist one simulate-call's raw results; returns the entry key."""
        index_arr = np.asarray([int(i) for i in indices], dtype=np.int64)
        for index in index_arr:
            self._memory_put(context, int(index), raws[int(index)])
        key = self.key_for(context, index_arr)
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        n = len(index_arr)
        events = np.empty((n, len(next(iter(raws.values())).events) if n else 0),
                          dtype=np.int64) if n else np.empty((0, 0), dtype=np.int64)
        wave = np.empty(n, dtype=np.float64)
        extrap = np.empty(n, dtype=np.float64)
        stall = np.empty(n, dtype=np.float64)
        for i, index in enumerate(index_arr):
            raw = raws[int(index)]
            wave[i] = raw.wave_cycles
            extrap[i] = raw.extrapolation
            stall[i] = raw.stall_cycles
            events[i] = raw.events
        meta = {
            "version": CACHE_FORMAT_VERSION,
            "sim_version": SIM_VERSION,
            "context": context,
            "n": int(n),
            "checksum": _entry_checksum([index_arr, wave, extrap, stall, events]),
        }
        blob = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        fd, tmp = tempfile.mkstemp(
            prefix=".tmp-" + key[:8] + "-", suffix=".npz", dir=os.path.dirname(path)
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez(
                    fh,
                    indices=index_arr,
                    wave_cycles=wave,
                    extrapolation=extrap,
                    stall_cycles=stall,
                    events=events,
                    meta=blob,
                )
            os.replace(tmp, path)  # atomic on POSIX: readers see old or new
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        self.stores += 1
        obs.inc("memo.sim_cache.stores")
        if self.fault_injector is not None and self.fault_injector.cache_corrupt_decision(
            key
        ):
            self.fault_injector.corrupt_cache_entry(path, key)
        return key

    # -- disk layer ----------------------------------------------------------
    def _load_disk(
        self, context: str, indices: np.ndarray
    ) -> Optional[Dict[int, RawKernelSim]]:
        path = self._path(self.key_for(context, indices))
        if not os.path.exists(path):
            return None
        try:
            with np.load(path, allow_pickle=False) as payload:
                meta = json.loads(bytes(payload["meta"]).decode())
                stored = np.array(payload["indices"])
                wave = np.array(payload["wave_cycles"])
                extrap = np.array(payload["extrapolation"])
                stall = np.array(payload["stall_cycles"])
                events = np.array(payload["events"])
        except (OSError, ValueError, KeyError, zipfile.BadZipFile,
                json.JSONDecodeError):
            # Torn or foreign file: quarantine it, then re-simulate.
            self._quarantine_entry(path, reason="unreadable")
            return None
        if (
            not isinstance(meta, dict)
            or meta.get("version") != CACHE_FORMAT_VERSION
            or meta.get("sim_version") != SIM_VERSION
            or meta.get("context") != context
            or not np.array_equal(stored, indices)
        ):
            return None
        if meta.get("checksum") != _entry_checksum(
            [stored, wave, extrap, stall, events]
        ):
            # Bit rot or a flipped byte: the entry parsed but its content
            # no longer matches what was stored.
            self._quarantine_entry(path, reason="checksum_mismatch")
            return None
        return {
            int(index): RawKernelSim(
                wave_cycles=float(wave[i]),
                extrapolation=float(extrap[i]),
                stall_cycles=float(stall[i]),
                events=events[i],
            )
            for i, index in enumerate(stored)
        }

    # -- maintenance ---------------------------------------------------------
    def clear_memory(self) -> None:
        """Drop the in-process layer (the disk layer is untouched)."""
        self._memory.clear()

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "stores": self.stores}

    def __len__(self) -> int:
        """Number of complete entries on disk (quarantine excluded)."""
        count = 0
        if os.path.isdir(self.root):
            for sub in os.listdir(self.root):
                if sub == QUARANTINE_DIR:
                    continue
                subdir = os.path.join(self.root, sub)
                if os.path.isdir(subdir):
                    count += sum(
                        1
                        for f in os.listdir(subdir)
                        if f.endswith(".npz") and not f.startswith(".tmp-")
                    )
        return count
