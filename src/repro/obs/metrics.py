"""Metrics registry: counters, gauges, and histograms.

Three instrument kinds cover everything the pipeline needs to report:

* **Counter** — monotonically increasing totals
  (``root.splits_accepted``, ``sim.kernels_executed``);
* **Gauge** — last-written values (``sampler.leaf_clusters``);
* **Histogram** — distribution sketches with percentile queries
  (``root.split_depth``, ``sim.kernel_cycles``).

Histograms keep exact running ``count/sum/min/max`` plus a bounded
reservoir for percentiles, so observing millions of values costs O(1)
memory.  Reservoir replacement uses a private seeded SplitMix64 stream:
identical runs produce identical snapshots, and the sampler's NumPy
generators are never touched — observability can never perturb the
experiment's randomness.

Thread safety and merge determinism
-----------------------------------
Every write path (``inc``/``set``/``observe``) runs under a
per-instrument lock, so instrumented code may run in threads without
losing updates.  Cross-process merging is **order-independent**: a state
handed to :meth:`MetricsRegistry.merge_state` is parked and folded into
read-side views (``snapshot``/``export_state``/``names``) in a canonical
order — sorted by the state's own JSON — so a parent that merges worker
A before worker B produces byte-identical snapshots to one that merged
B before A, float summation included.
"""

from __future__ import annotations

import json
import math
import threading
from typing import Dict, List, Tuple

from ..seeding import MASK64, SPLITMIX64_GAMMA, splitmix64

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

#: Reservoir capacity per histogram; plenty for stable p50/p90/p99.
_RESERVOIR_SIZE = 4096


class _SplitMix64:
    """Tiny deterministic PRNG for reservoir replacement.

    A SplitMix64 stream over :func:`repro.seeding.splitmix64`, so
    observability never touches the stdlib ``random`` module or any
    NumPy generator: the stream is a pure function of the seed, per
    histogram.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def randrange(self, n: int) -> int:
        self._state = (self._state + SPLITMIX64_GAMMA) & MASK64
        return splitmix64(self._state) % n


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self.value += n


class Gauge:
    """A last-value-wins measurement."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)


def _empty_hist_state() -> Dict[str, object]:
    return {
        "count": 0,
        "sum": 0.0,
        "min": math.inf,
        "max": -math.inf,
        "reservoir": [],
    }


def _fold_hist_state(base: Dict[str, object], incoming: Dict[str, object]) -> None:
    """Fold one exported histogram state into ``base`` (in place).

    Exact moments (count/sum/min/max) merge exactly; the reservoir is
    extended with the other histogram's samples and truncated to
    capacity, which keeps percentile queries representative of both
    sources without replaying every observation.
    """
    count = int(incoming.get("count", 0))
    if count <= 0:
        return
    base["count"] = int(base["count"]) + count
    base["sum"] = float(base["sum"]) + float(incoming.get("sum", 0.0))
    base["min"] = min(float(base["min"]), float(incoming.get("min", math.inf)))
    base["max"] = max(float(base["max"]), float(incoming.get("max", -math.inf)))
    reservoir: List[float] = base["reservoir"]  # type: ignore[assignment]
    room = _RESERVOIR_SIZE - len(reservoir)
    if room > 0:
        incoming_res = list(incoming.get("reservoir") or [])
        reservoir.extend(float(v) for v in incoming_res[:room])


def _percentile_from(reservoir: List[float], p: float) -> float:
    """Nearest-rank percentile over a reservoir, ``p`` in [0, 100]."""
    if not 0.0 <= p <= 100.0:
        raise ValueError("percentile must be in [0, 100]")
    if not reservoir:
        return 0.0
    ordered = sorted(reservoir)
    rank = min(len(ordered) - 1, max(0, math.ceil(p / 100.0 * len(ordered)) - 1))
    return ordered[rank]


def _hist_state_snapshot(state: Dict[str, object]) -> Dict[str, float]:
    if not state["count"]:
        return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0,
                "p50": 0.0, "p90": 0.0, "p99": 0.0}
    reservoir: List[float] = state["reservoir"]  # type: ignore[assignment]
    count = int(state["count"])
    total = float(state["sum"])
    return {
        "count": count,
        "sum": total,
        "min": float(state["min"]),
        "max": float(state["max"]),
        "mean": total / count,
        "p50": _percentile_from(reservoir, 50),
        "p90": _percentile_from(reservoir, 90),
        "p99": _percentile_from(reservoir, 99),
    }


class Histogram:
    """Distribution sketch with exact moments and sampled percentiles."""

    __slots__ = ("name", "count", "sum", "min", "max", "_reservoir", "_rng",
                 "_lock")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._reservoir: List[float] = []
        # Deterministic and independent of every experiment RNG.
        self._rng = _SplitMix64(0xC0FFEE)
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        v = float(value)
        with self._lock:
            self.count += 1
            self.sum += v
            if v < self.min:
                self.min = v
            if v > self.max:
                self.max = v
            if len(self._reservoir) < _RESERVOIR_SIZE:
                self._reservoir.append(v)
            else:  # Vitter's algorithm R
                j = self._rng.randrange(self.count)
                if j < _RESERVOIR_SIZE:
                    self._reservoir[j] = v

    def _state(self) -> Dict[str, object]:
        """Mergeable state; caller must hold the lock or own the instance."""
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "reservoir": list(self._reservoir),
        }

    def merge_state(self, state: Dict[str, object]) -> None:
        """Fold another histogram's exported state into this one."""
        with self._lock:
            base = self._state()
            _fold_hist_state(base, state)
            self.count = int(base["count"])
            self.sum = float(base["sum"])
            self.min = float(base["min"])
            self.max = float(base["max"])
            self._reservoir = base["reservoir"]  # type: ignore[assignment]

    def export_state(self) -> Dict[str, object]:
        """Snapshot plus the reservoir, for cross-process merging."""
        state: Dict[str, object] = dict(self.snapshot())
        with self._lock:
            state["reservoir"] = list(self._reservoir)
        return state

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile over the reservoir, ``p`` in [0, 100]."""
        with self._lock:
            reservoir = list(self._reservoir)
        return _percentile_from(reservoir, p)

    def snapshot(self) -> Dict[str, float]:
        with self._lock:
            return _hist_state_snapshot(self._state())


class MetricsRegistry:
    """Thread-safe, get-or-create home for every named instrument.

    Worker states handed to :meth:`merge_state` are *parked* rather than
    applied in place: every read-side view folds them in canonical
    (sorted-JSON) order, so merged snapshots do not depend on worker
    completion order.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        #: (canonical key, state) pairs merged from other registries.
        self._pending: List[Tuple[str, Dict[str, Dict[str, object]]]] = []

    def counter(self, name: str) -> Counter:
        with self._lock:
            c = self._counters.get(name)
            if c is None:
                c = self._counters[name] = Counter(name)
            return c

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            g = self._gauges.get(name)
            if g is None:
                g = self._gauges[name] = Gauge(name)
            return g

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            h = self._histograms.get(name)
            if h is None:
                h = self._histograms[name] = Histogram(name)
            return h

    # -- convenience write paths (used by the module-level helpers) -----------
    def inc(self, name: str, n: int = 1) -> None:
        self.counter(name).inc(n)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    # -- read side ------------------------------------------------------------
    def _folded(self) -> Tuple[
        Dict[str, int], Dict[str, float], Dict[str, Dict[str, object]]
    ]:
        """Live values with pending merged states folded canonically.

        Pending states are applied in sorted-canonical-key order, so the
        result — float sums included — is independent of the order in
        which ``merge_state`` was called.
        """
        with self._lock:
            counters = {n: c.value for n, c in self._counters.items()}
            gauges = {n: g.value for n, g in self._gauges.items()}
            pending = sorted(self._pending, key=lambda kv: kv[0])
            histograms = {
                n: h._state() for n, h in self._histograms.items()
            }
        for _, state in pending:
            for name, value in (state.get("counters") or {}).items():
                counters[name] = counters.get(name, 0) + int(value)
            for name, value in (state.get("gauges") or {}).items():
                gauges[name] = float(value)
            for name, hist_state in (state.get("histograms") or {}).items():
                base = histograms.setdefault(name, _empty_hist_state())
                _fold_hist_state(base, hist_state)
        return counters, gauges, histograms

    def names(self, prefix: str = "") -> List[str]:
        counters, gauges, histograms = self._folded()
        all_names = list(counters) + list(gauges) + list(histograms)
        return sorted(n for n in all_names if n.startswith(prefix))

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """JSON-ready view: ``{"counters": ..., "gauges": ..., "histograms": ...}``."""
        counters, gauges, histograms = self._folded()
        return {
            "counters": {n: counters[n] for n in sorted(counters)},
            "gauges": {n: gauges[n] for n in sorted(gauges)},
            "histograms": {
                n: _hist_state_snapshot(histograms[n]) for n in sorted(histograms)
            },
        }

    def export_state(self) -> Dict[str, Dict[str, object]]:
        """Mergeable registry state (snapshot + histogram reservoirs).

        The inverse of :meth:`merge_state`; parallel grid workers export
        this and the parent folds it into its own registry, so one run's
        metrics cover every process that contributed to it.  Pending
        merged states are folded in, so chained merges (worker →
        parent → grandparent) lose nothing.
        """
        counters, gauges, histograms = self._folded()
        exported_hists: Dict[str, Dict[str, object]] = {}
        for name in sorted(histograms):
            state = histograms[name]
            snap: Dict[str, object] = dict(_hist_state_snapshot(state))
            snap["reservoir"] = list(state["reservoir"])  # type: ignore[index]
            exported_hists[name] = snap
        return {
            "counters": {n: counters[n] for n in sorted(counters)},
            "gauges": {n: gauges[n] for n in sorted(gauges)},
            "histograms": exported_hists,
        }

    def merge_state(self, state: Dict[str, Dict[str, object]]) -> None:
        """Park another registry's exported state for canonical folding.

        The state becomes visible through every read-side view
        immediately; only the *fold order* is deferred, which is what
        makes merged snapshots independent of call order.
        """
        if not state:
            return
        key = json.dumps(state, sort_keys=True, default=str)
        with self._lock:
            self._pending.append((key, state))

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._pending.clear()
