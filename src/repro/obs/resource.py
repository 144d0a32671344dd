"""Sampling resource monitor: peak RSS and CPU time per process.

A :class:`ResourceMonitor` wraps any unit of work — the whole CLI run in
the parent, one task batch inside a pool worker — and reports a small
JSON-ready snapshot::

    {"max_rss_kb": 184320, "cpu_user_s": 1.91, "cpu_system_s": 0.12,
     "wall_s": 2.05, "samples": 38}

RSS comes from ``/proc/self/status`` (``VmRSS`` sampled on a daemon
thread, reconciled with the kernel's own ``VmHWM`` high-water mark on
exit); CPU time from :func:`os.times`.  On hosts without ``/proc`` the
monitor falls back to ``resource.getrusage`` and reports zero samples.
Only monotonic timers are used, so monitored code remains deterministic
and cache-safe.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from typing import Dict, Optional

__all__ = ["ResourceMonitor", "process_age_s", "read_rss_kb"]

_PROC_STATUS = "/proc/self/status"


def _read_status_kb(field: str) -> Optional[int]:
    """One ``Vm*`` field from /proc/self/status, in KiB, or None."""
    try:
        with open(_PROC_STATUS, "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        return None
    return None


def _rusage_maxrss_kb() -> Optional[int]:
    """Peak RSS via getrusage, normalised to KiB (macOS reports bytes)."""
    try:
        import resource as _resource  # stdlib; absent on some platforms
    except ImportError:
        return None
    peak = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        peak //= 1024
    return int(peak)


def read_rss_kb() -> Optional[int]:
    """Current resident set size in KiB, or None when unobservable."""
    return _read_status_kb("VmRSS")


def process_age_s() -> Optional[float]:
    """Seconds since this process started, imports included, or None.

    The kernel's start tick (``/proc/self/stat`` field 22) against
    ``/proc/uptime``, both at clock-tick (~10 ms) resolution; None on
    hosts without ``/proc``.
    """
    try:
        with open("/proc/self/stat", "r", encoding="ascii") as fh:
            # Fields after the parenthesised command name start at 3.
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime", "r", encoding="ascii") as fh:
            uptime_s = float(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return None
    return max(0.0, uptime_s - start_ticks / os.sysconf("SC_CLK_TCK"))


class ResourceMonitor:
    """Context manager sampling RSS while measuring CPU and wall time.

    The sampling thread is a daemon waking every ``interval_s``; each
    sample updates the observed peak (and, when observability is
    enabled, the ``resource.rss_kb`` gauge — live progress telemetry for
    long campaigns).  ``snapshot()`` is valid after exit.
    """

    def __init__(self, interval_s: float = 0.05):
        self.interval_s = float(interval_s)
        self.samples = 0
        self._peak_rss_kb = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._start_wall = 0.0
        self._start_cpu = (0.0, 0.0)
        self._wall_s = 0.0
        self._cpu_user_s = 0.0
        self._cpu_system_s = 0.0

    # -- sampling loop --------------------------------------------------------
    def _sample_once(self) -> None:
        rss = read_rss_kb()
        if rss is not None:
            if rss > self._peak_rss_kb:
                self._peak_rss_kb = rss
            self.samples += 1
            from . import set_gauge  # late import: obs package init order

            set_gauge("resource.rss_kb", float(rss))

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self._sample_once()

    # -- context protocol -----------------------------------------------------
    def __enter__(self) -> "ResourceMonitor":
        times = os.times()
        self._start_cpu = (times.user, times.system)
        self._start_wall = time.perf_counter()
        self._stop.clear()
        self._sample_once()
        if self.samples:  # /proc is readable; keep sampling in background
            self._thread = threading.Thread(
                target=self._run, name="repro-resource-monitor", daemon=True
            )
            self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=1.0)
            self._thread = None
        self._wall_s = time.perf_counter() - self._start_wall
        times = os.times()
        self._cpu_user_s = times.user - self._start_cpu[0]
        self._cpu_system_s = times.system - self._start_cpu[1]
        # The kernel's own high-water mark beats any sampling cadence.
        peak = _read_status_kb("VmHWM")
        if peak is None:
            peak = _rusage_maxrss_kb()
        if peak is not None and peak > self._peak_rss_kb:
            self._peak_rss_kb = peak

    def snapshot(self) -> Dict[str, float]:
        """JSON-ready resource summary (valid after ``__exit__``)."""
        return {
            "max_rss_kb": int(self._peak_rss_kb),
            "cpu_user_s": round(self._cpu_user_s, 6),
            "cpu_system_s": round(self._cpu_system_s, 6),
            "wall_s": round(self._wall_s, 6),
            "samples": int(self.samples),
        }
