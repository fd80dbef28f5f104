"""Timing, machine-speed probing and span tracing for the qnls benchmark.

Everything here runs inside the single-threaded worker process.  Nothing in
this module imports qnls; the worker hands it the loaded modules.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

import numpy as np

# ---------------------------------------------------------------------------
# Machine-speed probe.
#
# The 2-vCPU host this benchmark was written on toggles between a fast and a
# slow state at sub-second scale (the same 256-point FFT loop reads 8.3 ms or
# 13 ms), so raw wall times of identical work spread by ~22% from run to run.
# A SIGALRM timer runs a fixed probe kernel every PROBE_INTERVAL_S; the
# probe's mean duration over a timed region, divided by PROBE_NOMINAL_S,
# is that region's slow-down factor.  Reported times are
# (raw wall - probe time) / factor: seconds at the probe's nominal speed.
# Raw wall times are kept alongside and printed on the info line.

PROBE_INTERVAL_S = 0.02
# Operations shorter than a few probe intervals take their factor from the
# probes within this margin around them.
LOCAL_MARGIN_S = 0.1
# Fast-state duration of one probe on the reference box (Intel Xeon,
# 2 vCPU, Python 3.11, numpy 2.4); only the scale of reported times
# depends on it.
PROBE_NOMINAL_S = 2.0e-4

_PROBE_VEC = np.exp(1j * np.linspace(0.0, 6.0, 256))


def _probe_kernel() -> None:
    y = _PROBE_VEC
    for _ in range(6):
        y = np.fft.ifft(np.fft.fft(y))
    acc = 0
    for i in range(250):
        acc += i * i % 7


class SpeedProbe:
    """Periodic probe; ``mark()`` and ``region()`` bracket timed regions."""

    def __init__(self) -> None:
        self.total = 0.0  # seconds spent inside probes
        self.count = 0
        self.stamps: list[float] = []  # start time of each probe
        self.durations: list[float] = []
        self._old = None

    def _handler(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _probe_kernel()
        dt = time.perf_counter() - t0
        self.total += dt
        self.count += 1
        self.stamps.append(t0)
        self.durations.append(dt)

    def start(self) -> None:
        _probe_kernel()  # warm the kernel before the first sample
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._old is not None:
            signal.signal(signal.SIGALRM, self._old)
            self._old = None

    def mark(self) -> tuple[float, float, int]:
        return time.perf_counter(), self.total, self.count

    def region(self, start: tuple[float, float, int]) -> "Timed":
        t1, p1, n1 = self.mark()
        t0, p0, n0 = start
        return Timed(t0, t1 - t0, p1 - p0, n1 - n0)

    def local_factor(self, timed: "Timed", fallback: float) -> float:
        """Slow-down factor from the probes within LOCAL_MARGIN_S of a region."""
        lo = bisect.bisect_left(self.stamps, timed.start - LOCAL_MARGIN_S)
        hi = bisect.bisect_right(self.stamps, timed.start + timed.raw + LOCAL_MARGIN_S)
        if hi <= lo:
            return fallback
        return sum(self.durations[lo:hi]) / (hi - lo) / PROBE_NOMINAL_S


class Timed:
    """A timed region: start, raw wall time, and the probe time and number
    of probes inside it."""

    __slots__ = ("start", "raw", "probe", "samples")

    def __init__(self, start: float, raw: float, probe: float, samples: int) -> None:
        self.start, self.raw, self.probe, self.samples = start, raw, probe, samples

    @property
    def net(self) -> float:
        return self.raw - self.probe

    def factor(self, fallback: float) -> float:
        if self.samples == 0:
            return fallback
        return (self.probe / self.samples) / PROBE_NOMINAL_S

    def normalized(self, fallback: float) -> float:
        return self.net / self.factor(fallback)


# ---------------------------------------------------------------------------
# Span tracer: wraps public module attributes from the outside.

class Tracer:
    """Records one span per call of each wrapped function.

    A span is [name, start, end, parent, probe_at_start, probe_at_end];
    spans stay in memory until the run writes them out.  The probe columns
    let self times exclude the time the speed probe stole.
    """

    def __init__(self, probe: SpeedProbe) -> None:
        self.probe = probe
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, probe = self.spans, self._stack, self.probe

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0,
                          stack[-1] if stack else -1, probe.total, 0.0])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                span = spans[idx]
                span[2] = time.perf_counter()
                span[5] = probe.total
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, targets: dict[str, object]) -> None:
        """``targets`` maps 'module.attr' span names to module objects."""
        for name, module in targets.items():
            attr = name.split(".", 1)[1]
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def self_times(self, first: int = 0) -> tuple[dict, dict, dict, float]:
        """(self seconds, call counts, total seconds, all by span name, and
        the total of root spans) over spans[first:], net of probe time."""
        spans = self.spans[first:]
        net = [(s[2] - s[1]) - (s[5] - s[4]) for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            parent = s[3] - first
            if parent >= 0:
                child[parent] += net[i]
        selfs: dict[str, float] = {}
        calls: dict[str, int] = {}
        totals: dict[str, float] = {}
        roots = 0.0
        for i, s in enumerate(spans):
            selfs[s[0]] = selfs.get(s[0], 0.0) + net[i] - child[i]
            calls[s[0]] = calls.get(s[0], 0) + 1
            totals[s[0]] = totals.get(s[0], 0.0) + net[i]
            if s[3] < first:
                roots += net[i]
        return selfs, calls, totals, roots


# ---------------------------------------------------------------------------
# Small statistics helpers.

def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in (0, 100])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]
