"""Closed-loop timing, operation accounting and the machine record."""

import bisect
import os
import platform
import signal
import statistics
import sys
import time
from contextlib import contextmanager

# Pinned to "1" by run.py before numpy is imported.
THREAD_ENV = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


PROBE_INTERVAL_S = 0.1
PROBE_NOMINAL_S = 0.0012        # the probe's time on an uncontended core of the reference machine
PROBE_WINDOW_S = 0.5


class SpeedProbe:
    """Samples how fast the core runs while the benchmark is timing.

    The machines this runs on are shared: a core's speed drifts by 30-60%
    between states that last from seconds to minutes, longer than a run can
    average out. Every ``PROBE_INTERVAL_S`` a timer signal times a fixed
    computation in the benchmark's own process, mixing interpreted Python
    and small BLAS products as the workloads do. ``seconds`` gives an
    interval's wall time net of the probes that ran inside it.
    ``normalised`` rescales that time to the reference speed: each probe
    stands for an equal slice of time, so the interval's work is its net
    time times the mean of ``PROBE_NOMINAL_S / probe time`` over the probes
    inside it (or within ``PROBE_WINDOW_S`` of a short interval). Probing
    takes about 1.5% of the core.
    """

    def __init__(self):
        self.starts, self.durations = [], []
        self._busy = False
        self._previous = None

    def start(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._a, self._b = rng.standard_normal((2, 96, 96)) / 10
        self._np = np
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def _work(self):
        s = 0
        for i in range(10_000):
            s += i * i % 7
        x = self._a
        for _ in range(10):
            x = self._np.tanh(x @ self._b)
        return s, x

    def _sample(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        self._work()
        self.durations.append(time.perf_counter() - start)
        self.starts.append(start)
        self._busy = False

    def _between(self, lo, hi):
        return self.durations[bisect.bisect_left(self.starts, lo):bisect.bisect_left(self.starts, hi)]

    def seconds(self, start, end):
        """Wall time of [start, end) minus the probes that ran inside it."""
        return end - start - sum(self._between(start, end))

    def normalised(self, start, end):
        """``seconds(start, end)`` at the reference speed."""
        probes = self._between(start, end)
        if len(probes) < 3:
            probes = self._between(start - PROBE_WINDOW_S, end + PROBE_WINDOW_S)
        if not probes:
            return self.seconds(start, end)
        return self.seconds(start, end) * PROBE_NOMINAL_S * statistics.fmean(1.0 / d for d in probes)


class Stat:
    """A timing metric over measured samples.

    A sample is one (start, end) interval, or a list of intervals whose times
    add up, for an operation whose output is checked between its parts.
    ``kind`` is "rate" (``work`` per second of all samples), "mean", or a
    percentile, of the per-sample times multiplied by ``scale``.
    """

    def __init__(self, unit, intervals, kind=50, scale=1.0, work=None):
        self.unit, self.intervals, self.kind, self.scale, self.work = (
            unit, intervals, kind, scale, work)

    @property
    def samples(self):
        return len(self.intervals)

    def value(self, seconds):
        """The metric with interval times taken by ``seconds(start, end)``."""
        def sample_seconds(sample):
            if isinstance(sample, list):
                return sum(seconds(a, b) for a, b in sample)
            return seconds(*sample)

        if self.kind == "rate":
            return self.work / sum(sample_seconds(x) for x in self.intervals)
        times = [sample_seconds(x) * self.scale for x in self.intervals]
        return statistics.fmean(times) if self.kind == "mean" else percentile(times, self.kind)


def closed_loop(seconds, min_ops=1):
    """Yield operation indices until ``seconds`` have passed (at least ``min_ops``).

    One caller issues the next operation only after the previous one
    returned, so a slower program simply completes fewer operations.
    """
    start = time.perf_counter()
    i = 0
    while i < min_ops or time.perf_counter() - start < seconds:
        yield i
        i += 1


class Recorder:
    """Times operations; in a traced run every second operation of a phase is traced.

    Alternating keeps traced and untraced operations under the same machine
    conditions, so their difference is the tracing overhead.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.ops = []
        self._per_phase = {}

    @contextmanager
    def op(self, phase, units=1):
        """Time one operation; the yielded record gets ``start``, ``end`` and ``seconds``.

        Seconds the workload spends checking outputs inside the operation go
        into the record's ``excluded``; ``seconds`` does not count them.
        """
        index = self._per_phase.get(phase, 0)
        self._per_phase[phase] = index + 1
        traced = self.tracer is not None and index % 2 == 1
        record = {"phase": phase, "traced": traced, "units": units, "excluded": 0.0}
        if traced:
            self.tracer.op += 1
            self.tracer.install()
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            record["seconds"] = record["end"] - record["start"] - record["excluded"]
            if traced:
                self.tracer.uninstall()
            self.ops.append(record)

    def traced_units(self):
        return sum(r["units"] for r in self.ops if r["traced"])

    def traced_seconds(self):
        return sum(r["seconds"] for r in self.ops if r["traced"])

    def overhead(self):
        """(share, ms per unit): traced time over the untraced time of the same work."""
        traced = [r for r in self.ops if r["traced"]]
        if not traced:
            return 0.0, 0.0
        expected = 0.0
        for phase in {r["phase"] for r in traced}:
            base = [r for r in self.ops if r["phase"] == phase and not r["traced"]]
            rate = sum(r["seconds"] for r in base) / sum(r["units"] for r in base)
            expected += rate * sum(r["units"] for r in traced if r["phase"] == phase)
        actual = sum(r["seconds"] for r in traced)
        units = sum(r["units"] for r in traced)
        return actual / expected - 1.0, (actual - expected) * 1000.0 / units


def median(values):
    return statistics.median(values) if values else float("nan")


def percentile(values, q):
    """Linear-interpolated percentile, q in [0, 100]."""
    data = sorted(values)
    if not data:
        return float("nan")
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def has_tail(samples, q):
    """Whether at least ten samples lie beyond the q-th percentile."""
    return samples * (100 - q) / 100.0 >= 10


def peak_rss_mb():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment():
    """What the numbers depend on, so runs from different machines are never mixed silently."""
    import numpy

    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: deps.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):  # numpy < 2 has no dict mode
        blas = {"name": "unknown"}
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": nproc,
        "cpu": cpu,
        "platform": platform.platform(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }
