"""Small measurement helpers shared by every workload.

- :func:`tail_percentile` / :func:`percentile`: the latency summary
  (median plus the highest percentile with at least ten samples
  beyond it);
- :func:`parse_prometheus` / :func:`metrics_delta` / :func:`total`:
  read the service's ``/metrics`` text and subtract two scrapes;
- :func:`vm_hwm_mb` / :func:`self_peak_rss_mb`: peak resident memory;
- :func:`calibrate` / :class:`Paced` / :func:`reference_seconds`:
  CPU-bound timings in reference-CPU seconds.
"""

from __future__ import annotations

import math
import re
import resource
import statistics
import time
from typing import Callable

#: candidate percentiles, highest first
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: samples a percentile needs beyond it before it is reported
MIN_BEYOND = 10


def tail_percentile(n: int) -> float | None:
    """The highest of :data:`PERCENTILES` with at least
    :data:`MIN_BEYOND` of *n* samples beyond it (None when even the
    median has fewer)."""
    for p in PERCENTILES:
        if n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9:
            return p
    return None


def samples_for(p: float) -> int:
    """The smallest sample count for which *p* is reportable."""
    return math.ceil(MIN_BEYOND * 100.0 / (100.0 - p) - 1e-9)


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile of *values* (need not be sorted)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


# -- Prometheus text exposition ---------------------------------------------

_SAMPLE = re.compile(
    r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})?\s+(\S+)(?:\s+\d+)?$')
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')

Key = tuple[str, tuple[tuple[str, str], ...]]


def parse_prometheus(text: str) -> dict[Key, float]:
    """``{(name, sorted label pairs): value}`` for every sample line;
    comments and blank lines are skipped."""
    out: dict[Key, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if match is None:
            raise ValueError(f"not a Prometheus sample: {line!r}")
        name, labels, value = match.groups()
        pairs = tuple(sorted(
            (k, v.replace('\\"', '"').replace("\\n", "\n")
             .replace("\\\\", "\\"))
            for k, v in _LABEL.findall(labels or "")))
        out[(name, pairs)] = float(value)
    return out


def merge(*scrapes: dict[Key, float]) -> dict[Key, float]:
    """Sum several scrapes sample by sample (one per shard)."""
    out: dict[Key, float] = {}
    for scrape in scrapes:
        for key, value in scrape.items():
            out[key] = out.get(key, 0.0) + value
    return out


def metrics_delta(before: dict[Key, float],
                  after: dict[Key, float]) -> dict[Key, float]:
    """``after - before`` per sample; a sample absent before counts
    from zero (a labelled child created during the phase)."""
    return {key: value - before.get(key, 0.0)
            for key, value in after.items()}


def total(samples: dict[Key, float], name: str, **match: str) -> float:
    """Sum of *name* over every sample whose labels include *match*."""
    want = set(match.items())
    return sum(value for (metric, labels), value in samples.items()
               if metric == name and want <= set(labels))


def by_label(samples: dict[Key, float], name: str,
             label: str) -> dict[str, float]:
    """``{label value: summed value}`` for *name*."""
    out: dict[str, float] = {}
    for (metric, labels), value in samples.items():
        if metric != name:
            continue
        for key, lv in labels:
            if key == label:
                out[lv] = out.get(lv, 0.0) + value
    return out


# -- memory -----------------------------------------------------------------


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def self_peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- reference-CPU time ------------------------------------------------------
#
# The machine's speed drifts by a third over tens of seconds when its
# neighbours are busy, and a CPU-bound timing drifts with it.  A fixed
# pure-Python loop run between timed samples measures that drift where
# it happens; a sample divided by the loop's slowdown is in reference
# seconds: the time it would take when the loop takes REF_KERNEL_S.
# The loop has two halves, because neighbours slow the interpreter
# (shared cores) and memory access (shared caches) by different
# amounts: small-dict arithmetic, and lookups scattered over a table
# larger than a core's share of the cache.

#: seconds one :func:`calibrate` pass takes on an idle reference vCPU
REF_KERNEL_S = 0.008

#: check time between two calibration passes, seconds
PACE_S = 0.1

_TABLE: dict[str, int] = {}
_PROBES: list[str] = []


def calibrate() -> float:
    """Wall time of one pass of a fixed pure-Python loop."""
    if not _TABLE:
        _TABLE.update((f"k{i}", i) for i in range(100000))
        _PROBES.extend(f"k{(i * 7919) % 100000}" for i in range(8000))
    started = time.perf_counter()
    small: dict[int, int] = {}
    for i in range(10000):
        key = i % 1000
        small[key] = small.get(key, 0) + len(str(i))
    total = 0
    for key in _PROBES:
        total += _TABLE[key]
    return time.perf_counter() - started


def slowdown() -> float:
    """The machine's current slowdown against the reference (median
    of three passes)."""
    return statistics.median(calibrate() for _ in range(3)) / REF_KERNEL_S


class Paced:
    """Timed samples, with a calibration pass after every
    :data:`PACE_S` of them; :meth:`normalized` divides each sample by
    the slowdown measured around it."""

    def __init__(self) -> None:
        self.groups: list[tuple[list[tuple[float, object]], float]] = []
        self._current: list[tuple[float, object]] = []
        self._busy = 0.0

    def add(self, seconds: float, tag: object = None) -> None:
        """Record a sample; call outside the timed region, since it
        may run a calibration pass."""
        self._current.append((seconds, tag))
        self._busy += seconds
        if self._busy >= PACE_S:
            self.flush()

    def flush(self) -> None:
        if self._current:
            self.groups.append((self._current, calibrate()))
            self._current = []
            self._busy = 0.0

    def raw(self) -> list[tuple[float, object]]:
        return [sample for group, _ in self.groups for sample in group]

    def normalized(self) -> list[tuple[float, object]]:
        """``(reference seconds, tag)`` per sample.  A group's
        slowdown is the median of its own pass and its neighbours'."""
        self.flush()
        kernels = [kernel for _, kernel in self.groups]
        out = []
        for g, (group, _) in enumerate(self.groups):
            factor = statistics.median(
                kernels[max(0, g - 1):g + 2]) / REF_KERNEL_S
            out += [(seconds / factor, tag) for seconds, tag in group]
        return out


def reference_seconds(step: Callable[[], float], repeats: int) -> float:
    """Median over *repeats* of ``step()`` (which returns the seconds
    it measured), each divided by the mean slowdown measured just
    before and just after it."""
    out = []
    for _ in range(repeats):
        before = slowdown()
        seconds = step()
        out.append(seconds * 2.0 / (before + slowdown()))
    return statistics.median(out)
