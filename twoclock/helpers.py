"""Arithmetic shared by the benchmark: reference kernel, normalization,
tail percentiles, span self times and the simulated-results digest.

Everything here is pure (no platform imports) so the self-tests in
``test_helpers.py`` can check it in isolation.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

#: Kernel seconds on the reference host.  A host on which
#: :func:`reference_kernel` takes exactly this long has speed 1.0, and
#: normalized host seconds are seconds on that host.
REFERENCE_KERNEL_S = 0.025

#: Percentile ladder for the tail metric: the upper quartile, then the
#: "nines" a latency SLO is written against.  The tail is the highest
#: rung with at least :data:`TAIL_MIN_BEYOND` samples beyond it.
TAIL_LADDER = (50.0, 75.0, 90.0, 99.0, 99.9, 99.99)
TAIL_MIN_BEYOND = 10

_KERNEL_ARRAY = np.arange(1, 100_001, dtype=np.float64)


def reference_kernel() -> int:
    """Fixed host work: a pure-Python int/dict loop plus NumPy passes.

    It shares no code with the platform, so a change to the platform
    never changes the yardstick it is measured with.
    """
    table: Dict[int, int] = {}
    acc = 0
    for i in range(60_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[i & 1023] = acc
    values = _KERNEL_ARRAY
    for _ in range(16):
        values = np.sqrt(values * 1.0001 + 1.0)
    return acc + int(values[-1])


def time_reference_kernel() -> float:
    """Host seconds one :func:`reference_kernel` call takes right now."""
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


def host_speed(kernel_before_s: float, kernel_after_s: float) -> float:
    """Host speed relative to the reference host (>1 means faster)."""
    return REFERENCE_KERNEL_S / ((kernel_before_s + kernel_after_s) / 2.0)


def normalize(raw_s: float, kernel_before_s: float, kernel_after_s: float) -> float:
    """Raw host seconds of a phase as seconds on the reference host.

    The phase is bracketed by two kernel timings; their mean stands for
    the host's speed while the phase ran.
    """
    if raw_s < 0 or kernel_before_s <= 0 or kernel_after_s <= 0:
        raise ValueError("timings must be positive")
    return raw_s * host_speed(kernel_before_s, kernel_after_s)


def nearest_rank(ordered: Sequence[float], q: float) -> Tuple[float, int]:
    """The q-th percentile of sorted samples by nearest rank, and how
    many samples lie beyond it."""
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def tail_percentile(samples: Sequence[float]) -> Tuple[float, float, int]:
    """``(percentile, value, samples beyond)`` for the highest ladder rung
    with at least :data:`TAIL_MIN_BEYOND` samples beyond it.

    Falls back to the median when even p50 has fewer than that (the
    sample count printed beside it says how little it rests on).
    """
    if not samples:
        raise ValueError("tail of no samples")
    ordered = sorted(samples)
    best = None
    for q in TAIL_LADDER:
        value, beyond = nearest_rank(ordered, q)
        if beyond >= TAIL_MIN_BEYOND:
            best = (q, value, beyond)
    if best is None:
        value, beyond = nearest_rank(ordered, TAIL_LADDER[0])
        best = (TAIL_LADDER[0], value, beyond)
    return best


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Self time of each span: its duration minus the part of its
    interval that its direct children cover.

    ``spans[i]`` is ``(layer, start, end, parent)`` with ``parent`` the
    index of the enclosing span or -1.  Children are clipped to their
    parent and overlapping children are counted once.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for layer, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (layer, start, end, parent) in enumerate(spans):
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo = max(child_start, cursor)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append((end - start) - covered)
    return result


def layer_self_times(spans: Sequence[Sequence]) -> Dict[str, float]:
    """Self time summed per layer."""
    totals: Dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span[0]] = totals.get(span[0], 0.0) + own
    return totals


def covered_time(spans: Sequence[Sequence]) -> float:
    """Host time inside any top-level span (the rest is ``other``)."""
    return sum(end - start for _, start, end, parent in spans if parent < 0)


#: Counter families that depend on the host, not the simulation: the
#: process-global AEAD cache and the real (wall-clock) crypto timers.
_HOST_DEPENDENT = ("aead_cache", "real_crypto")


def scrub(flat: Mapping[str, float]) -> Dict[str, float]:
    """Drop host-dependent counters from a flattened metrics snapshot."""
    return {
        key: value
        for key, value in flat.items()
        if not any(marker in key for marker in _HOST_DEPENDENT)
    }


def digest(results: object) -> str:
    """Stable digest of simulated results (floats keep every digit)."""
    canonical = json.dumps(results, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def sub_seed(workload: str, seed: int, index: int) -> int:
    """The ``index``-th platform seed a run with ``--seed`` uses."""
    raw = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(raw[:4], "big") & 0x7FFFFFFF
