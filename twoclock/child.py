"""The measured process: runs one workload's episodes and prints the
result.  Started by ``run.py`` in a fresh interpreter with a pinned
environment; not meant to be run by hand.

An episode is: generate inputs, set the deployment up (timed), run the
measured phase (timed), check the outputs, digest the simulated
results.  Each timed stretch is bracketed by reference-kernel timings
and normalized by them (``helpers.normalize``); the measured phase is
timed segment by segment between the pauses its workload yields.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import helpers
from layers import LAYERS, Tracer, per_layer_metrics
from workloads import WORKLOADS, CheckFailed

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"

#: The declared metrics, ``{"end_to_end": {name: unit}, "per_layer": ...}``:
#: what a run reports, and in which unit, comes from ``BENCHMARK.json``.
_SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
DECLARED = {
    kind: {metric["name"]: metric["unit"] for metric in _SPEC[kind]}
    for kind in ("end_to_end", "per_layer")
}

#: Platform seeds a run cycles through.  Host cost differs a little from
#: seed to seed, so several seeds per run keep that out of the run's
#: medians; each seed repeats, which feeds the determinism guard.
SEEDS_PER_RUN = 4


class DeterminismError(AssertionError):
    """An episode did not reproduce its seed's simulated results."""


@dataclass
class Episode:
    seed: int
    raw_setup_s: float
    raw_measured_s: float
    setup_s: float  # normalized
    measured_s: float  # normalized
    speed: float  # mean host speed over the measured phase
    attempted: int
    ok: int
    latencies: List[float]
    digest: str
    delta: Dict[str, float] = field(default_factory=dict)
    epc_accesses: float = 0.0
    heap_peak: float = 0.0  # over the measured phase
    layer_s: Optional[Dict[str, float]] = None  # normalized, traced only
    counts: Optional[Counter] = None
    bridge: tuple = (0, 0)


def _epc_accesses(platform) -> float:
    return float(sum(node.cpu.epc.stats.accesses for node in platform.nodes))


def _run_measured(phase) -> Tuple[float, float, object]:
    """Drive a workload's measured phase: ``(raw s, normalized s,
    outcome)``.

    Every segment between two pauses of the phase is timed on its own
    and normalized by the kernel timings right before and after it; the
    clock stops while the kernel runs.
    """
    raw = normalized = 0.0
    kernel_before = helpers.time_reference_kernel()
    while True:
        start = time.perf_counter()
        try:
            next(phase)
        except StopIteration as stop:
            outcome = stop.value
            done = True
        else:
            done = False
        elapsed = time.perf_counter() - start
        kernel_after = helpers.time_reference_kernel()
        raw += elapsed
        normalized += helpers.normalize(elapsed, kernel_before, kernel_after)
        kernel_before = kernel_after
        if done:
            return raw, normalized, outcome


def run_episode(workload, seed: int, tracer: Optional[Tracer] = None) -> Episode:
    inputs = workload.inputs(seed)
    if tracer is not None:
        tracer.install()
    try:
        gc.collect()
        k0 = helpers.time_reference_kernel()
        t0 = time.perf_counter()
        state = workload.setup(seed, inputs)
        t1 = time.perf_counter()
        k1 = helpers.time_reference_kernel()
        try:
            platform = workload.platform(state)
            # Restart the heap's high-water mark: the peak counts from here.
            platform.scheduler.heap_peak = platform.scheduler.heap_size
            before = workload.counters(state)
            epc_before = _epc_accesses(platform)
            gc.collect()
            if tracer is not None:
                tracer.reset()
                tracer.recording = True
            raw_measured, measured, outcome = _run_measured(workload.run(state))
            if tracer is not None:
                tracer.recording = False
            after = workload.counters(state)
            epc_after = _epc_accesses(platform)
            workload.check(state, outcome)
            results = workload.results(state, outcome)
            results["counters"] = after
        finally:
            workload.close(state)
    finally:
        if tracer is not None:
            tracer.recording = False
            tracer.uninstall()
    speed = measured / raw_measured
    episode = Episode(
        seed=seed,
        raw_setup_s=t1 - t0,
        raw_measured_s=raw_measured,
        setup_s=helpers.normalize(t1 - t0, k0, k1),
        measured_s=measured,
        speed=speed,
        attempted=outcome.attempted,
        ok=outcome.ok,
        latencies=outcome.sim_latencies,
        digest=helpers.digest(results),
        delta={key: after[key] - before.get(key, 0.0) for key in after},
        epc_accesses=epc_after - epc_before,
        heap_peak=platform.scheduler.heap_peak,
    )
    if tracer is not None:
        episode.layer_s = {
            layer: seconds * speed
            for layer, seconds in tracer.layer_table(raw_measured).items()
        }
        episode.counts = Counter(tracer.counts)
        episode.bridge = (tracer.bridge_calls, tracer.bridge_depth_max)
    return episode


class DigestBook:
    """The determinism guard: every seed's episodes share one digest."""

    def __init__(self) -> None:
        self.digests: Dict[int, str] = {}

    def check(self, episode: Episode, what: str = "episode") -> None:
        known = self.digests.setdefault(episode.seed, episode.digest)
        if known != episode.digest:
            raise DeterminismError(
                f"{what} with seed {episode.seed} produced digest "
                f"{episode.digest}, earlier episodes produced {known}"
            )


def report(kind: str, values: Dict[str, float]) -> Dict[str, Dict[str, object]]:
    """``values`` as the result's metrics, with their declared units.

    ``kind`` is ``end_to_end`` or ``per_layer``; the values must cover
    exactly the metrics ``BENCHMARK.json`` declares for it.
    """
    declared = DECLARED[kind]
    if set(values) != set(declared):
        raise KeyError(
            f"{kind} metrics differ from BENCHMARK.json: measured but not "
            f"declared {sorted(set(values) - set(declared))}, declared but "
            f"not measured {sorted(set(declared) - set(values))}"
        )
    return {
        name: {"value": values[name], "unit": unit} for name, unit in declared.items()
    }


def measure(workload, seed: int, seconds: float) -> Dict[str, object]:
    """Untraced run: the end-to-end metrics."""
    seeds = [helpers.sub_seed(workload.name, seed, k) for k in range(SEEDS_PER_RUN)]
    run_episode(workload, helpers.sub_seed(workload.name, seed, -1))  # warm-up
    book = DigestBook()
    episodes: List[Episode] = []
    deadline = time.perf_counter() + seconds
    # At least one full pass over the seeds plus one repeat, so the
    # simulated metrics and the determinism guard always have their input.
    pooled: List[float] = []
    while time.perf_counter() < deadline or len(episodes) <= len(seeds):
        episode = run_episode(workload, seeds[len(episodes) % len(seeds)])
        book.check(episode)
        if len(episodes) < workload.sim_seeds:
            pooled.extend(episode.latencies)
        # Keep only scalars: what a run holds must not grow with the
        # number of episodes the host managed, or peak RSS would too.
        episode.latencies = []
        episode.delta = {}
        episodes.append(episode)

    tail_q, tail_value, beyond = helpers.tail_percentile(pooled)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = report("end_to_end", {
        "setup_s": statistics.median(e.setup_s for e in episodes),
        "ops_per_host_s": statistics.median(e.ok / e.measured_s for e in episodes),
        "host_rss_mb": rss_mb,
        "sim_op_ms": statistics.median(pooled) * 1e3,
        "sim_tail_ms": tail_value * 1e3,
    })
    print(f"workload {workload.name}: {len(episodes)} episodes over seeds "
          f"{seeds} (+1 warm-up)")
    print(f"  raw host: setup median {statistics.median(e.raw_setup_s for e in episodes):.4f} s, "
          f"measured median {statistics.median(e.raw_measured_s for e in episodes):.4f} s, "
          f"host speed median {statistics.median(e.speed for e in episodes):.3f} "
          f"(reference kernel {helpers.REFERENCE_KERNEL_S} s)")
    print(f"  sim_tail_ms is p{tail_q:g} of {len(pooled)} operations "
          f"({beyond} beyond it)")
    print("  digests: " + ", ".join(f"{s}={d}" for s, d in sorted(book.digests.items())))
    for name, metric in metrics.items():
        print(f"  {name:16s} {metric['value']:.6g} {metric['unit']}")
    attempted = sum(e.attempted for e in episodes)
    return {
        "correct": True,
        "attempted": attempted,
        "failed": attempted - sum(e.ok for e in episodes),
        "metrics": metrics,
    }


def _write_spans(tracer: Tracer, workload: str, seed: int) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{workload}-seed{seed}.spans.csv.gz"
    with gzip.open(path, "wt") as out:
        out.write("index,layer,start_us,duration_us,parent\n")
        origin = tracer.spans[0][1] if tracer.spans else 0.0
        for index, (layer, start, end, parent) in enumerate(tracer.spans):
            out.write(f"{index},{layer},{(start - origin) * 1e6:.3f},"
                      f"{(end - start) * 1e6:.3f},{parent}\n")
    return path


def trace(workload, seed: int, seconds: float) -> Dict[str, object]:
    """Traced run: per-layer metrics, checked against an untraced twin."""
    episode_seed = helpers.sub_seed(workload.name, seed, 0)
    run_episode(workload, helpers.sub_seed(workload.name, seed, -1))  # warm-up
    tracer = Tracer()
    book = DigestBook()
    plain: List[Episode] = []
    traced: List[Episode] = []
    spans_path = None
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        episode = run_episode(workload, episode_seed)
        book.check(episode)
        plain.append(episode)
        episode = run_episode(workload, episode_seed, tracer)
        book.check(episode, what="traced episode")
        traced.append(episode)
        if spans_path is None:
            spans_path = _write_spans(tracer, workload.name, seed)

    first = traced[0]
    host_s = {
        layer: sum(e.layer_s[layer] for e in traced) / len(traced)
        for layer in (*LAYERS, "other")
    }
    total = sum(e.measured_s for e in traced) / len(traced)
    untraced = sum(e.measured_s for e in plain) / len(plain)
    metrics = per_layer_metrics(
        first.delta, first.heap_peak, first.epc_accesses, first.counts,
        first.bridge, host_s,
    )

    print(f"workload {workload.name}: {len(traced)} traced + {len(plain)} untraced "
          f"episodes, seed {episode_seed}, digest {first.digest} (traced == untraced)")
    if tracer.missing:
        print("  wrap sites not found (their time falls to the caller): "
              + ", ".join(tracer.missing))
    print(f"  tracing overhead: traced / untraced measured host time = "
          f"{total / untraced:.3f}")
    print(f"  spans of the first traced episode: {os.path.relpath(spans_path)}")
    print(f"  {'layer':20s} {'self host s':>12s} {'share':>7s}")
    for layer, seconds in host_s.items():
        print(f"  {layer:20s} {seconds:12.4f} {seconds / total:7.1%}")
    print(f"  {'total (measured)':20s} {sum(host_s.values()):12.4f} "
          f"(traced measured phase {total:.4f})")
    attempted = sum(e.attempted for e in traced)
    return {
        "correct": True,
        "attempted": attempted,
        "failed": attempted - sum(e.ok for e in traced),
        "metrics": report("per_layer", metrics),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        if args.trace:
            result = trace(workload, args.seed, args.seconds)
        else:
            result = measure(workload, args.seed, args.seconds)
    except (CheckFailed, DeterminismError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
