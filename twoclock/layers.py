"""Traced runs: spans around each layer's entry points, and the
per-layer metrics derived from them.

The wrappers live here, in the benchmark's own files: they patch the
platform's classes and module functions for the duration of one traced
episode and restore them afterwards, so untraced episodes run the
program exactly as shipped.  Spans are kept in memory; a layer's host
time is its spans' self time (duration minus the wrapped calls nested
inside).  Time outside every span is the ``other`` row.

A wrap site that no longer exists (a renamed method) is skipped and
reported, and its time shows up in the enclosing layer or ``other``.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from helpers import covered_time, layer_self_times

#: Rows of the per-layer table, in print order.
LAYERS = (
    "_sim",
    "crypto.codec",
    "crypto.chacha",
    "crypto.ed25519",
    "crypto.x25519",
    "enclave.epc",
    "runtime.fs_shield",
    "runtime.net_shield",
    "cluster.network",
    "cluster.rpc",
    "cluster.ps",
    "cas",
    "serving.router",
    "tensor",
)


def _nbytes(value) -> int:
    return len(value) if isinstance(value, (bytes, bytearray, memoryview)) else 0


# Counters: called as ``count(counts, args, kwargs, result)`` after a
# wrapped call returns.  They count only calls, bytes and sizes — values
# fixed by the simulation, so they repeat exactly for a seed.


def _count_codec_encode(counts, args, kwargs, result):
    counts["crypto.codec.calls"] += 1
    counts["crypto.codec.bytes"] += _nbytes(result)


def _count_codec_decode(counts, args, kwargs, result):
    counts["crypto.codec.calls"] += 1
    counts["crypto.codec.bytes"] += _nbytes(args[0] if args else kwargs.get("data"))


def _count_keystream(counts, args, kwargs, result):
    n_bytes = _nbytes(result)
    counts["crypto.chacha.calls"] += 1
    counts["crypto.chacha.bytes"] += n_bytes
    if n_bytes <= 1024:
        counts["crypto.chacha.small"] += 1


def _count_sign(counts, args, kwargs, result):
    counts["crypto.ed25519.signs"] += 1


def _count_verify(counts, args, kwargs, result):
    counts["crypto.ed25519.verifies"] += 1


def _count_x25519(counts, args, kwargs, result):
    counts["crypto.x25519.calls"] += 1


def _count_fs_write(counts, args, kwargs, result):
    # write_file(self, path, plaintext, declared_size)
    payload = args[2] if len(args) > 2 else kwargs.get("plaintext")
    counts["runtime.fs_shield.bytes_written"] += _nbytes(payload)


def _count_fs_read(counts, args, kwargs, result):
    counts["runtime.fs_shield.bytes_read"] += _nbytes(result)


def _count_record(counts, args, kwargs, result):
    counts["runtime.net_shield.records"] += 1


def _count_rpc_call(counts, args, kwargs, result):
    counts["cluster.rpc.calls"] += 1


def _count_provision(counts, args, kwargs, result):
    counts["cas.provisions"] += 1


def _count_tensor_run(counts, args, kwargs, result):
    counts["tensor.runs"] += 1


#: (layer, module, attribute path, counter).  Entry points only: the
#: public calls into a layer, or the handler a layer registers with the
#: network (which is how requests enter it).
SITES: Sequence[Tuple[str, str, str, Optional[Callable]]] = (
    ("_sim", "repro._sim.scheduler", "Scheduler.run", None),
    ("_sim", "repro._sim.scheduler", "Scheduler.run_until", None),
    ("crypto.codec", "repro.crypto.encoding", "encode", _count_codec_encode),
    ("crypto.codec", "repro.crypto.encoding", "decode", _count_codec_decode),
    ("crypto.chacha", "repro.crypto.chacha", "chacha20_keystream", _count_keystream),
    ("crypto.chacha", "repro.crypto.chacha", "ChaCha20Poly1305.encrypt", None),
    ("crypto.chacha", "repro.crypto.chacha", "ChaCha20Poly1305.decrypt", None),
    ("crypto.ed25519", "repro.crypto.ed25519", "Ed25519PrivateKey.sign", _count_sign),
    ("crypto.ed25519", "repro.crypto.ed25519", "Ed25519PublicKey.verify", _count_verify),
    ("crypto.x25519", "repro.crypto.x25519", "x25519", _count_x25519),
    ("enclave.epc", "repro.enclave.epc", "EpcCache.access_range", None),
    ("enclave.epc", "repro.enclave.memory", "EnclaveMemory.touch", None),
    ("enclave.epc", "repro.enclave.memory", "EnclaveMemory.touch_window", None),
    ("enclave.epc", "repro.enclave.memory", "EnclaveMemory.touch_cyclic", None),
    ("runtime.fs_shield", "repro.runtime.fs_shield", "FileSystemShield.write_file", _count_fs_write),
    ("runtime.fs_shield", "repro.runtime.fs_shield", "FileSystemShield.read_file", _count_fs_read),
    ("runtime.net_shield", "repro.crypto.tls", "RecordLayer.protect", _count_record),
    ("runtime.net_shield", "repro.crypto.tls", "RecordLayer.unprotect", _count_record),
    ("cluster.network", "repro.cluster.network", "Network.call", None),
    ("cluster.network", "repro.cluster.network", "Network.call_async", None),
    ("cluster.network", "repro.cluster.network", "Network._deliver", None),
    ("cluster.network", "repro.cluster.network", "Network._finish_reply", None),
    ("cluster.rpc", "repro.cluster.rpc", "RpcClient.call", _count_rpc_call),
    ("cluster.rpc", "repro.cluster.rpc", "RpcClient.begin_call", _count_rpc_call),
    ("cluster.rpc", "repro.cluster.rpc", "SecureConnection.call", _count_rpc_call),
    ("cluster.rpc", "repro.cluster.rpc", "SecureConnection.begin_call", _count_rpc_call),
    ("cluster.rpc", "repro.cluster.rpc", "RpcServer._handle", None),
    ("cluster.rpc", "repro.cluster.rpc", "SecureRpcServer._handle", None),
    ("cluster.ps", "repro.cluster.parameter_server", "ParameterServer._handle_pull", None),
    ("cluster.ps", "repro.cluster.parameter_server", "ParameterServer._handle_push", None),
    ("cas", "repro.cas.service", "CasService.provision", _count_provision),
    ("serving.router", "repro.serving.router", "FrontEndRouter._handle", None),
    ("serving.router", "repro.serving.router", "FrontEndRouter._on_attempt_done", None),
    ("serving.router", "repro.serving.router", "FrontEndRouter._hedge", None),
    ("serving.router", "repro.serving.router", "FrontEndRouter._expire", None),
    ("tensor", "repro.tensor.session", "Session.run", _count_tensor_run),
)


class Tracer:
    """In-memory span recorder installed around the wrap sites."""

    def __init__(self) -> None:
        self.spans: List[list] = []  # [layer, start, end, parent]
        self.counts: Counter = Counter()
        self.recording = False
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._depth = 0
        self.bridge_calls = 0
        self.bridge_depth_max = 0
        self._patched: List[Tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _wrap(self, layer: str, fn, count, is_bridge: bool):
        tracer = self
        clock = time.perf_counter
        spans = self.spans
        stack = self._stack
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            if is_bridge:
                tracer.bridge_calls += 1
                tracer._depth += 1
                tracer.bridge_depth_max = max(tracer.bridge_depth_max, tracer._depth)
            span = [layer, 0.0, 0.0, parent]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if is_bridge:
                    tracer._depth -= 1
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Patch every wrap site (before the episode builds its platform,
        so bound methods registered as handlers are the wrapped ones)."""
        self.missing = []
        for layer, module_name, path, count in SITES:
            owner_name, _, attr = path.rpartition(".")
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name, None) if owner_name else module
            original = owner.__dict__.get(attr) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            is_bridge = path == "Scheduler.run_until"
            setattr(owner, attr, self._wrap(layer, original, count, is_bridge))
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()
        self.counts.clear()
        self.bridge_calls = 0
        self.bridge_depth_max = 0

    # -- results ---------------------------------------------------------

    def layer_table(self, measured_s: float) -> Dict[str, float]:
        """Raw host seconds per layer plus ``other``; sums to ``measured_s``."""
        own = layer_self_times(self.spans)
        table = {layer: own.get(layer, 0.0) for layer in LAYERS}
        table["other"] = measured_s - covered_time(self.spans)
        return table


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _sum(delta: Dict[str, float], prefix: str, suffix: str) -> float:
    return sum(
        value
        for key, value in delta.items()
        if key.startswith(prefix) and key.endswith(suffix)
    )


def per_layer_metrics(
    delta: Dict[str, float],
    heap_peak: float,
    epc_accesses: float,
    counts: Counter,
    bridge: Tuple[int, int],
    host_s: Dict[str, float],
) -> Dict[str, float]:
    """Every per-layer metric of one traced measured phase.

    ``delta`` is the measured phase's change in the flattened platform
    counters; ``counts`` and ``bridge`` come from the wrappers;
    ``host_s`` is normalized self time per layer.
    """
    events = delta.get("sim_core.events_fired", 0.0)
    metrics = {
        "sim.events": events,
        "sim.heap_peak": heap_peak,
        "sim.host_us_per_event": _ratio(host_s["_sim"] * 1e6, events),
        "sim.bridge_calls": bridge[0],
        "sim.bridge_depth_max": bridge[1],
        "crypto.codec.calls": counts["crypto.codec.calls"],
        "crypto.codec.bytes": counts["crypto.codec.bytes"],
        "crypto.codec.host_s": host_s["crypto.codec"],
        "crypto.chacha.calls": counts["crypto.chacha.calls"],
        "crypto.chacha.bytes": counts["crypto.chacha.bytes"],
        "crypto.chacha.small_share": _ratio(
            counts["crypto.chacha.small"], counts["crypto.chacha.calls"]
        ),
        "crypto.chacha.host_s": host_s["crypto.chacha"],
        "crypto.ed25519.signs": counts["crypto.ed25519.signs"],
        "crypto.ed25519.verifies": counts["crypto.ed25519.verifies"],
        "crypto.ed25519.host_s": host_s["crypto.ed25519"],
        "crypto.x25519.calls": counts["crypto.x25519.calls"],
        "crypto.x25519.host_s": host_s["crypto.x25519"],
        "enclave.epc.accesses": epc_accesses,
        "enclave.epc.faults": _sum(delta, "nodes.", ".epc_faults"),
        "enclave.epc.fault_sim_s": _sum(delta, "nodes.", ".epc_fault_time"),
        "enclave.epc.host_s": host_s["enclave.epc"],
        "enclave.transitions": _sum(delta, "nodes.", ".enclave_transitions"),
        "runtime.syscall.calls": delta.get("syscalls.calls", 0.0),
        "runtime.syscall.sim_s": delta.get("syscalls.time", 0.0),
        "runtime.syscall.sync_fallbacks": delta.get("syscalls.sync_fallbacks", 0.0),
        "runtime.syscall.backpressure_stalls": delta.get(
            "syscalls.backpressure_stalls", 0.0
        ),
        "runtime.fs_shield.bytes_read": counts["runtime.fs_shield.bytes_read"],
        "runtime.fs_shield.bytes_written": counts["runtime.fs_shield.bytes_written"],
        "runtime.fs_shield.chunk_cache_hit_ratio": _ratio(
            delta.get("shields.fs_chunk_cache_hits", 0.0),
            delta.get("shields.fs_chunk_cache_hits", 0.0)
            + delta.get("shields.fs_chunk_cache_misses", 0.0),
        ),
        "runtime.fs_shield.host_s": host_s["runtime.fs_shield"],
        "runtime.net_shield.records": counts["runtime.net_shield.records"],
        "runtime.net_shield.bytes": delta.get("shields.net_crypto_bytes", 0.0),
        "runtime.net_shield.sim_s": delta.get("shields.net_crypto_time", 0.0),
        "runtime.net_shield.host_s": host_s["runtime.net_shield"],
        "cluster.network.messages": delta.get("network_messages", 0.0),
        "cluster.network.bytes": delta.get("network_bytes", 0.0),
        "cluster.network.dropped": delta.get("network_dropped", 0.0),
        "cluster.network.host_s": host_s["cluster.network"],
        "cluster.rpc.calls": counts["cluster.rpc.calls"],
        "cluster.rpc.retries": delta.get("recovery.retries", 0.0),
        "cluster.rpc.reconnects": delta.get("recovery.reconnects", 0.0),
        "cluster.rpc.host_s": host_s["cluster.rpc"],
        "cluster.ps.pushes": delta.get("training.pushes", 0.0),
        "cluster.ps.gradient_bytes": delta.get("training.gradient_bytes_in", 0.0),
        "cluster.ps.bytes_saved": delta.get("training.gradient_bytes_saved", 0.0),
        "cluster.ps.host_s": host_s["cluster.ps"],
        "cas.provisions": counts["cas.provisions"],
        "cas.host_s": host_s["cas"],
        "serving.admitted": delta.get("serving.admitted", 0.0),
        "serving.retries": delta.get("serving.retries", 0.0),
        "serving.hedges_fired": delta.get("serving.hedges_fired", 0.0),
        "serving.router.host_s": host_s["serving.router"],
        "tensor.runs": counts["tensor.runs"],
        "tensor.host_s": host_s["tensor"],
    }
    return metrics
