"""Crypto data-plane throughput: real MB/s of the AEADs and shield paths.

Unlike the figure benchmarks, which report *simulated* time, this one
measures the wall-clock throughput of the cryptography the simulator
actually executes — the vectorized AES-GCM and ChaCha20-Poly1305 cores
and the file-system shield built on them — and the per-operation rate
of the short messages that dominate handshakes and RPC traffic: 64 B
and 1 KiB ChaCha20-Poly1305 seal/open, Ed25519 sign/verify.  Results go
to ``benchmark.extra_info`` and are persisted in ``BENCH.json`` so the
repo's perf trajectory is tracked PR over PR.

Seed baseline for reference: AES-GCM ~0.2 MB/s (bigint GHASH, serial
CTR), ChaCha20-Poly1305 ~22 MB/s (serial bigint Poly1305).  Before the
small-message fast paths a 64 B seal took ~3-4 ms (two per-call numpy
keystreams) and an Ed25519 sign/verify ~2.5/5 ms (double-and-add).
"""

import os
import time

from harness import print_table, record, run_once, save_bench

from repro._sim import SimClock
from repro.crypto.aead import get_aead
from repro.crypto.ed25519 import Ed25519PrivateKey
from repro.enclave.cost_model import DEFAULT_COST_MODEL
from repro.enclave.sgx import SgxMode
from repro.runtime.fs_shield import FileSystemShield, PathRule, ShieldPolicy
from repro.runtime.syscall import SyscallInterface
from repro.runtime.vfs import VirtualFileSystem

MESSAGE_SIZE = 1 << 20
REPEATS = 5
CIPHERS = ("chacha20-poly1305", "aes-256-gcm", "aes-128-gcm")
SMALL_SIZES = (64, 1024)
OPS_PER_REPEAT = 50


def _mb_per_s(n_bytes: int, fn) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return n_bytes / best / 1e6


def _aead_throughputs() -> dict:
    results = {}
    payload = os.urandom(MESSAGE_SIZE)
    nonce = os.urandom(12)
    for cipher in CIPHERS:
        key = os.urandom(32 if cipher != "aes-128-gcm" else 16)
        aead = get_aead(cipher, key)
        sealed = aead.encrypt(nonce, payload)
        results[f"{cipher}_encrypt_mb_s"] = _mb_per_s(
            MESSAGE_SIZE, lambda a=aead: a.encrypt(nonce, payload)
        )
        results[f"{cipher}_decrypt_mb_s"] = _mb_per_s(
            MESSAGE_SIZE, lambda a=aead: a.decrypt(nonce, sealed)
        )
    return results


def _ops_per_s(fn) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        for _ in range(OPS_PER_REPEAT):
            fn()
        best = min(best, time.perf_counter() - started)
    return OPS_PER_REPEAT / best


def _small_message_rates() -> dict:
    results = {}
    aead = get_aead("chacha20-poly1305", os.urandom(32))
    nonce = os.urandom(12)
    for size in SMALL_SIZES:
        payload = os.urandom(size)
        sealed = aead.encrypt(nonce, payload)
        results[f"chacha20-poly1305_seal_{size}b_ops_s"] = _ops_per_s(
            lambda: aead.encrypt(nonce, payload)
        )
        results[f"chacha20-poly1305_open_{size}b_ops_s"] = _ops_per_s(
            lambda: aead.decrypt(nonce, sealed)
        )
    key = Ed25519PrivateKey(os.urandom(32))
    public = key.public_key()
    signature = key.sign(b"quote")
    results["ed25519_sign_ops_s"] = _ops_per_s(lambda: key.sign(b"quote"))
    results["ed25519_verify_ops_s"] = _ops_per_s(
        lambda: public.verify(signature, b"quote")
    )
    return results


def _make_shield(cipher: str) -> FileSystemShield:
    vfs = VirtualFileSystem()
    clock = SimClock()
    syscalls = SyscallInterface(vfs, DEFAULT_COST_MODEL, clock, mode=SgxMode.NATIVE)
    return FileSystemShield(
        syscalls,
        bytes(range(32)),
        [PathRule("/secure/", ShieldPolicy.ENCRYPT)],
        DEFAULT_COST_MODEL,
        clock,
        cipher=cipher,
    )


def _shield_throughputs() -> dict:
    results = {}
    payload = os.urandom(MESSAGE_SIZE)
    for cipher in CIPHERS:
        shield = _make_shield(cipher)
        results[f"fs_shield_{cipher}_write_mb_s"] = _mb_per_s(
            MESSAGE_SIZE, lambda s=shield: s.write_file("/secure/bench", payload)
        )
        # Cold read: caches dropped before every iteration.
        results[f"fs_shield_{cipher}_read_cold_mb_s"] = _mb_per_s(
            MESSAGE_SIZE,
            lambda s=shield: (s.drop_caches(), s.read_file("/secure/bench")),
        )
        # Warm read: chunk cache populated by the previous read.
        shield.read_file("/secure/bench")
        results[f"fs_shield_{cipher}_read_warm_mb_s"] = _mb_per_s(
            MESSAGE_SIZE, lambda s=shield: s.read_file("/secure/bench")
        )
    return results


def _collect() -> dict:
    results = _aead_throughputs()
    results.update(_shield_throughputs())
    results.update(_small_message_rates())
    return results


def test_crypto_dataplane_throughput(benchmark):
    results = run_once(benchmark, _collect)

    rows = []
    for cipher in CIPHERS:
        rows.append(
            (
                cipher,
                f"{results[f'{cipher}_encrypt_mb_s']:.1f}",
                f"{results[f'{cipher}_decrypt_mb_s']:.1f}",
                f"{results[f'fs_shield_{cipher}_write_mb_s']:.1f}",
                f"{results[f'fs_shield_{cipher}_read_cold_mb_s']:.1f}",
                f"{results[f'fs_shield_{cipher}_read_warm_mb_s']:.1f}",
            )
        )
    print_table(
        "Crypto data plane — real throughput (MB/s)",
        ("cipher", "encrypt", "decrypt", "shield write", "read cold", "read warm"),
        rows,
        notes=[
            "seed baseline: aes-gcm ~0.2 MB/s, chacha20-poly1305 ~22 MB/s",
            "warm reads serve plaintext chunks from the freshness-bound cache",
        ],
    )
    print_table(
        "Crypto small messages — real rate (ops/s)",
        ("operation", "64 B", "1 KiB"),
        [
            (
                f"chacha20-poly1305 {op}",
                *(f"{results[f'chacha20-poly1305_{op}_{size}b_ops_s']:.0f}" for size in SMALL_SIZES),
            )
            for op in ("seal", "open")
        ]
        + [
            ("ed25519 sign", f"{results['ed25519_sign_ops_s']:.0f}", "-"),
            ("ed25519 verify", f"{results['ed25519_verify_ops_s']:.0f}", "-"),
        ],
        notes=[
            "before the fast paths: 64 B seal ~250-400 ops/s, sign ~400, verify ~200",
        ],
    )
    record(benchmark, **results)
    save_bench("crypto_dataplane", {k: round(v, 2) for k, v in results.items()})

    # Acceptance floors from the data-plane rework (conservative: CI
    # machines vary, but regressions to the seed's bigint paths are
    # orders of magnitude, not percent).
    assert results["chacha20-poly1305_encrypt_mb_s"] >= 45.0
    assert results["aes-256-gcm_encrypt_mb_s"] >= 10.0
    assert results["aes-128-gcm_encrypt_mb_s"] >= 10.0
    # The warm read path must beat the cold one — that's the cache.
    for cipher in CIPHERS:
        assert (
            results[f"fs_shield_{cipher}_read_warm_mb_s"]
            > results[f"fs_shield_{cipher}_read_cold_mb_s"]
        )
