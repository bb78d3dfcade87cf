"""Tier-2 perf smoke: the fast crypto paths must not regress.

Excluded from tier-1 (see ``addopts`` in pyproject.toml); run with
``pytest -m tier2 tests/perf``.  The floors are deliberately far below
the measured numbers so that machine variance never trips them — only a
regression back toward the slow implementations will:

* bulk: ChaCha20-Poly1305 ~50 MB/s, AES-GCM ~15-20 MB/s on the dev
  container, against 0.2-25 MB/s for the serial implementations;
* small messages: a 64 B ChaCha20-Poly1305 seal ~4,000-6,000 ops/s, against
  ~250-400 ops/s when every AEAD op made two per-call numpy keystreams;
* Ed25519 on a 2-core VM: sign ~1,500-2,500 ops/s against ~450 with
  double-and-add.  Verify gains only ~2x (its variable-base half still
  needs 252 doublings): ~320-480 ops/s against ~150-220, so its floor
  sits between the two ranges rather than far below.
"""

import os
import time

import pytest

from repro.crypto.chacha import ChaCha20Poly1305
from repro.crypto.ed25519 import Ed25519PrivateKey
from repro.crypto.gcm import AesGcm

MESSAGE_SIZE = 1 << 20
REPEATS = 3

#: MB/s floors: conservative, see module docstring.
CHACHA_FLOOR = 30.0
GCM_FLOOR = 5.0

#: ops/s floors for short messages and signatures, see module docstring.
SMALL_SEAL_FLOOR = 1500.0
ED25519_SIGN_FLOOR = 800.0
ED25519_VERIFY_FLOOR = 250.0
OPS_PER_REPEAT = 50


def _best_mb_s(fn) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return MESSAGE_SIZE / best / 1e6


def _best_ops_s(fn) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        for _ in range(OPS_PER_REPEAT):
            fn()
        best = min(best, time.perf_counter() - started)
    return OPS_PER_REPEAT / best


@pytest.mark.tier2
@pytest.mark.slow
def test_chacha20_poly1305_throughput_floor():
    aead = ChaCha20Poly1305(bytes(range(32)))
    payload = os.urandom(MESSAGE_SIZE)
    rate = _best_mb_s(lambda: aead.encrypt(b"\x01" * 12, payload))
    assert rate >= CHACHA_FLOOR, f"ChaCha20-Poly1305 at {rate:.1f} MB/s"


@pytest.mark.tier2
@pytest.mark.slow
def test_aes_gcm_throughput_floor():
    aead = AesGcm(bytes(range(16)))
    payload = os.urandom(MESSAGE_SIZE)
    aead.encrypt(b"\x01" * 12, payload)  # build stride tables outside timing
    rate = _best_mb_s(lambda: aead.encrypt(b"\x01" * 12, payload))
    assert rate >= GCM_FLOOR, f"AES-GCM at {rate:.1f} MB/s"


@pytest.mark.tier2
def test_small_message_seal_rate_floor():
    aead = ChaCha20Poly1305(bytes(range(32)))
    payload = os.urandom(64)
    rate = _best_ops_s(lambda: aead.encrypt(b"\x01" * 12, payload))
    assert rate >= SMALL_SEAL_FLOOR, f"64 B ChaCha20-Poly1305 seal at {rate:.0f} ops/s"


@pytest.mark.tier2
def test_ed25519_sign_verify_rate_floor():
    key = Ed25519PrivateKey(bytes(range(32)))  # builds the base table
    public = key.public_key()
    signature = key.sign(b"quote")
    sign_rate = _best_ops_s(lambda: key.sign(b"quote"))
    verify_rate = _best_ops_s(lambda: public.verify(signature, b"quote"))
    assert sign_rate >= ED25519_SIGN_FLOOR, f"Ed25519 sign at {sign_rate:.0f} ops/s"
    assert verify_rate >= ED25519_VERIFY_FLOOR, (
        f"Ed25519 verify at {verify_rate:.0f} ops/s"
    )
