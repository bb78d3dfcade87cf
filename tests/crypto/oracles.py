"""Serial reference implementations the fast crypto paths are tested against.

Each oracle is the straightforward form of a primitive whose production
code is vectorized, table-driven or windowed.  They are slow, and they
live here rather than in ``src/`` because only the tests call them.
"""

from __future__ import annotations

import numpy as np

from repro.crypto.aes import AES
from repro.crypto.ed25519 import _IDENTITY, Point, _point_add
from repro.crypto.gcm import AesGcm, _gf_mult

_P1305 = (1 << 130) - 5


def poly1305_mac_reference(key: bytes, message: bytes) -> bytes:
    """Poly1305 one-time authenticator (RFC 8439 §2.5), serial bigints."""
    if len(key) != 32:
        raise ValueError(f"Poly1305 key must be 32 bytes, got {len(key)}")
    r = int.from_bytes(key[:16], "little") & 0x0FFFFFFC0FFFFFFC0FFFFFFC0FFFFFFF
    s = int.from_bytes(key[16:], "little")
    acc = 0
    for offset in range(0, len(message), 16):
        chunk = message[offset: offset + 16]
        n = int.from_bytes(chunk + b"\x01", "little")
        acc = ((acc + n) * r) % _P1305
    acc = (acc + s) & ((1 << 128) - 1)
    return acc.to_bytes(16, "little")


def _rotl(x: np.ndarray, n: int) -> np.ndarray:
    return (x << np.uint32(n)) | (x >> np.uint32(32 - n))


def _quarter_round(state: np.ndarray, a: int, b: int, c: int, d: int) -> None:
    state[a] += state[b]
    state[d] = _rotl(state[d] ^ state[a], 16)
    state[c] += state[d]
    state[b] = _rotl(state[b] ^ state[c], 12)
    state[a] += state[b]
    state[d] = _rotl(state[d] ^ state[a], 8)
    state[c] += state[d]
    state[b] = _rotl(state[b] ^ state[c], 7)


def chacha20_keystream_reference(
    key: bytes, nonce: bytes, counter: int, n_bytes: int
) -> bytes:
    """ChaCha20 keystream (RFC 8439 §2.3), one numpy row per state word.

    The block counter wraps modulo 2**32; callers stay inside the range
    the production function accepts.
    """
    if n_bytes == 0:
        return b""
    n_blocks = -(-n_bytes // 64)
    state = np.empty((16, n_blocks), dtype=np.uint32)
    state[0:4] = np.array(
        [0x61707865, 0x3320646E, 0x79622D32, 0x6B206574], dtype=np.uint32
    )[:, None]
    state[4:12] = np.frombuffer(key, dtype="<u4")[:, None]
    state[12] = (np.arange(n_blocks, dtype=np.uint64) + np.uint64(counter)).astype(
        np.uint32
    )
    state[13:16] = np.frombuffer(nonce, dtype="<u4")[:, None]
    working = state.copy()
    with np.errstate(over="ignore"):
        for _ in range(10):
            _quarter_round(working, 0, 4, 8, 12)
            _quarter_round(working, 1, 5, 9, 13)
            _quarter_round(working, 2, 6, 10, 14)
            _quarter_round(working, 3, 7, 11, 15)
            _quarter_round(working, 0, 5, 10, 15)
            _quarter_round(working, 1, 6, 11, 12)
            _quarter_round(working, 2, 7, 8, 13)
            _quarter_round(working, 3, 4, 9, 14)
        working += state
    return working.T.astype("<u4").tobytes()[:n_bytes]


def chacha20_poly1305_seal_reference(
    key: bytes, nonce: bytes, plaintext: bytes, aad: bytes = b""
) -> bytes:
    """RFC 8439 §2.8 AEAD seal with separate key and data keystreams."""

    def pad16(data: bytes) -> bytes:
        return b"\x00" * (-len(data) % 16)

    otk = chacha20_keystream_reference(key, nonce, 0, 32)
    stream = chacha20_keystream_reference(key, nonce, 1, len(plaintext))
    ciphertext = bytes(x ^ y for x, y in zip(plaintext, stream))
    mac_data = (
        aad
        + pad16(aad)
        + ciphertext
        + pad16(ciphertext)
        + len(aad).to_bytes(8, "little")
        + len(ciphertext).to_bytes(8, "little")
    )
    return ciphertext + poly1305_mac_reference(otk, mac_data)


def encrypt_ctr_reference(
    aes: AES, nonce: bytes, data: bytes, initial_counter: int = 1
) -> bytes:
    """Block-at-a-time AES-CTR with a 32-bit big-endian counter."""
    if len(nonce) != 12:
        raise ValueError(f"CTR nonce must be 12 bytes, got {len(nonce)}")
    out = bytearray()
    counter = initial_counter
    for offset in range(0, len(data), 16):
        block = nonce + counter.to_bytes(4, "big")
        keystream = aes.encrypt_block(block)
        chunk = data[offset: offset + 16]
        out.extend(x ^ y for x, y in zip(chunk, keystream))
        counter = (counter + 1) & 0xFFFFFFFF
    return bytes(out)


def ghash_reference(gcm: AesGcm, aad: bytes, ciphertext: bytes) -> int:
    """Bit-loop GHASH under ``gcm``'s hash key."""
    y = 0
    for data in (aad, ciphertext):
        for offset in range(0, len(data), 16):
            block = data[offset: offset + 16].ljust(16, b"\x00")
            y = _gf_mult(y ^ int.from_bytes(block, "big"), gcm._h)
    lengths = (len(aad) * 8).to_bytes(8, "big") + (
        len(ciphertext) * 8
    ).to_bytes(8, "big")
    return _gf_mult(y ^ int.from_bytes(lengths, "big"), gcm._h)


def scalar_mult_reference(scalar: int, point: Point) -> Point:
    """Ed25519 ``scalar·point`` by binary double-and-add."""
    result = _IDENTITY
    addend = point
    while scalar:
        if scalar & 1:
            result = _point_add(result, addend)
        addend = _point_add(addend, addend)
        scalar >>= 1
    return result
