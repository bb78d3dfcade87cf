"""ChaCha20-Poly1305 AEAD (RFC 8439).

This is the workhorse cipher of the file-system and network shields, and
it sees two very different message populations: bulk tensors and
checkpoint chunks (tens of KB), and a long tail of short records —
TLS records, RPC envelopes, sealed blobs — of a few hundred bytes.
Cost therefore has to scale with bytes, not with calls.

Keystream (:func:`chacha20_keystream`) takes one of two paths, chosen by
block count alone:

* up to :data:`_SCALAR_MAX_BLOCKS` blocks, a plain-int block function
  (:func:`_scalar_blocks`): straight-line Python on sixteen locals,
  ~60-85 µs per block and no numpy dispatch at all;
* above it, a 4-lane numpy pass (:func:`_lanes_keystream`): the state is
  four ``(4, n_blocks)`` row groups ``a, b, c, d``, so one quarter-round
  step updates all four columns of every block at once; the diagonal
  round is the same quarter round after fixed row rotations of ``b``,
  ``c`` and ``d``.  Every op runs in place against one scratch buffer,
  ~460 numpy calls per keystream whatever its length (~0.3 ms).

The threshold sits at the measured crossover: the scalar path costs a
fixed ~64 µs per block while the lane path costs ~0.28 ms flat up to a
few dozen blocks, so they meet between 4 and 5 blocks (256-320 bytes).

The AEAD makes one keystream per operation: blocks ``0..n`` starting at
counter 0, whose first 32 bytes are the one-time Poly1305 key and whose
bytes from 64 on encrypt the data (RFC 8439 §2.8 uses block 0 for the
key and counter 1 onwards for the data, so this is the same stream).

Poly1305 is vectorized too for long messages: blocks are split into S
interleaved stripes, each stripe runs Horner's rule with the shared
multiplier r^S, and all S stripe accumulators advance in lockstep as
radix-2^26 limb vectors (five ``uint64`` numpy arrays, products bounded
below 2^58 by a carry chain each step).  A final serial Horner pass over
the S stripe results with r itself recombines them — algebraically
identical to the straight serial evaluation.  Short messages take the
plain bigint loop, which wins below a few KB.

Every path is asserted byte-identical to the serial oracles in
``tests/crypto/oracles.py`` and to the RFC 8439 test vectors.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.crypto._ct import ct_eq
from repro.errors import IntegrityError

_SIGMA = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)
_CONSTANTS = np.array(_SIGMA, dtype=np.uint32)
_M32 = 0xFFFFFFFF
_COUNTER_LIMIT = 1 << 32

#: Keystreams of at most this many 64-byte blocks take the plain-int
#: path; longer ones the 4-lane numpy path (see the module docstring).
_SCALAR_MAX_BLOCKS = 4

# Row rotations that line the diagonals of the state up as columns
# (``_ROT1`` on b, ``_ROT2`` on c, ``_ROT3`` on d) and back again
# (``_ROT3`` on b, ``_ROT2`` on c, ``_ROT1`` on d).
_ROT1 = np.array([1, 2, 3, 0])
_ROT2 = np.array([2, 3, 0, 1])
_ROT3 = np.array([3, 0, 1, 2])


def _scalar_blocks(key: bytes, nonce: bytes, counter: int, n_blocks: int) -> bytes:
    """``n_blocks`` keystream blocks from the plain-int block function."""
    k0, k1, k2, k3, k4, k5, k6, k7 = struct.unpack("<8I", key)
    n0, n1, n2 = struct.unpack("<3I", nonce)
    s0, s1, s2, s3 = _SIGMA
    M = _M32
    out = []
    for ctr in range(counter, counter + n_blocks):
        x0, x1, x2, x3 = s0, s1, s2, s3
        x4, x5, x6, x7, x8, x9, x10, x11 = k0, k1, k2, k3, k4, k5, k6, k7
        x12, x13, x14, x15 = ctr, n0, n1, n2
        for _ in range(10):
            # Column rounds.
            x0 = (x0 + x4) & M; x12 ^= x0; x12 = ((x12 << 16) & M) | (x12 >> 16)
            x8 = (x8 + x12) & M; x4 ^= x8; x4 = ((x4 << 12) & M) | (x4 >> 20)
            x0 = (x0 + x4) & M; x12 ^= x0; x12 = ((x12 << 8) & M) | (x12 >> 24)
            x8 = (x8 + x12) & M; x4 ^= x8; x4 = ((x4 << 7) & M) | (x4 >> 25)
            x1 = (x1 + x5) & M; x13 ^= x1; x13 = ((x13 << 16) & M) | (x13 >> 16)
            x9 = (x9 + x13) & M; x5 ^= x9; x5 = ((x5 << 12) & M) | (x5 >> 20)
            x1 = (x1 + x5) & M; x13 ^= x1; x13 = ((x13 << 8) & M) | (x13 >> 24)
            x9 = (x9 + x13) & M; x5 ^= x9; x5 = ((x5 << 7) & M) | (x5 >> 25)
            x2 = (x2 + x6) & M; x14 ^= x2; x14 = ((x14 << 16) & M) | (x14 >> 16)
            x10 = (x10 + x14) & M; x6 ^= x10; x6 = ((x6 << 12) & M) | (x6 >> 20)
            x2 = (x2 + x6) & M; x14 ^= x2; x14 = ((x14 << 8) & M) | (x14 >> 24)
            x10 = (x10 + x14) & M; x6 ^= x10; x6 = ((x6 << 7) & M) | (x6 >> 25)
            x3 = (x3 + x7) & M; x15 ^= x3; x15 = ((x15 << 16) & M) | (x15 >> 16)
            x11 = (x11 + x15) & M; x7 ^= x11; x7 = ((x7 << 12) & M) | (x7 >> 20)
            x3 = (x3 + x7) & M; x15 ^= x3; x15 = ((x15 << 8) & M) | (x15 >> 24)
            x11 = (x11 + x15) & M; x7 ^= x11; x7 = ((x7 << 7) & M) | (x7 >> 25)
            # Diagonal rounds.
            x0 = (x0 + x5) & M; x15 ^= x0; x15 = ((x15 << 16) & M) | (x15 >> 16)
            x10 = (x10 + x15) & M; x5 ^= x10; x5 = ((x5 << 12) & M) | (x5 >> 20)
            x0 = (x0 + x5) & M; x15 ^= x0; x15 = ((x15 << 8) & M) | (x15 >> 24)
            x10 = (x10 + x15) & M; x5 ^= x10; x5 = ((x5 << 7) & M) | (x5 >> 25)
            x1 = (x1 + x6) & M; x12 ^= x1; x12 = ((x12 << 16) & M) | (x12 >> 16)
            x11 = (x11 + x12) & M; x6 ^= x11; x6 = ((x6 << 12) & M) | (x6 >> 20)
            x1 = (x1 + x6) & M; x12 ^= x1; x12 = ((x12 << 8) & M) | (x12 >> 24)
            x11 = (x11 + x12) & M; x6 ^= x11; x6 = ((x6 << 7) & M) | (x6 >> 25)
            x2 = (x2 + x7) & M; x13 ^= x2; x13 = ((x13 << 16) & M) | (x13 >> 16)
            x8 = (x8 + x13) & M; x7 ^= x8; x7 = ((x7 << 12) & M) | (x7 >> 20)
            x2 = (x2 + x7) & M; x13 ^= x2; x13 = ((x13 << 8) & M) | (x13 >> 24)
            x8 = (x8 + x13) & M; x7 ^= x8; x7 = ((x7 << 7) & M) | (x7 >> 25)
            x3 = (x3 + x4) & M; x14 ^= x3; x14 = ((x14 << 16) & M) | (x14 >> 16)
            x9 = (x9 + x14) & M; x4 ^= x9; x4 = ((x4 << 12) & M) | (x4 >> 20)
            x3 = (x3 + x4) & M; x14 ^= x3; x14 = ((x14 << 8) & M) | (x14 >> 24)
            x9 = (x9 + x14) & M; x4 ^= x9; x4 = ((x4 << 7) & M) | (x4 >> 25)
        out.append(struct.pack(
            "<16I",
            (x0 + s0) & M, (x1 + s1) & M, (x2 + s2) & M, (x3 + s3) & M,
            (x4 + k0) & M, (x5 + k1) & M, (x6 + k2) & M, (x7 + k3) & M,
            (x8 + k4) & M, (x9 + k5) & M, (x10 + k6) & M, (x11 + k7) & M,
            (x12 + ctr) & M, (x13 + n0) & M, (x14 + n1) & M, (x15 + n2) & M,
        ))
    return b"".join(out)


def _lane_quarter_round(
    a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray, t: np.ndarray
) -> None:
    """Quarter round on four columns at once, in place; ``t`` is scratch.

    Each argument is a ``(4, n_blocks)`` row group: row i of a, b, c, d
    holds the words of the i-th quarter round for every block.
    """
    a += b; d ^= a; np.left_shift(d, 16, out=t); d >>= 16; d |= t
    c += d; b ^= c; np.left_shift(b, 12, out=t); b >>= 20; b |= t
    a += b; d ^= a; np.left_shift(d, 8, out=t); d >>= 24; d |= t
    c += d; b ^= c; np.left_shift(b, 7, out=t); b >>= 25; b |= t


def _lanes_keystream(key: bytes, nonce: bytes, counter: int, n_blocks: int) -> bytes:
    """``n_blocks`` keystream blocks from the 4-lane numpy pass."""
    state = np.empty((16, n_blocks), dtype=np.uint32)
    state[0:4] = _CONSTANTS[:, None]
    state[4:12] = np.frombuffer(key, dtype="<u4")[:, None]
    state[12] = np.arange(counter, counter + n_blocks, dtype=np.uint64)
    state[13:16] = np.frombuffer(nonce, dtype="<u4")[:, None]
    a, b, c, d = (state[i: i + 4].copy() for i in (0, 4, 8, 12))
    t = np.empty_like(a)
    for _ in range(10):
        _lane_quarter_round(a, b, c, d, t)
        # Rotate rows so the diagonals become columns; the rotated copy
        # lands in the scratch buffer and the old rows become scratch.
        np.take(b, _ROT1, axis=0, out=t); b, t = t, b
        np.take(c, _ROT2, axis=0, out=t); c, t = t, c
        np.take(d, _ROT3, axis=0, out=t); d, t = t, d
        _lane_quarter_round(a, b, c, d, t)
        np.take(b, _ROT3, axis=0, out=t); b, t = t, b
        np.take(c, _ROT2, axis=0, out=t); c, t = t, c
        np.take(d, _ROT1, axis=0, out=t); d, t = t, d
    state[0:4] += a
    state[4:8] += b
    state[8:12] += c
    state[12:16] += d
    # Serialize: per block, 16 little-endian words.
    return state.T.astype("<u4", copy=False).tobytes()


def chacha20_keystream(key: bytes, nonce: bytes, counter: int, n_bytes: int) -> bytes:
    """Generate ``n_bytes`` of ChaCha20 keystream starting at block ``counter``.

    Raises :class:`ValueError` if the stream would need a block counter
    outside ``[0, 2**32)``: the counter is 32 bits (RFC 8439 §2.4), and
    wrapping it would reuse keystream.
    """
    if len(key) != 32:
        raise ValueError(f"ChaCha20 key must be 32 bytes, got {len(key)}")
    if len(nonce) != 12:
        raise ValueError(f"ChaCha20 nonce must be 12 bytes, got {len(nonce)}")
    if n_bytes < 0:
        raise ValueError(f"keystream length must be non-negative, got {n_bytes}")
    n_blocks = -(-n_bytes // 64)
    if counter < 0 or counter + n_blocks > _COUNTER_LIMIT:
        raise ValueError(
            f"ChaCha20 block counter range [{counter}, {counter + n_blocks}) "
            "leaves [0, 2**32)"
        )
    if n_blocks == 0:
        return b""
    if n_blocks <= _SCALAR_MAX_BLOCKS:
        stream = _scalar_blocks(key, nonce, counter, n_blocks)
    else:
        stream = _lanes_keystream(key, nonce, counter, n_blocks)
    return stream[:n_bytes]


def _xor(data: bytes, stream: bytes, offset: int = 0) -> bytes:
    """``data`` XOR ``stream[offset: offset + len(data)]``."""
    a = np.frombuffer(data, dtype=np.uint8)
    b = np.frombuffer(stream, dtype=np.uint8, count=len(data), offset=offset)
    return (a ^ b).tobytes()


def chacha20_xor(key: bytes, nonce: bytes, counter: int, data: bytes) -> bytes:
    """XOR ``data`` with the ChaCha20 keystream (encrypts and decrypts)."""
    return _xor(data, chacha20_keystream(key, nonce, counter, len(data)))


_P1305 = (1 << 130) - 5
_M26 = np.uint64((1 << 26) - 1)
_HI_BIT = 1 << 128
# Below this many full blocks the serial bigint loop is faster than the
# numpy setup cost.
_BULK_MIN_BLOCKS = 512


def _limbs26(x: int) -> list:
    return [(x >> (26 * i)) & ((1 << 26) - 1) for i in range(5)]


def _poly1305_bulk(r: int, blocks: np.ndarray, stripes: int) -> int:
    """Evaluate ``sum c_j * r^(N-j)`` over N = m*stripes full blocks.

    ``blocks`` is (N, 16) uint8.  Block j goes to stripe j % stripes;
    each stripe is a Horner chain with multiplier r^stripes, and all
    stripes advance together as radix-2^26 limb vectors.  Limbs stay
    below ~2^27 thanks to the carry chain (including the 5*carry
    wrap-around fold), so every limb product fits uint64.
    """
    n_blocks = blocks.shape[0]
    m = n_blocks // stripes
    b = blocks.astype(np.uint64)

    def le32(k: int) -> np.ndarray:
        return (
            b[:, k]
            | (b[:, k + 1] << np.uint64(8))
            | (b[:, k + 2] << np.uint64(16))
            | (b[:, k + 3] << np.uint64(24))
        )

    l0 = (le32(0) & _M26).reshape(m, stripes)
    l1 = ((le32(3) >> np.uint64(2)) & _M26).reshape(m, stripes)
    l2 = ((le32(6) >> np.uint64(4)) & _M26).reshape(m, stripes)
    l3 = ((le32(9) >> np.uint64(6)) & _M26).reshape(m, stripes)
    l4 = ((le32(12) >> np.uint64(8)) | np.uint64(1 << 24)).reshape(m, stripes)

    r_s = pow(r, stripes, _P1305)
    r0, r1, r2, r3, r4 = (np.uint64(v) for v in _limbs26(r_s))
    f1, f2, f3, f4 = (np.uint64(5 * v) for v in _limbs26(r_s)[1:])

    a0 = l0[0].copy()
    a1 = l1[0].copy()
    a2 = l2[0].copy()
    a3 = l3[0].copy()
    a4 = l4[0].copy()
    s26 = np.uint64(26)
    five = np.uint64(5)
    for i in range(1, m):
        t0 = a0 * r0 + a1 * f4 + a2 * f3 + a3 * f2 + a4 * f1
        t1 = a0 * r1 + a1 * r0 + a2 * f4 + a3 * f3 + a4 * f2
        t2 = a0 * r2 + a1 * r1 + a2 * r0 + a3 * f4 + a4 * f3
        t3 = a0 * r3 + a1 * r2 + a2 * r1 + a3 * r0 + a4 * f4
        t4 = a0 * r4 + a1 * r3 + a2 * r2 + a3 * r1 + a4 * r0
        c = t0 >> s26; t0 &= _M26; t1 += c
        c = t1 >> s26; t1 &= _M26; t2 += c
        c = t2 >> s26; t2 &= _M26; t3 += c
        c = t3 >> s26; t3 &= _M26; t4 += c
        c = t4 >> s26; t4 &= _M26; t0 += five * c
        c = t0 >> s26; t0 &= _M26; t1 += c
        a0 = t0 + l0[i]
        a1 = t1 + l1[i]
        a2 = t2 + l2[i]
        a3 = t3 + l3[i]
        a4 = t4 + l4[i]
    v0 = a0.tolist()
    v1 = a1.tolist()
    v2 = a2.tolist()
    v3 = a3.tolist()
    v4 = a4.tolist()
    acc = 0
    for s in range(stripes):
        stripe = (
            v0[s] + (v1[s] << 26) + (v2[s] << 52) + (v3[s] << 78) + (v4[s] << 104)
        )
        acc = (acc + stripe) * r % _P1305
    return acc


def poly1305_mac(key: bytes, message: bytes, _min_blocks: int = _BULK_MIN_BLOCKS) -> bytes:
    """Poly1305 one-time authenticator (RFC 8439 §2.5).

    Long messages run through the striped numpy evaluator; the tail and
    short messages through the serial loop.  ``_min_blocks`` exists so
    tests can force the bulk path on small inputs.
    """
    if len(key) != 32:
        raise ValueError(f"Poly1305 key must be 32 bytes, got {len(key)}")
    r = int.from_bytes(key[:16], "little") & 0x0FFFFFFC0FFFFFFC0FFFFFFC0FFFFFFF
    s = int.from_bytes(key[16:], "little")
    n = len(message)
    n_full = n // 16
    acc = 0
    offset = 0
    if r != 0 and n_full >= _min_blocks:
        # Stripe count: power of two scaled to message size so each
        # stripe still has enough blocks to amortize the numpy setup.
        stripes = 1 << max(2, min(11, (n_full // 8).bit_length() - 1))
        while stripes > n_full:
            stripes >>= 1
        bulk_blocks = (n_full // stripes) * stripes
        blocks = np.frombuffer(
            message, dtype=np.uint8, count=bulk_blocks * 16
        ).reshape(bulk_blocks, 16)
        acc = _poly1305_bulk(r, blocks, stripes)
        offset = bulk_blocks * 16
    fb = int.from_bytes
    full = n_full * 16
    while offset < full:
        acc = (acc + (fb(message[offset: offset + 16], "little") | _HI_BIT)) * r % _P1305
        offset += 16
    if offset < n:
        acc = (acc + fb(message[offset:] + b"\x01", "little")) * r % _P1305
    acc %= _P1305
    acc = (acc + s) & ((1 << 128) - 1)
    return acc.to_bytes(16, "little")


def _pad16(data: bytes) -> bytes:
    if len(data) % 16 == 0:
        return b""
    return b"\x00" * (16 - len(data) % 16)


class ChaCha20Poly1305:
    """RFC 8439 AEAD construction."""

    NONCE_SIZE = 12
    TAG_SIZE = 16

    def __init__(self, key: bytes) -> None:
        if len(key) != 32:
            raise ValueError(f"key must be 32 bytes, got {len(key)}")
        self._key = key

    def _stream(self, nonce: bytes, n_data: int) -> bytes:
        """One keystream from counter 0 for a whole AEAD operation.

        Bytes 0-31 are the one-time Poly1305 key; the data stream starts
        at byte 64, i.e. at counter 1.
        """
        return chacha20_keystream(self._key, nonce, 0, 64 + n_data)

    @staticmethod
    def _tag(stream: bytes, aad: bytes, ciphertext: bytes) -> bytes:
        mac_data = (
            aad
            + _pad16(aad)
            + ciphertext
            + _pad16(ciphertext)
            + struct.pack("<QQ", len(aad), len(ciphertext))
        )
        return poly1305_mac(stream[:32], mac_data)

    def encrypt(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Return ciphertext || tag."""
        if len(nonce) != self.NONCE_SIZE:
            raise ValueError(f"nonce must be 12 bytes, got {len(nonce)}")
        stream = self._stream(nonce, len(plaintext))
        ciphertext = _xor(plaintext, stream, 64)
        return ciphertext + self._tag(stream, aad, ciphertext)

    def decrypt(self, nonce: bytes, data: bytes, aad: bytes = b"") -> bytes:
        """Verify and decrypt; raises IntegrityError on tampering."""
        if len(nonce) != self.NONCE_SIZE:
            raise ValueError(f"nonce must be 12 bytes, got {len(nonce)}")
        if len(data) < self.TAG_SIZE:
            raise IntegrityError("ciphertext shorter than the Poly1305 tag")
        ciphertext, tag = data[: -self.TAG_SIZE], data[-self.TAG_SIZE:]
        stream = self._stream(nonce, len(ciphertext))
        if not ct_eq(self._tag(stream, aad, ciphertext), tag):
            raise IntegrityError("Poly1305 tag verification failed")
        return _xor(ciphertext, stream, 64)
