"""AES block cipher (FIPS 197), table-based pure-Python implementation.

Supports 128/192/256-bit keys.  Used by :mod:`repro.crypto.gcm` for
AES-GCM and directly by the secrets database for key wrapping.  Verified
against FIPS 197 and NIST SP 800-38A vectors in the test suite.

Single blocks go through the scalar byte-oriented rounds.  Bulk CTR mode
is vectorized with numpy: the classic 32-bit encryption T-tables (each
entry fuses SubBytes, ShiftRows, and MixColumns for one byte) are applied
to *all* counter blocks of a message at once, which lifts pure-Python
AES-CTR from ~0.2 MB/s to tens of MB/s.  The test suite asserts it is
byte-identical to a block-at-a-time CTR loop (``tests/crypto/oracles.py``).

Not constant-time; simulation use only.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

_SBOX: Tuple[int, ...] = (
    0x63, 0x7C, 0x77, 0x7B, 0xF2, 0x6B, 0x6F, 0xC5, 0x30, 0x01, 0x67, 0x2B,
    0xFE, 0xD7, 0xAB, 0x76, 0xCA, 0x82, 0xC9, 0x7D, 0xFA, 0x59, 0x47, 0xF0,
    0xAD, 0xD4, 0xA2, 0xAF, 0x9C, 0xA4, 0x72, 0xC0, 0xB7, 0xFD, 0x93, 0x26,
    0x36, 0x3F, 0xF7, 0xCC, 0x34, 0xA5, 0xE5, 0xF1, 0x71, 0xD8, 0x31, 0x15,
    0x04, 0xC7, 0x23, 0xC3, 0x18, 0x96, 0x05, 0x9A, 0x07, 0x12, 0x80, 0xE2,
    0xEB, 0x27, 0xB2, 0x75, 0x09, 0x83, 0x2C, 0x1A, 0x1B, 0x6E, 0x5A, 0xA0,
    0x52, 0x3B, 0xD6, 0xB3, 0x29, 0xE3, 0x2F, 0x84, 0x53, 0xD1, 0x00, 0xED,
    0x20, 0xFC, 0xB1, 0x5B, 0x6A, 0xCB, 0xBE, 0x39, 0x4A, 0x4C, 0x58, 0xCF,
    0xD0, 0xEF, 0xAA, 0xFB, 0x43, 0x4D, 0x33, 0x85, 0x45, 0xF9, 0x02, 0x7F,
    0x50, 0x3C, 0x9F, 0xA8, 0x51, 0xA3, 0x40, 0x8F, 0x92, 0x9D, 0x38, 0xF5,
    0xBC, 0xB6, 0xDA, 0x21, 0x10, 0xFF, 0xF3, 0xD2, 0xCD, 0x0C, 0x13, 0xEC,
    0x5F, 0x97, 0x44, 0x17, 0xC4, 0xA7, 0x7E, 0x3D, 0x64, 0x5D, 0x19, 0x73,
    0x60, 0x81, 0x4F, 0xDC, 0x22, 0x2A, 0x90, 0x88, 0x46, 0xEE, 0xB8, 0x14,
    0xDE, 0x5E, 0x0B, 0xDB, 0xE0, 0x32, 0x3A, 0x0A, 0x49, 0x06, 0x24, 0x5C,
    0xC2, 0xD3, 0xAC, 0x62, 0x91, 0x95, 0xE4, 0x79, 0xE7, 0xC8, 0x37, 0x6D,
    0x8D, 0xD5, 0x4E, 0xA9, 0x6C, 0x56, 0xF4, 0xEA, 0x65, 0x7A, 0xAE, 0x08,
    0xBA, 0x78, 0x25, 0x2E, 0x1C, 0xA6, 0xB4, 0xC6, 0xE8, 0xDD, 0x74, 0x1F,
    0x4B, 0xBD, 0x8B, 0x8A, 0x70, 0x3E, 0xB5, 0x66, 0x48, 0x03, 0xF6, 0x0E,
    0x61, 0x35, 0x57, 0xB9, 0x86, 0xC1, 0x1D, 0x9E, 0xE1, 0xF8, 0x98, 0x11,
    0x69, 0xD9, 0x8E, 0x94, 0x9B, 0x1E, 0x87, 0xE9, 0xCE, 0x55, 0x28, 0xDF,
    0x8C, 0xA1, 0x89, 0x0D, 0xBF, 0xE6, 0x42, 0x68, 0x41, 0x99, 0x2D, 0x0F,
    0xB0, 0x54, 0xBB, 0x16,
)

_INV_SBOX_LIST = [0] * 256
for _i, _s in enumerate(_SBOX):
    _INV_SBOX_LIST[_s] = _i
_INV_SBOX: Tuple[int, ...] = tuple(_INV_SBOX_LIST)
del _INV_SBOX_LIST, _i, _s

_RCON: Tuple[int, ...] = (
    0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36, 0x6C, 0xD8,
    0xAB, 0x4D,
)


def _xtime(a: int) -> int:
    """Multiply by x in GF(2^8) modulo the AES polynomial."""
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a & 0xFF


def _gmul(a: int, b: int) -> int:
    """GF(2^8) multiplication."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a = _xtime(a)
        b >>= 1
    return result


# Precompute multiplication tables for MixColumns / InvMixColumns.
_MUL2 = tuple(_gmul(i, 2) for i in range(256))
_MUL3 = tuple(_gmul(i, 3) for i in range(256))
_MUL9 = tuple(_gmul(i, 9) for i in range(256))
_MUL11 = tuple(_gmul(i, 11) for i in range(256))
_MUL13 = tuple(_gmul(i, 13) for i in range(256))
_MUL14 = tuple(_gmul(i, 14) for i in range(256))

# 32-bit encryption T-tables for the vectorized CTR path.  Te0[b] packs
# SubBytes + MixColumns for a byte landing in a column's first row; the
# other three tables are byte rotations of it.
_TE0 = np.array(
    [
        (_MUL2[_SBOX[b]] << 24) | (_SBOX[b] << 16) | (_SBOX[b] << 8) | _MUL3[_SBOX[b]]
        for b in range(256)
    ],
    dtype=np.uint32,
)
_TE1 = ((_TE0 >> np.uint32(8)) | (_TE0 << np.uint32(24))).astype(np.uint32)
_TE2 = ((_TE1 >> np.uint32(8)) | (_TE1 << np.uint32(24))).astype(np.uint32)
_TE3 = ((_TE2 >> np.uint32(8)) | (_TE2 << np.uint32(24))).astype(np.uint32)
_SBOX_U32 = np.array(_SBOX, dtype=np.uint32)


class AES:
    """AES block cipher over 16-byte blocks."""

    BLOCK_SIZE = 16

    def __init__(self, key: bytes) -> None:
        if len(key) not in (16, 24, 32):
            raise ValueError(f"AES key must be 16/24/32 bytes, got {len(key)}")
        self._rounds = {16: 10, 24: 12, 32: 14}[len(key)]
        self._round_keys = self._expand_key(key)
        # Round keys as big-endian 32-bit words for the vectorized path.
        self._rk_words = np.array(
            [
                [int.from_bytes(bytes(rk[4 * i: 4 * i + 4]), "big") for i in range(4)]
                for rk in self._round_keys
            ],
            dtype=np.uint32,
        )

    @property
    def rounds(self) -> int:
        return self._rounds

    def _expand_key(self, key: bytes) -> List[List[int]]:
        """FIPS 197 key schedule, returned as one flat word list per round."""
        nk = len(key) // 4
        words: List[List[int]] = [list(key[4 * i: 4 * i + 4]) for i in range(nk)]
        total_words = 4 * (self._rounds + 1)
        for i in range(nk, total_words):
            temp = list(words[i - 1])
            if i % nk == 0:
                temp = temp[1:] + temp[:1]
                temp = [_SBOX[b] for b in temp]
                temp[0] ^= _RCON[i // nk - 1]
            elif nk > 6 and i % nk == 4:
                temp = [_SBOX[b] for b in temp]
            words.append([words[i - nk][j] ^ temp[j] for j in range(4)])
        # Group into 16-byte round keys.
        round_keys = []
        for r in range(self._rounds + 1):
            rk: List[int] = []
            for w in words[4 * r: 4 * r + 4]:
                rk.extend(w)
            round_keys.append(rk)
        return round_keys

    @staticmethod
    def _add_round_key(state: List[int], rk: List[int]) -> None:
        for i in range(16):
            state[i] ^= rk[i]

    @staticmethod
    def _sub_bytes(state: List[int]) -> None:
        for i in range(16):
            state[i] = _SBOX[state[i]]

    @staticmethod
    def _inv_sub_bytes(state: List[int]) -> None:
        for i in range(16):
            state[i] = _INV_SBOX[state[i]]

    @staticmethod
    def _shift_rows(state: List[int]) -> List[int]:
        # State is column-major: state[r + 4*c].
        s = state
        return [
            s[0], s[5], s[10], s[15],
            s[4], s[9], s[14], s[3],
            s[8], s[13], s[2], s[7],
            s[12], s[1], s[6], s[11],
        ]

    @staticmethod
    def _inv_shift_rows(state: List[int]) -> List[int]:
        s = state
        return [
            s[0], s[13], s[10], s[7],
            s[4], s[1], s[14], s[11],
            s[8], s[5], s[2], s[15],
            s[12], s[9], s[6], s[3],
        ]

    @staticmethod
    def _mix_columns(state: List[int]) -> None:
        for c in range(4):
            i = 4 * c
            a0, a1, a2, a3 = state[i], state[i + 1], state[i + 2], state[i + 3]
            state[i] = _MUL2[a0] ^ _MUL3[a1] ^ a2 ^ a3
            state[i + 1] = a0 ^ _MUL2[a1] ^ _MUL3[a2] ^ a3
            state[i + 2] = a0 ^ a1 ^ _MUL2[a2] ^ _MUL3[a3]
            state[i + 3] = _MUL3[a0] ^ a1 ^ a2 ^ _MUL2[a3]

    @staticmethod
    def _inv_mix_columns(state: List[int]) -> None:
        for c in range(4):
            i = 4 * c
            a0, a1, a2, a3 = state[i], state[i + 1], state[i + 2], state[i + 3]
            state[i] = _MUL14[a0] ^ _MUL11[a1] ^ _MUL13[a2] ^ _MUL9[a3]
            state[i + 1] = _MUL9[a0] ^ _MUL14[a1] ^ _MUL11[a2] ^ _MUL13[a3]
            state[i + 2] = _MUL13[a0] ^ _MUL9[a1] ^ _MUL14[a2] ^ _MUL11[a3]
            state[i + 3] = _MUL11[a0] ^ _MUL13[a1] ^ _MUL9[a2] ^ _MUL14[a3]

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != 16:
            raise ValueError(f"AES block must be 16 bytes, got {len(block)}")
        state = list(block)
        self._add_round_key(state, self._round_keys[0])
        for r in range(1, self._rounds):
            self._sub_bytes(state)
            state = self._shift_rows(state)
            self._mix_columns(state)
            self._add_round_key(state, self._round_keys[r])
        self._sub_bytes(state)
        state = self._shift_rows(state)
        self._add_round_key(state, self._round_keys[self._rounds])
        return bytes(state)

    def decrypt_block(self, block: bytes) -> bytes:
        if len(block) != 16:
            raise ValueError(f"AES block must be 16 bytes, got {len(block)}")
        state = list(block)
        self._add_round_key(state, self._round_keys[self._rounds])
        for r in range(self._rounds - 1, 0, -1):
            state = self._inv_shift_rows(state)
            self._inv_sub_bytes(state)
            self._add_round_key(state, self._round_keys[r])
            self._inv_mix_columns(state)
        state = self._inv_shift_rows(state)
        self._inv_sub_bytes(state)
        self._add_round_key(state, self._round_keys[0])
        return bytes(state)

    def keystream_ctr(self, nonce: bytes, n_blocks: int, initial_counter: int = 1) -> np.ndarray:
        """CTR keystream for ``n_blocks`` blocks as a flat uint8 array.

        All blocks are encrypted at once: the state lives in four uint32
        column vectors (one lane per block) and every round is table
        lookups + XORs across the whole message.
        """
        if len(nonce) != 12:
            raise ValueError(f"CTR nonce must be 12 bytes, got {len(nonce)}")
        rks = self._rk_words
        counters = (
            (np.arange(n_blocks, dtype=np.uint64) + np.uint64(initial_counter))
            & np.uint64(0xFFFFFFFF)
        ).astype(np.uint32)
        n0, n1, n2 = (int.from_bytes(nonce[i: i + 4], "big") for i in (0, 4, 8))
        with np.errstate(over="ignore"):
            c0 = np.full(n_blocks, n0, dtype=np.uint32) ^ rks[0, 0]
            c1 = np.full(n_blocks, n1, dtype=np.uint32) ^ rks[0, 1]
            c2 = np.full(n_blocks, n2, dtype=np.uint32) ^ rks[0, 2]
            c3 = counters ^ rks[0, 3]
            s8, s16, s24 = np.uint32(8), np.uint32(16), np.uint32(24)
            mask = np.uint32(0xFF)
            for r in range(1, self._rounds):
                rk = rks[r]
                b0 = _TE0[c0 >> s24] ^ _TE1[(c1 >> s16) & mask] ^ _TE2[(c2 >> s8) & mask] ^ _TE3[c3 & mask] ^ rk[0]
                b1 = _TE0[c1 >> s24] ^ _TE1[(c2 >> s16) & mask] ^ _TE2[(c3 >> s8) & mask] ^ _TE3[c0 & mask] ^ rk[1]
                b2 = _TE0[c2 >> s24] ^ _TE1[(c3 >> s16) & mask] ^ _TE2[(c0 >> s8) & mask] ^ _TE3[c1 & mask] ^ rk[2]
                b3 = _TE0[c3 >> s24] ^ _TE1[(c0 >> s16) & mask] ^ _TE2[(c1 >> s8) & mask] ^ _TE3[c2 & mask] ^ rk[3]
                c0, c1, c2, c3 = b0, b1, b2, b3
            rk = rks[self._rounds]
            b0 = ((_SBOX_U32[c0 >> s24] << s24) | (_SBOX_U32[(c1 >> s16) & mask] << s16)
                  | (_SBOX_U32[(c2 >> s8) & mask] << s8) | _SBOX_U32[c3 & mask]) ^ rk[0]
            b1 = ((_SBOX_U32[c1 >> s24] << s24) | (_SBOX_U32[(c2 >> s16) & mask] << s16)
                  | (_SBOX_U32[(c3 >> s8) & mask] << s8) | _SBOX_U32[c0 & mask]) ^ rk[1]
            b2 = ((_SBOX_U32[c2 >> s24] << s24) | (_SBOX_U32[(c3 >> s16) & mask] << s16)
                  | (_SBOX_U32[(c0 >> s8) & mask] << s8) | _SBOX_U32[c1 & mask]) ^ rk[2]
            b3 = ((_SBOX_U32[c3 >> s24] << s24) | (_SBOX_U32[(c0 >> s16) & mask] << s16)
                  | (_SBOX_U32[(c1 >> s8) & mask] << s8) | _SBOX_U32[c2 & mask]) ^ rk[3]
        out = np.empty((n_blocks, 4), dtype=">u4")
        out[:, 0] = b0
        out[:, 1] = b1
        out[:, 2] = b2
        out[:, 3] = b3
        return out.view(np.uint8).reshape(-1)

    def encrypt_ctr(self, nonce: bytes, data: bytes, initial_counter: int = 1) -> bytes:
        """CTR mode with a 12-byte nonce and 32-bit big-endian counter.

        CTR is an involution, so this both encrypts and decrypts.
        """
        if len(nonce) != 12:
            raise ValueError(f"CTR nonce must be 12 bytes, got {len(nonce)}")
        n = len(data)
        if n == 0:
            return b""
        keystream = self.keystream_ctr(nonce, -(-n // 16), initial_counter)[:n]
        return (np.frombuffer(data, dtype=np.uint8) ^ keystream).tobytes()
