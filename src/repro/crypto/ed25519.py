"""Ed25519 signatures (RFC 8032).

Signatures authenticate enclave quotes (the simulated hardware signing
key), CAS-issued certificates, and checkpoints.  Implemented over the
twisted Edwards form of Curve25519 with extended coordinates; verified
against RFC 8032 test vectors.

Two scalar multiplications do all the work, and both spend it on the
scalar's radix-16 digits:

* ``s·B`` for the fixed base point B (key generation, signing and the
  ``s·B`` half of verification) reads a table of ``j·16^i·B`` for
  ``i < 64``, ``j < 16`` (:func:`_base_table`, built once per process on
  first use, ~12 ms): one addition per nonzero digit and no doublings,
  ~0.25 ms against ~1.8 ms for double-and-add.  The scalar is reduced
  mod L first, which leaves ``s·B`` unchanged because B has order L, so
  64 rows (256 bits) cover every scalar.
* ``k·A`` for a variable point (the other half of verification) uses a
  4-bit fixed window: a 16-entry table of ``j·A`` per call (14
  additions), then four doublings by the dedicated doubling formula and
  at most one addition per digit: at most 64 additions where
  double-and-add makes ~126, and its 252 doublings use the 8-product
  doubling formula instead of the general addition.

Table entries are kept in the cached form ``(Y+X, Y-X, 2Z, 2d·T)`` so an
addition needs four field multiplications before the output products.
Both multiplies are tested point-for-point against the double-and-add
oracle in ``tests/crypto/oracles.py``.
"""

from __future__ import annotations

import functools
import hashlib
from typing import List, Tuple

from repro.errors import IntegrityError

_P = 2**255 - 19
_L = 2**252 + 27742317777372353535851937790883648493
_D = (-121665 * pow(121666, _P - 2, _P)) % _P
_D2 = (2 * _D) % _P

Point = Tuple[int, int, int, int]  # extended coordinates (X, Y, Z, T)
Cached = Tuple[int, int, int, int]  # (Y+X, Y-X, 2Z, 2d*T) of a Point

_IDENTITY: Point = (0, 1, 1, 0)


def _point_add(p: Point, q: Point) -> Point:
    x1, y1, z1, t1 = p
    x2, y2, z2, t2 = q
    a = ((y1 - x1) * (y2 - x2)) % _P
    b = ((y1 + x1) * (y2 + x2)) % _P
    c = (2 * t1 * t2 * _D) % _P
    d = (2 * z1 * z2) % _P
    e = b - a
    f = d - c
    g = d + c
    h = b + a
    return ((e * f) % _P, (g * h) % _P, (f * g) % _P, (e * h) % _P)


def _point_double(p: Point) -> Point:
    """``2·p`` (dbl-2008-hwcd with a = -1): 4 squarings, 4 products."""
    x1, y1, z1, _ = p
    a = x1 * x1
    b = y1 * y1
    c = 2 * z1 * z1
    s = x1 + y1
    e = (s * s - a - b) % _P
    g = (b - a) % _P
    f = (g - c) % _P
    h = (-a - b) % _P
    return ((e * f) % _P, (g * h) % _P, (f * g) % _P, (e * h) % _P)


def _cached(p: Point) -> Cached:
    x, y, z, t = p
    return ((y + x) % _P, (y - x) % _P, (2 * z) % _P, (t * _D2) % _P)


def _add_cached(p: Point, q: Cached) -> Point:
    """``p + q`` with ``q`` in cached form (same formula as _point_add)."""
    x1, y1, z1, t1 = p
    ypx, ymx, z2, t2d = q
    a = ((y1 - x1) * ymx) % _P
    b = ((y1 + x1) * ypx) % _P
    c = (t1 * t2d) % _P
    d = (z1 * z2) % _P
    e = b - a
    f = d - c
    g = d + c
    h = b + a
    return ((e * f) % _P, (g * h) % _P, (f * g) % _P, (e * h) % _P)


def _multiples(point: Point) -> List[Cached]:
    """``[j·point for j in 0..15]`` in cached form."""
    row = [_IDENTITY, point]
    for _ in range(14):
        row.append(_point_add(row[-1], point))
    return [_cached(q) for q in row]


def _scalar_mult(scalar: int, point: Point) -> Point:
    """``scalar·point`` by a 4-bit fixed window (scalar >= 0)."""
    if scalar == 0:
        return _IDENTITY
    table = _multiples(point)
    shift = 4 * ((scalar.bit_length() - 1) // 4)
    result = _add_cached(_IDENTITY, table[scalar >> shift])
    while shift:
        shift -= 4
        result = _point_double(_point_double(_point_double(_point_double(result))))
        digit = (scalar >> shift) & 15
        if digit:
            result = _add_cached(result, table[digit])
    return result


def _recover_x(y: int, sign: int) -> int:
    if y >= _P:
        raise IntegrityError("Ed25519 point y-coordinate out of range")
    x2 = (y * y - 1) * pow(_D * y * y + 1, _P - 2, _P)
    if x2 == 0:
        if sign:
            raise IntegrityError("invalid Ed25519 point encoding")
        return 0
    x = pow(x2, (_P + 3) // 8, _P)
    if (x * x - x2) % _P != 0:
        x = (x * pow(2, (_P - 1) // 4, _P)) % _P
    if (x * x - x2) % _P != 0:
        raise IntegrityError("invalid Ed25519 point encoding")
    if x & 1 != sign:
        x = _P - x
    return x


_BASE_Y = (4 * pow(5, _P - 2, _P)) % _P
_BASE_X = _recover_x(_BASE_Y, 0)
_BASE: Point = (_BASE_X, _BASE_Y, 1, (_BASE_X * _BASE_Y) % _P)


@functools.lru_cache(maxsize=None)
def _base_table() -> Tuple[List[Cached], ...]:
    """Row i holds ``j·16^i·B`` for j in 0..15, in cached form."""
    rows = []
    base = _BASE
    for _ in range(64):
        rows.append(_multiples(base))
        base = _point_double(_point_double(_point_double(_point_double(base))))
    return tuple(rows)


def _base_mult(scalar: int) -> Point:
    """``scalar·B``: one table addition per nonzero radix-16 digit."""
    k = scalar % _L
    result = _IDENTITY
    for row in _base_table():
        digit = k & 15
        if digit:
            result = _add_cached(result, row[digit])
        k >>= 4
    return result


def _compress(point: Point) -> bytes:
    x, y, z, _ = point
    z_inv = pow(z, _P - 2, _P)
    x, y = (x * z_inv) % _P, (y * z_inv) % _P
    return (y | ((x & 1) << 255)).to_bytes(32, "little")


def _decompress(data: bytes) -> Point:
    if len(data) != 32:
        raise IntegrityError("Ed25519 point must be 32 bytes")
    y = int.from_bytes(data, "little")
    sign = y >> 255
    y &= (1 << 255) - 1
    x = _recover_x(y, sign)
    return (x, y, 1, (x * y) % _P)


def _points_equal(p: Point, q: Point) -> bool:
    x1, y1, z1, _ = p
    x2, y2, z2, _ = q
    return (x1 * z2 - x2 * z1) % _P == 0 and (y1 * z2 - y2 * z1) % _P == 0


def _sha512(*parts: bytes) -> bytes:
    h = hashlib.sha512()
    for part in parts:
        h.update(part)
    return h.digest()


def _secret_expand(secret: bytes) -> Tuple[int, bytes]:
    if len(secret) != 32:
        raise ValueError("Ed25519 private key must be 32 bytes")
    h = _sha512(secret)
    a = int.from_bytes(h[:32], "little")
    a &= (1 << 254) - 8
    a |= 1 << 254
    return a, h[32:]


class Ed25519PrivateKey:
    """Ed25519 signing key."""

    def __init__(self, private_bytes: bytes) -> None:
        self._secret = private_bytes
        self._scalar, self._prefix = _secret_expand(private_bytes)
        self._public_point = _base_mult(self._scalar)
        self._public_bytes = _compress(self._public_point)

    @classmethod
    def generate(cls, random_bytes: bytes) -> "Ed25519PrivateKey":
        """Build a signing key from caller-supplied randomness (32 bytes)."""
        return cls(random_bytes)

    def public_key(self) -> "Ed25519PublicKey":
        return Ed25519PublicKey(self._public_bytes)

    def private_bytes(self) -> bytes:
        return self._secret

    def sign(self, message: bytes) -> bytes:
        """Produce a 64-byte RFC 8032 signature."""
        r = int.from_bytes(_sha512(self._prefix, message), "little") % _L
        r_point = _base_mult(r)
        r_bytes = _compress(r_point)
        k = (
            int.from_bytes(
                _sha512(r_bytes, self._public_bytes, message), "little"
            )
            % _L
        )
        s = (r + k * self._scalar) % _L
        return r_bytes + s.to_bytes(32, "little")


class Ed25519PublicKey:
    """Ed25519 verification key."""

    def __init__(self, public_bytes: bytes) -> None:
        if len(public_bytes) != 32:
            raise ValueError("Ed25519 public key must be 32 bytes")
        self._public_bytes = public_bytes
        self._point = _decompress(public_bytes)

    def public_bytes(self) -> bytes:
        return self._public_bytes

    def verify(self, signature: bytes, message: bytes) -> None:
        """Raise :class:`IntegrityError` unless ``signature`` is valid."""
        if len(signature) != 64:
            raise IntegrityError("Ed25519 signature must be 64 bytes")
        r_bytes, s_bytes = signature[:32], signature[32:]
        s = int.from_bytes(s_bytes, "little")
        if s >= _L:
            raise IntegrityError("Ed25519 signature scalar out of range")
        r_point = _decompress(r_bytes)
        k = (
            int.from_bytes(
                _sha512(r_bytes, self._public_bytes, message), "little"
            )
            % _L
        )
        lhs = _base_mult(s)
        rhs = _point_add(r_point, _scalar_mult(k, self._point))
        if not _points_equal(lhs, rhs):
            raise IntegrityError("Ed25519 signature verification failed")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Ed25519PublicKey)
            and self._public_bytes == other._public_bytes
        )

    def __hash__(self) -> int:
        return hash(self._public_bytes)
