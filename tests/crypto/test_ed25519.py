"""Ed25519 against RFC 8032 vectors and signature properties."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.ed25519 import (
    _BASE,
    _IDENTITY,
    _L,
    Ed25519PrivateKey,
    Ed25519PublicKey,
    _base_mult,
    _compress,
    _point_add,
    _point_double,
    _points_equal,
    _scalar_mult,
    _secret_expand,
    _sha512,
)
from repro.errors import IntegrityError
from tests.crypto.oracles import scalar_mult_reference


def test_rfc8032_test_1_empty_message():
    sk = Ed25519PrivateKey(
        bytes.fromhex(
            "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60"
        )
    )
    assert sk.public_key().public_bytes().hex() == (
        "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a"
    )
    signature = sk.sign(b"")
    assert signature.hex() == (
        "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
        "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"
    )
    sk.public_key().verify(signature, b"")


def test_rfc8032_test_2_one_byte():
    sk = Ed25519PrivateKey(
        bytes.fromhex(
            "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb"
        )
    )
    signature = sk.sign(b"\x72")
    assert signature.hex() == (
        "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
        "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"
    )


def test_tampered_message_rejected():
    sk = Ed25519PrivateKey(bytes(range(32)))
    signature = sk.sign(b"authentic")
    with pytest.raises(IntegrityError):
        sk.public_key().verify(signature, b"forged")


def test_tampered_signature_rejected():
    sk = Ed25519PrivateKey(bytes(range(32)))
    signature = bytearray(sk.sign(b"message"))
    signature[10] ^= 1
    with pytest.raises(IntegrityError):
        sk.public_key().verify(bytes(signature), b"message")


def test_wrong_key_rejected():
    sk1 = Ed25519PrivateKey(bytes(range(32)))
    sk2 = Ed25519PrivateKey(bytes(range(1, 33)))
    signature = sk1.sign(b"message")
    with pytest.raises(IntegrityError):
        sk2.public_key().verify(signature, b"message")


def test_signature_length_enforced():
    sk = Ed25519PrivateKey(bytes(range(32)))
    with pytest.raises(IntegrityError):
        sk.public_key().verify(b"short", b"message")


def test_scalar_out_of_range_rejected():
    sk = Ed25519PrivateKey(bytes(range(32)))
    signature = bytearray(sk.sign(b"m"))
    signature[32:] = b"\xff" * 32  # s >= L
    with pytest.raises(IntegrityError):
        sk.public_key().verify(bytes(signature), b"m")


def test_public_key_validation():
    with pytest.raises(ValueError):
        Ed25519PublicKey(bytes(31))


@settings(max_examples=10)
@given(st.binary(min_size=32, max_size=32), st.binary(min_size=0, max_size=100))
def test_sign_verify_property(key_bytes, message):
    sk = Ed25519PrivateKey(key_bytes)
    sk.public_key().verify(sk.sign(message), message)


# ---------------------------------------------------------------------------
# Fixed-base table and windowed multiply vs double-and-add
# ---------------------------------------------------------------------------

_EDGE_SCALARS = [0, 1, 2, 15, 16, 17, _L - 1, _L, _L + 1, 2**255 - 1, 2**256 - 1]
_A = scalar_mult_reference(0x1234567890ABCDEF, _BASE)


@pytest.mark.parametrize("scalar", _EDGE_SCALARS)
def test_base_table_matches_reference(scalar):
    assert _compress(_base_mult(scalar)) == (
        _compress(scalar_mult_reference(scalar, _BASE))
    )


@pytest.mark.parametrize("scalar", _EDGE_SCALARS)
def test_windowed_mult_matches_reference(scalar):
    assert _compress(_scalar_mult(scalar, _A)) == (
        _compress(scalar_mult_reference(scalar, _A))
    )


def test_point_double_matches_addition():
    p = _A
    for _ in range(5):
        assert _points_equal(_point_double(p), _point_add(p, p))
        p = _point_add(p, _BASE)
    assert _points_equal(_point_double(_IDENTITY), _IDENTITY)


@settings(max_examples=10)
@given(st.integers(min_value=0, max_value=2**256 - 1))
def test_scalar_mult_equivalence_property(scalar):
    expected = _compress(scalar_mult_reference(scalar, _BASE))
    assert _compress(_base_mult(scalar)) == expected
    assert _compress(_scalar_mult(scalar, _BASE)) == expected


@settings(max_examples=10)
@given(st.binary(min_size=32, max_size=32), st.binary(min_size=0, max_size=100))
def test_signature_matches_reference(key_bytes, message):
    # RFC 8032 §5.1.6 signing with every multiply done by double-and-add.
    sk = Ed25519PrivateKey(key_bytes)
    a, prefix = _secret_expand(key_bytes)
    public = _compress(scalar_mult_reference(a, _BASE))
    r = int.from_bytes(_sha512(prefix, message), "little") % _L
    r_bytes = _compress(scalar_mult_reference(r, _BASE))
    k = int.from_bytes(_sha512(r_bytes, public, message), "little") % _L
    expected = r_bytes + ((r + k * a) % _L).to_bytes(32, "little")
    assert sk.public_key().public_bytes() == public
    assert sk.sign(message) == expected
