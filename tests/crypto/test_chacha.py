"""ChaCha20-Poly1305 against RFC 8439 vectors."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.chacha import (
    _SCALAR_MAX_BLOCKS,
    ChaCha20Poly1305,
    _lanes_keystream,
    _scalar_blocks,
    chacha20_keystream,
    chacha20_xor,
    poly1305_mac,
)
from repro.errors import IntegrityError
from tests.crypto.oracles import (
    chacha20_keystream_reference,
    chacha20_poly1305_seal_reference,
    poly1305_mac_reference,
)

RFC_KEY = bytes(range(32))


def test_rfc8439_block_function():
    nonce = bytes.fromhex("000000090000004a00000000")
    stream = chacha20_keystream(RFC_KEY, nonce, 1, 64)
    assert stream.hex() == (
        "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
        "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
    )


def test_rfc8439_encryption():
    key = RFC_KEY
    nonce = bytes.fromhex("000000000000004a00000000")
    plaintext = (
        b"Ladies and Gentlemen of the class of '99: If I could offer you "
        b"only one tip for the future, sunscreen would be it."
    )
    ct = chacha20_xor(key, nonce, 1, plaintext)
    assert ct.hex().startswith("6e2e359a2568f98041ba0728dd0d6981")
    assert chacha20_xor(key, nonce, 1, ct) == plaintext


def test_rfc8439_poly1305():
    key = bytes.fromhex(
        "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b"
    )
    tag = poly1305_mac(key, b"Cryptographic Forum Research Group")
    assert tag.hex() == "a8061dc1305136c6c22b8baf0c0127a9"


def test_rfc8439_aead_vector():
    key = bytes.fromhex(
        "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f"
    )
    nonce = bytes.fromhex("070000004041424344454647")
    aad = bytes.fromhex("50515253c0c1c2c3c4c5c6c7")
    plaintext = (
        b"Ladies and Gentlemen of the class of '99: If I could offer you "
        b"only one tip for the future, sunscreen would be it."
    )
    aead = ChaCha20Poly1305(key)
    sealed = aead.encrypt(nonce, plaintext, aad)
    assert sealed[-16:].hex() == "1ae10b594f09e26a7e902ecbd0600691"
    assert aead.decrypt(nonce, sealed, aad) == plaintext


def test_tamper_detection_everywhere():
    aead = ChaCha20Poly1305(bytes(32))
    nonce = b"\x05" * 12
    sealed = aead.encrypt(nonce, b"data" * 100, aad=b"meta")
    for position in (0, len(sealed) // 2, len(sealed) - 1):
        corrupted = bytearray(sealed)
        corrupted[position] ^= 0x80
        with pytest.raises(IntegrityError):
            aead.decrypt(nonce, bytes(corrupted), aad=b"meta")


def test_aad_binding():
    aead = ChaCha20Poly1305(bytes(32))
    sealed = aead.encrypt(b"\x00" * 12, b"x", aad=b"context-a")
    with pytest.raises(IntegrityError):
        aead.decrypt(b"\x00" * 12, sealed, aad=b"context-b")


def test_keystream_counter_continuity():
    a = chacha20_keystream(RFC_KEY, bytes(12), 0, 128)
    b = chacha20_keystream(RFC_KEY, bytes(12), 0, 64) + chacha20_keystream(
        RFC_KEY, bytes(12), 1, 64
    )
    assert a == b


def test_empty_keystream():
    assert chacha20_keystream(RFC_KEY, bytes(12), 0, 0) == b""


def test_key_and_nonce_validation():
    with pytest.raises(ValueError):
        ChaCha20Poly1305(bytes(31))
    aead = ChaCha20Poly1305(bytes(32))
    with pytest.raises(ValueError):
        aead.encrypt(bytes(11), b"x")
    with pytest.raises(ValueError):
        poly1305_mac(bytes(31), b"x")


def test_counter_range_enforced():
    last = 2**32 - 1
    n = (_SCALAR_MAX_BLOCKS + 1) * 64
    # The final blocks of the counter space are still usable, on either path.
    for counter, n_bytes in ((last, 64), (2**32 - n // 64, n)):
        assert chacha20_keystream(RFC_KEY, bytes(12), counter, n_bytes) == (
            chacha20_keystream_reference(RFC_KEY, bytes(12), counter, n_bytes)
        )
    # One byte past the end (the 32-bit counter would wrap and reuse
    # keystream), a negative counter, a negative length.
    for counter, n_bytes in (
        (last, 65), (2**32 - n // 64, n + 1), (2**32, 1), (-1, 64), (0, -1)
    ):
        with pytest.raises(ValueError):
            chacha20_keystream(RFC_KEY, bytes(12), counter, n_bytes)
    with pytest.raises(ValueError):
        chacha20_xor(RFC_KEY, bytes(12), last, bytes(65))


# ---------------------------------------------------------------------------
# Scalar and 4-lane keystream paths vs the per-row reference
# ---------------------------------------------------------------------------

KEY = bytes((i * 29 + 3) % 256 for i in range(32))
NONCE = bytes(range(100, 112))


@pytest.mark.parametrize("n_blocks", range(1, _SCALAR_MAX_BLOCKS + 4))
@pytest.mark.parametrize("counter", [0, 1, 2**31, 2**32 - _SCALAR_MAX_BLOCKS - 3])
def test_keystream_paths_match_reference(n_blocks, counter):
    expected = chacha20_keystream_reference(KEY, NONCE, counter, n_blocks * 64)
    assert _scalar_blocks(KEY, NONCE, counter, n_blocks) == expected
    assert _lanes_keystream(KEY, NONCE, counter, n_blocks) == expected
    assert chacha20_keystream(KEY, NONCE, counter, n_blocks * 64) == expected


@pytest.mark.parametrize("n_blocks", [64, 545])
def test_long_keystream_matches_reference(n_blocks):
    counter = 2**32 - n_blocks
    assert _lanes_keystream(KEY, NONCE, counter, n_blocks) == (
        chacha20_keystream_reference(KEY, NONCE, counter, n_blocks * 64)
    )


@settings(max_examples=40)
@given(
    st.binary(min_size=32, max_size=32),
    st.binary(min_size=12, max_size=12),
    st.integers(min_value=0, max_value=(_SCALAR_MAX_BLOCKS + 3) * 64),
    st.integers(min_value=0, max_value=2**32 - _SCALAR_MAX_BLOCKS - 3),
)
def test_keystream_equivalence_property(key, nonce, n_bytes, counter):
    assert chacha20_keystream(key, nonce, counter, n_bytes) == (
        chacha20_keystream_reference(key, nonce, counter, n_bytes)
    )


@pytest.mark.parametrize(
    "length",
    # 64 + length bytes of keystream: the last two cross the scalar/lane
    # threshold.
    [0, 1, 31, 32, 63, 64, 65]
    + [(_SCALAR_MAX_BLOCKS - 1) * 64, (_SCALAR_MAX_BLOCKS - 1) * 64 + 1],
)
def test_aead_matches_two_stream_reference(length):
    # The AEAD takes its one-time key and data stream from one keystream
    # call; the split at byte 64 must match RFC 8439's two calls.
    plaintext = bytes((i * 7 + 1) % 256 for i in range(length))
    aead = ChaCha20Poly1305(KEY)
    sealed = aead.encrypt(NONCE, plaintext, aad=b"hdr")
    assert sealed == chacha20_poly1305_seal_reference(KEY, NONCE, plaintext, b"hdr")
    assert aead.decrypt(NONCE, sealed, aad=b"hdr") == plaintext


@settings(max_examples=25)
@given(st.binary(min_size=0, max_size=5000), st.binary(min_size=32, max_size=32))
def test_roundtrip_property(plaintext, key):
    aead = ChaCha20Poly1305(key)
    sealed = aead.encrypt(b"\x01" * 12, plaintext)
    assert sealed == chacha20_poly1305_seal_reference(key, b"\x01" * 12, plaintext)
    assert aead.decrypt(b"\x01" * 12, sealed) == plaintext


# ---------------------------------------------------------------------------
# Vectorized Poly1305 vs the serial reference
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "length", [0, 1, 15, 16, 17, 63, 64, 65, 8191, 8192, 8193, 70000]
)
def test_poly1305_fast_matches_reference(length):
    key = bytes((i * 11 + 2) % 256 for i in range(32))
    message = bytes((i * 5 + 1) % 256 for i in range(length))
    assert poly1305_mac(key, message) == poly1305_mac_reference(key, message)
    # Force the striped bulk path even on short inputs.
    assert poly1305_mac(key, message, _min_blocks=4) == (
        poly1305_mac_reference(key, message)
    )


def test_poly1305_fast_degenerate_r_zero():
    # r clamps to zero: the bulk path must not divide the message into
    # stripes with a zero multiplier (it falls back to the serial loop).
    key = b"\x00" * 16 + bytes(range(16))
    message = b"\xaa" * 5000
    assert poly1305_mac(key, message, _min_blocks=4) == (
        poly1305_mac_reference(key, message)
    )


@given(st.binary(min_size=0, max_size=400), st.binary(min_size=32, max_size=32))
def test_poly1305_equivalence_property(message, key):
    assert poly1305_mac(key, message) == poly1305_mac_reference(key, message)
    assert poly1305_mac(key, message, _min_blocks=1) == (
        poly1305_mac_reference(key, message)
    )
