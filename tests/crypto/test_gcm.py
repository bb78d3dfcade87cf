"""AES-GCM against NIST vectors and tamper-detection requirements."""

import pytest
from hypothesis import given, strategies as st

from repro.crypto.gcm import AesGcm
from repro.errors import IntegrityError
from tests.crypto.oracles import ghash_reference


def test_nist_empty_plaintext_vector():
    gcm = AesGcm(b"\x00" * 16)
    out = gcm.encrypt(b"\x00" * 12, b"")
    assert out.hex() == "58e2fccefa7e3061367f1d57a4e7455a"


def test_nist_single_block_vector():
    gcm = AesGcm(b"\x00" * 16)
    out = gcm.encrypt(b"\x00" * 12, b"\x00" * 16)
    assert out.hex() == (
        "0388dace60b6a392f328c2b971b2fe78"
        "ab6e47d42cec13bdf53a67b21257bddf"
    )


def test_roundtrip_with_aad():
    gcm = AesGcm(bytes(range(32)))
    sealed = gcm.encrypt(b"\x07" * 12, b"payload", aad=b"header")
    assert gcm.decrypt(b"\x07" * 12, sealed, aad=b"header") == b"payload"


def test_tampered_ciphertext_rejected():
    gcm = AesGcm(bytes(range(16)))
    sealed = bytearray(gcm.encrypt(b"\x01" * 12, b"secret message"))
    sealed[3] ^= 0x40
    with pytest.raises(IntegrityError):
        gcm.decrypt(b"\x01" * 12, bytes(sealed))


def test_tampered_tag_rejected():
    gcm = AesGcm(bytes(range(16)))
    sealed = bytearray(gcm.encrypt(b"\x01" * 12, b"secret message"))
    sealed[-1] ^= 1
    with pytest.raises(IntegrityError):
        gcm.decrypt(b"\x01" * 12, bytes(sealed))


def test_wrong_aad_rejected():
    gcm = AesGcm(bytes(range(16)))
    sealed = gcm.encrypt(b"\x01" * 12, b"msg", aad=b"right")
    with pytest.raises(IntegrityError):
        gcm.decrypt(b"\x01" * 12, sealed, aad=b"wrong")


def test_wrong_nonce_rejected():
    gcm = AesGcm(bytes(range(16)))
    sealed = gcm.encrypt(b"\x01" * 12, b"msg")
    with pytest.raises(IntegrityError):
        gcm.decrypt(b"\x02" * 12, sealed)


def test_truncated_input_rejected():
    gcm = AesGcm(bytes(range(16)))
    with pytest.raises(IntegrityError):
        gcm.decrypt(b"\x01" * 12, b"short")


def test_nonce_length_enforced():
    gcm = AesGcm(bytes(16))
    with pytest.raises(ValueError):
        gcm.encrypt(b"\x00" * 11, b"x")


@given(
    st.binary(min_size=0, max_size=300),
    st.binary(min_size=0, max_size=40),
    st.binary(min_size=16, max_size=16),
)
def test_roundtrip_property(plaintext, aad, key):
    gcm = AesGcm(key)
    sealed = gcm.encrypt(b"\x09" * 12, plaintext, aad=aad)
    assert gcm.decrypt(b"\x09" * 12, sealed, aad=aad) == plaintext


# ---------------------------------------------------------------------------
# Table-driven / grouped GHASH vs the bit-loop reference
# ---------------------------------------------------------------------------


def test_nist_vector_with_aad():
    # NIST SP 800-38D test case 4 (AES-128, 60-byte plaintext, 20-byte AAD).
    key = bytes.fromhex("feffe9928665731c6d6a8f9467308308")
    nonce = bytes.fromhex("cafebabefacedbaddecaf888")
    plaintext = bytes.fromhex(
        "d9313225f88406e5a55909c5aff5269a"
        "86a7a9531534f7da2e4c303d8a318a72"
        "1c3c0c95956809532fcf0e2449a6b525"
        "b16aedf5aa0de657ba637b39"
    )
    aad = bytes.fromhex("feedfacedeadbeeffeedfacedeadbeefabaddad2")
    gcm = AesGcm(key)
    sealed = gcm.encrypt(nonce, plaintext, aad=aad)
    assert sealed.hex() == (
        "42831ec2217774244b7221b784d0d49c"
        "e3aa212f2c02a4e035c17e2329aca12e"
        "21d514b25466931c7d8f6a5aac84aa05"
        "1ba30b396a0aac973d58e091"
        "5bc94fbc3221a5db94fae95ae7121a47"
    )
    assert gcm.decrypt(nonce, sealed, aad=aad) == plaintext


@pytest.mark.parametrize(
    "ct_len,aad_len",
    [(0, 0), (1, 0), (16, 20), (255, 13), (4095, 0), (4096, 4096), (4097, 31), (9000, 100)],
)
def test_fast_ghash_matches_reference(ct_len, aad_len):
    # Sizes straddle the grouped-path threshold and group boundaries.
    gcm = AesGcm(bytes(range(16)))
    ciphertext = bytes((i * 31 + 7) % 256 for i in range(ct_len))
    aad = bytes((i * 13 + 5) % 256 for i in range(aad_len))
    assert gcm._ghash(aad, ciphertext) == ghash_reference(gcm, aad, ciphertext)


@given(st.binary(min_size=0, max_size=600), st.binary(min_size=16, max_size=16))
def test_fast_ghash_equivalence_property(data, key):
    gcm = AesGcm(key)
    assert gcm._ghash(b"", data) == ghash_reference(gcm, b"", data)
    # Force the grouped path regardless of the size threshold.
    assert gcm._ghash_update_grouped(0, data) == gcm._ghash_update_serial(0, data)


def test_long_message_roundtrip_across_group_boundary():
    gcm = AesGcm(bytes(range(32)))
    for length in (4096 - 1, 4096, 16 * 256, 16 * 256 + 5, 70000):
        plaintext = bytes((i * 3 + 1) % 256 for i in range(length))
        sealed = gcm.encrypt(b"\x0b" * 12, plaintext, aad=b"hdr")
        assert gcm.decrypt(b"\x0b" * 12, sealed, aad=b"hdr") == plaintext
