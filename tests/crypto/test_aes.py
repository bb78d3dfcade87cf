"""AES block cipher against FIPS 197 / SP 800-38A vectors."""

import pytest
from hypothesis import given, strategies as st

from repro.crypto.aes import AES
from tests.crypto.oracles import encrypt_ctr_reference

PLAIN = bytes.fromhex("00112233445566778899aabbccddeeff")


def test_fips197_aes128():
    aes = AES(bytes.fromhex("000102030405060708090a0b0c0d0e0f"))
    assert aes.encrypt_block(PLAIN).hex() == "69c4e0d86a7b0430d8cdb78070b4c55a"


def test_fips197_aes192():
    aes = AES(bytes.fromhex("000102030405060708090a0b0c0d0e0f1011121314151617"))
    assert aes.encrypt_block(PLAIN).hex() == "dda97ca4864cdfe06eaf70a0ec0d7191"


def test_fips197_aes256():
    aes = AES(
        bytes.fromhex(
            "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"
        )
    )
    assert aes.encrypt_block(PLAIN).hex() == "8ea2b7ca516745bfeafc49904b496089"


@pytest.mark.parametrize("key_len", [16, 24, 32])
def test_decrypt_inverts_encrypt(key_len):
    aes = AES(bytes(range(key_len)))
    block = bytes(range(100, 116))
    assert aes.decrypt_block(aes.encrypt_block(block)) == block


def test_sp800_38a_ctr_mode():
    # SP 800-38A F.5.1 CTR-AES128, adapted to our 12-byte-nonce layout is
    # not byte-identical to the NIST full-16-byte-counter vector, so we
    # verify CTR structurally: keystream xor is an involution and blocks
    # differ under different counters.
    aes = AES(bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"))
    nonce = bytes(12)
    data = bytes(64)
    stream = aes.encrypt_ctr(nonce, data)
    assert len(set(stream[i : i + 16] for i in range(0, 64, 16))) == 4
    assert aes.encrypt_ctr(nonce, stream) == data


def test_ctr_counter_continuity():
    aes = AES(bytes(16))
    nonce = b"\x01" * 12
    whole = aes.encrypt_ctr(nonce, bytes(48), initial_counter=1)
    first = aes.encrypt_ctr(nonce, bytes(16), initial_counter=1)
    rest = aes.encrypt_ctr(nonce, bytes(32), initial_counter=2)
    assert whole == first + rest


def test_rejects_bad_key_length():
    with pytest.raises(ValueError):
        AES(bytes(15))


def test_rejects_bad_block_length():
    aes = AES(bytes(16))
    with pytest.raises(ValueError):
        aes.encrypt_block(bytes(15))
    with pytest.raises(ValueError):
        aes.decrypt_block(bytes(17))


def test_rejects_bad_ctr_nonce():
    aes = AES(bytes(16))
    with pytest.raises(ValueError):
        aes.encrypt_ctr(bytes(11), b"data")


@given(st.binary(min_size=0, max_size=200), st.binary(min_size=32, max_size=32))
def test_ctr_roundtrip_property(data, key):
    aes = AES(key)
    assert aes.encrypt_ctr(b"n" * 12, aes.encrypt_ctr(b"n" * 12, data)) == data


# ---------------------------------------------------------------------------
# Vectorized CTR vs the scalar reference
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("key_len", [16, 24, 32])
@pytest.mark.parametrize("length", [0, 1, 15, 16, 17, 100, 1000, 1024])
def test_vectorized_ctr_matches_reference(key_len, length):
    aes = AES(bytes(range(key_len)))
    data = bytes((i * 7 + 3) % 256 for i in range(length))
    nonce = b"\x5a" * 12
    assert aes.encrypt_ctr(nonce, data, initial_counter=2) == (
        encrypt_ctr_reference(aes, nonce, data, initial_counter=2)
    )


def test_vectorized_ctr_counter_wraps_like_reference():
    aes = AES(bytes(range(16)))
    nonce = b"\x00" * 12
    data = bytes(64)
    start = 0xFFFFFFFE  # crosses the 32-bit counter wrap mid-message
    assert aes.encrypt_ctr(nonce, data, initial_counter=start) == (
        encrypt_ctr_reference(aes, nonce, data, initial_counter=start)
    )


@given(
    st.binary(min_size=0, max_size=300),
    st.binary(min_size=16, max_size=16),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_vectorized_ctr_equivalence_property(data, key, counter):
    aes = AES(key)
    nonce = b"\x11" * 12
    assert aes.encrypt_ctr(nonce, data, initial_counter=counter) == (
        encrypt_ctr_reference(aes, nonce, data, initial_counter=counter)
    )
