"""Self-tests of the benchmark's arithmetic.

Run from the repository root:

    python3 -m pytest twoclock/test_helpers.py -q
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import helpers  # noqa: E402


# -- tail percentile -------------------------------------------------------


def test_tail_takes_highest_rung_with_ten_beyond():
    samples = list(range(1, 1001))  # 1000 samples
    q, value, beyond = helpers.tail_percentile(samples)
    # p99.9 leaves 1 beyond; p99 leaves exactly 10.
    assert (q, value, beyond) == (99.0, 990, 10)


def test_tail_needs_ten_beyond_not_nine():
    samples = list(range(1, 1000))  # 999 samples: p99 leaves 9 beyond
    q, value, beyond = helpers.tail_percentile(samples)
    assert q == 90.0
    assert beyond == 99
    assert value == 900


def test_tail_is_order_independent():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0] * 10
    assert helpers.tail_percentile(samples) == helpers.tail_percentile(sorted(samples))


def test_tail_of_few_samples_falls_back_to_median():
    q, value, beyond = helpers.tail_percentile([3.0, 1.0, 2.0])
    assert (q, value, beyond) == (50.0, 2.0, 1)


def test_tail_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        helpers.tail_percentile([])


# -- normalization ---------------------------------------------------------


def test_normalize_at_reference_speed_is_identity():
    ref = helpers.REFERENCE_KERNEL_S
    assert helpers.normalize(1.5, ref, ref) == pytest.approx(1.5)
    assert helpers.host_speed(ref, ref) == pytest.approx(1.0)


def test_normalize_cancels_a_uniformly_slower_host():
    ref = helpers.REFERENCE_KERNEL_S
    # Twice as slow: the phase and both kernel timings double.
    assert helpers.normalize(3.0, 2 * ref, 2 * ref) == pytest.approx(1.5)
    assert helpers.host_speed(2 * ref, 2 * ref) == pytest.approx(0.5)


def test_normalize_uses_the_mean_of_both_brackets():
    ref = helpers.REFERENCE_KERNEL_S
    assert helpers.normalize(1.0, ref, 3 * ref) == pytest.approx(0.5)


def test_normalize_rejects_nonpositive_kernel_times():
    with pytest.raises(ValueError):
        helpers.normalize(1.0, 0.0, 0.01)


# -- self time -------------------------------------------------------------


def test_self_time_subtracts_nested_children():
    spans = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 6.0, 0),
        ("c", 2.0, 3.0, 1),
    ]
    assert helpers.self_times(spans) == pytest.approx([5.0, 4.0, 1.0])
    assert helpers.layer_self_times(spans) == pytest.approx(
        {"a": 5.0, "b": 4.0, "c": 1.0}
    )


def test_self_time_subtracts_siblings_separately():
    spans = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 3.0, 0),
        ("b", 4.0, 7.0, 0),
        ("a", 12.0, 14.0, -1),
    ]
    assert helpers.self_times(spans) == pytest.approx([5.0, 2.0, 3.0, 2.0])
    assert helpers.layer_self_times(spans) == pytest.approx({"a": 7.0, "b": 5.0})


def test_self_times_sum_to_the_covered_time():
    spans = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 6.0, 0),
        ("a", 2.0, 3.0, 1),  # re-entry into layer a
        ("c", 7.0, 9.0, 0),
        ("c", 11.0, 12.5, -1),
    ]
    assert sum(helpers.self_times(spans)) == pytest.approx(
        helpers.covered_time(spans)
    )
    assert helpers.covered_time(spans) == pytest.approx(11.5)


def test_overlapping_children_are_counted_once_and_clipped():
    spans = [
        ("a", 0.0, 10.0, -1),
        ("b", 2.0, 6.0, 0),
        ("b", 4.0, 8.0, 0),
        ("b", 9.0, 12.0, 0),  # runs past its parent's end
    ]
    assert helpers.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


# -- digest ----------------------------------------------------------------


def test_digest_ignores_key_order():
    assert helpers.digest({"a": 1, "b": [1.5, 2]}) == helpers.digest(
        {"b": [1.5, 2], "a": 1}
    )


def test_digest_sees_the_last_float_digit():
    assert helpers.digest({"t": 0.1 + 0.2}) != helpers.digest({"t": 0.3})


def test_digest_is_stable_across_processes():
    # A fixed input has a fixed digest: nothing process-specific (hash
    # randomization, dict order, object ids) may leak into it.
    assert helpers.digest({"x": [1, 2.5, "s"], "y": None}) == "28b9c8d4e206d10a"


def test_scrub_drops_host_dependent_counters():
    flat = {
        "shields.aead_cache_hits": 3.0,
        "shields.fs_real_crypto_time": 0.2,
        "shields.fs_crypto_time": 0.1,
        "network_messages": 7.0,
    }
    assert helpers.scrub(flat) == {
        "shields.fs_crypto_time": 0.1,
        "network_messages": 7.0,
    }


def test_sub_seeds_are_fixed_per_seed_and_distinct():
    first = [helpers.sub_seed("serve", 0, k) for k in range(3)]
    assert first == [helpers.sub_seed("serve", 0, k) for k in range(3)]
    assert len(set(first)) == 3
    assert helpers.sub_seed("serve", 1, 0) != first[0]
    assert helpers.sub_seed("train", 0, 0) != first[0]
