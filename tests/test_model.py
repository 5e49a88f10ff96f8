import dataclasses
import math

import numpy as np
import pytest

from ma_bench import (DeviceSet, SystemParams, TrafficModel, channel_gain,
                      make_device_set, received_snr, sample_arrivals,
                      sample_placement, trial_rng)
from ma_bench.model import placement_from_uniform


def test_channel_gain_examples():
    assert channel_gain(1.0, 4.0) == 1.0
    assert channel_gain(0.5, 4.0) == pytest.approx(16.0, rel=1e-12)
    assert channel_gain(0.1, 2.0) == pytest.approx(100.0, rel=1e-12)


@pytest.mark.parametrize("bad", [0.0, -0.3, 1.0001, 2.0])
def test_channel_gain_rejects_outside_cell(bad):
    with pytest.raises(ValueError):
        channel_gain(bad, 4.0)


def test_channel_gain_decreasing_and_at_least_one():
    u = np.linspace(1e-3, 1.0, 500)
    g = channel_gain(u, 4.0)
    assert np.all(np.diff(g) < 0)
    assert np.all(g >= 1.0)


def test_placement_inverse_cdf():
    assert placement_from_uniform(0.25) == 0.5
    assert placement_from_uniform(1.0) == 1.0


def test_sample_placement_empty_and_range():
    rng = trial_rng(1, 0)
    assert sample_placement(0, rng).size == 0
    u = sample_placement(10_000, rng)
    assert np.all(u > 0) and np.all(u <= 1.0)


def test_sample_placement_matches_disc_cdf():
    # Kolmogorov-Smirnov against F(u) = u^2, hand-rolled statistic.
    n = 100_000
    u = np.sort(sample_placement(n, trial_rng(7, 0)))
    cdf = u ** 2
    steps = np.arange(n, dtype=float)
    ks = max(np.max((steps + 1) / n - cdf), np.max(cdf - steps / n))
    critical_1pct = 1.6276236307187292 / math.sqrt(n)
    assert ks < critical_1pct


def test_sample_arrivals_zero_rate():
    rng = trial_rng(3, 0)
    assert np.array_equal(sample_arrivals(TrafficModel(0.0), 1.0, rng, size=100), np.zeros(100))


def test_sample_arrivals_mean_clt_bound():
    rng = trial_rng(11, 0)
    draws = sample_arrivals(TrafficModel(1000.0), 1.0, rng, size=10_000)
    assert abs(np.mean(draws) - 1000.0) < 3.0 * math.sqrt(1000.0 / 10_000)


def test_sample_arrivals_is_poisson_of_load():
    # the op draws exactly rng.poisson(arrival_rate * slot_s, size)
    ours = sample_arrivals(TrafficModel(40.0), 0.5, trial_rng(13, 0), size=1000)
    assert ours.dtype == np.int64
    assert np.array_equal(ours, trial_rng(13, 0).poisson(20.0, size=1000))


def test_sample_arrivals_empty_slot_probability():
    # distributional check at scale through the generator the op wraps
    rng = trial_rng(13, 0)
    draws = rng.poisson(5.0, size=1_000_000)
    p_hat = np.mean(draws == 0)
    p_exact = 0.006737946999085467   # exp(-5)
    assert abs(p_hat - p_exact) < 3.0 * math.sqrt(p_exact * (1 - p_exact) / 1e6)


def test_traffic_model_rejects_negative_rate():
    with pytest.raises(ValueError):
        TrafficModel(-1.0)


def test_sample_arrivals_reproducible():
    a = [sample_arrivals(TrafficModel(50.0), 1.0, trial_rng(5, i), size=20) for i in range(20)]
    b = [sample_arrivals(TrafficModel(50.0), 1.0, trial_rng(5, i), size=20) for i in range(20)]
    assert np.array_equal(a, b)


def test_received_snr_examples():
    assert received_snr(1.0, 1.0, 2.5, 1.0) == 2.5
    assert received_snr(0.0, 4.0, 2.5, 100.0) == 0.0
    assert received_snr(0.5, 2.0, 1.0, 16.0) == pytest.approx(16.0, rel=1e-12)


def test_received_snr_domain():
    with pytest.raises(ValueError):
        received_snr(1.2, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        received_snr(0.5, 0.5, 1.0, 1.0)   # occupied band wider than total


def test_device_set_invariants_from_sampling(params):
    for seed in range(25):
        devices = make_device_set(200, params, trial_rng(seed, 0))
        g = devices.gains
        assert np.all(np.diff(g) <= 0)
        assert np.all(g >= 1.0)


def test_device_set_rejects_bad_input():
    with pytest.raises(ValueError):
        DeviceSet(np.array([1.0, 2.0]))       # ascending
    with pytest.raises(ValueError):
        DeviceSet(np.array([2.0, 0.5]))       # below cell-edge gain


def test_device_set_top(params):
    devices = make_device_set(10, params, trial_rng(1, 1))
    assert len(devices.top(3)) == 3
    assert devices.top(3).gains[0] == devices.gains[0]


def test_trial_rng_substreams_independent():
    first = trial_rng(9, 0).random(8)
    again = trial_rng(9, 0).random(8)
    other = trial_rng(9, 1).random(8)
    assert np.array_equal(first, again)
    assert not np.array_equal(first, other)
    # two keys are the plain (master_seed, index) SeedSequence; a third key
    # (the engine's point, block) opens another substream, except that
    # SeedSequence pads short keys with zeros, so (9, 0, 0) is (9, 0)
    plain = np.random.Generator(np.random.PCG64(np.random.SeedSequence((9, 0))))
    assert np.array_equal(first, plain.random(8))
    assert np.array_equal(first, trial_rng(9, 0, 0).random(8))
    block = trial_rng(9, 0, 1).random(8)
    assert np.array_equal(block, trial_rng(9, 0, 1).random(8))
    assert not np.array_equal(block, first) and not np.array_equal(block, other)


def test_trial_rng_keys_must_fit_in_32_bits():
    # SeedSequence splits a key >= 2**32 into 32-bit words: (2**32, 5, 0)
    # would draw exactly what (0, 1, 5) draws
    for key in ((2 ** 32, 5, 0), (-1, 0), (0, 2 ** 32), (0, 1, -1), (2 ** 40,)):
        with pytest.raises(ValueError, match=r"2\*\*32"):
            trial_rng(*key)
    top = trial_rng(2 ** 32 - 1, 2 ** 32 - 1).random(4)
    plain = np.random.SeedSequence((2 ** 32 - 1, 2 ** 32 - 1))
    assert np.array_equal(top, np.random.Generator(np.random.PCG64(plain)).random(4))


def test_system_params_validation():
    with pytest.raises(ValueError):
        SystemParams(payload_bits=0.0)
    with pytest.raises(ValueError):
        SystemParams(pathloss_exp=2.0)
    with pytest.raises(ValueError):
        SystemParams(min_slot_s=2.0)          # exceeds the slot
    with pytest.raises(ValueError):
        SystemParams(min_subchannel_hz=2e6)   # exceeds the band


def test_system_params_reject_infinite_snr_floor():
    with pytest.raises(ValueError, match="SNR floor"):
        SystemParams(payload_bits=1.024e9)    # 2**1024 overflows
    with pytest.raises(ValueError, match="SNR floor"):
        SystemParams(bandwidth_hz=1e-200, slot_s=1e-200, min_slot_s=1e-201,
                     min_subchannel_hz=1e-201)   # the resource block underflows


def test_system_params_reject_zero_snr_floor():
    # 2**x - 1 rounds to 0 below x ~ 1.6e-16; the capacity bound 1/floor
    # would divide by zero
    with pytest.raises(ValueError, match="SNR floor.*rounds to 0"):
        SystemParams(payload_bits=1e-20)
    assert SystemParams(payload_bits=1e-9).snr_floor > 0


def test_snr_floor_matches_definition(params):
    assert params.snr_floor == pytest.approx(2.0 ** 0.001 - 1.0, rel=1e-15)
    assert SystemParams(payload_bits=1e6).snr_floor == 1.0
    assert math.isfinite(SystemParams(payload_bits=1.0239e9).snr_floor)


def test_digest_tracks_parameters(params):
    assert params.digest() == SystemParams().digest()
    assert params.digest() != SystemParams(ref_snr=2.0).digest()


def test_default_digest_is_pinned():
    # rows written by earlier versions carry this digest for the defaults
    assert SystemParams().digest() == "1622cd6dec97"


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(SystemParams)])
def test_digest_covers_every_field(name):
    base = SystemParams()
    nudged = dataclasses.replace(base, **{name: math.nextafter(getattr(base, name), math.inf)})
    assert nudged.digest() != base.digest()


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(SystemParams)])
def test_every_field_must_be_positive_and_finite(name):
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match=name):
            SystemParams(**{name: bad})
