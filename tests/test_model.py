import dataclasses
import math

import numpy as np
import pytest

from ma_bench import (DeviceSet, StrongestFirst, SystemParams, TrafficModel,
                      channel_gain, make_device_set, sample_arrivals,
                      sample_placement, trial_rng)


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


def two_sample_ks(first, second):
    """Largest gap between the empirical CDFs of two samples."""
    points = np.concatenate([first, second])
    return np.max(np.abs(
        np.searchsorted(np.sort(first), points, side="right") / first.size
        - np.searchsorted(np.sort(second), points, side="right") / second.size))


def test_strongest_first_has_the_law_of_sorted_placement(params):
    # 6200 devices come in chunks of 2048, 4096 and 56, so the ranks below
    # straddle both Dirichlet splits of the remaining gap.
    n, reps = 6200, 400
    ranks = np.array([1, 2, 1000, 2047, 2048, 2049, 2050, 6143, 6144, 6145, 6199, 6200])
    half = 0.5 * params.pathloss_exp
    drawn = np.array([np.concatenate(list(StrongestFirst(
        n, params.pathloss_exp, trial_rng(11, rep)).gain_chunks()))[ranks - 1]
        for rep in range(reps)]) ** (-1.0 / half)
    placed = np.array([make_device_set(n, params, trial_rng(12, rep)).gains[ranks - 1]
                       for rep in range(reps)]) ** (-1.0 / half)
    # v_(i) = (r/R)**2 of the i-th strongest device has mean i / (n + 1)
    se = drawn.std(axis=0, ddof=1) / math.sqrt(reps)
    assert np.all(np.abs(drawn.mean(axis=0) - ranks / (n + 1)) <= 5.0 * se)
    # and the law of the sorted placement: two-sample Kolmogorov-Smirnov, 0.1%
    critical = math.sqrt(-0.5 * math.log(0.0005)) * math.sqrt(2.0 / reps)
    for column in range(ranks.size):
        assert two_sample_ks(drawn[:, column], placed[:, column]) < critical


def test_strongest_first_chunks_double_and_descend(params):
    source = StrongestFirst(20_000, params.pathloss_exp, trial_rng(3, 1))
    chunks = list(source.gain_chunks())
    assert len(source) == 20_000
    # chunks of 2048, 4096, 8192 and the 5664 left, read in slices of 2048
    assert [c.size for c in chunks] == [2048] * 9 + [20_000 - 18_432]
    # a chunk is drawn whole when its first slice is read, and only then
    rng, reference = trial_rng(3, 1), trial_rng(3, 1)
    slices = StrongestFirst(20_000, params.pathloss_exp, rng).gain_chunks()
    for size, drawn in ((2048, 2048), (4096, 6144)):
        next(slices)
        reference.standard_exponential(size)
        reference.standard_gamma(20_000 + 1 - drawn)
    next(slices)
    assert rng.bit_generator.state == reference.bit_generator.state
    gains = np.concatenate(chunks)
    assert np.all(np.diff(gains) <= 0) and gains[-1] >= 1.0
    log2_gains = np.concatenate(list(StrongestFirst(
        20_000, params.pathloss_exp, trial_rng(3, 1)).log2_gain_chunks()))
    assert np.allclose(log2_gains, np.log2(gains), rtol=1e-12, atol=1e-12)
    assert list(StrongestFirst(0, 4.0, trial_rng(3, 1)).gain_chunks()) == []
    with pytest.raises(ValueError):
        StrongestFirst(-1, 4.0, trial_rng(3, 1))


def test_strongest_first_draws_only_what_is_read():
    # one chunk read: 2048 exponentials and one gamma, as a fresh stream draws
    rng, reference = trial_rng(5, 2), trial_rng(5, 2)
    next(iter(StrongestFirst(10 ** 9, 4.0, rng).gain_chunks()))
    reference.standard_exponential(2048)
    reference.standard_gamma(10 ** 9 + 1 - 2048)
    assert rng.random() == reference.random()


def test_gain_overflow_is_decided_once_per_source(monkeypatch):
    # below 2046 / 53 even the strongest gain a placement can have is finite
    below = np.nextafter(2046 / 53, 0.0)
    assert np.isfinite(np.power(2.0 ** -53, -0.5 * below))
    assert not StrongestFirst(1, below, trial_rng(6, 0))._may_overflow
    assert StrongestFirst(1, 2046 / 53, trial_rng(6, 0))._may_overflow
    # past it gains overflow to inf silently (a warning is an error here) ...
    placements = np.concatenate([v.copy() for v in StrongestFirst(
        3000, 1000.0, trial_rng(6, 0))._placements()])
    gains = np.concatenate(list(StrongestFirst(3000, 1000.0, trial_rng(6, 0)).gain_chunks()))
    with np.errstate(over="ignore"):
        assert np.array_equal(gains, np.power(placements, -500.0))
    assert np.isinf(gains).any() and np.isfinite(gains).any()
    # ... and below it no slice enters an errstate
    monkeypatch.setattr(np, "errstate", None)
    assert np.isfinite(np.concatenate(list(StrongestFirst(
        20_000, below, trial_rng(6, 0)).gain_chunks()))).all()


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
