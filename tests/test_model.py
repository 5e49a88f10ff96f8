import dataclasses
import hashlib
import math
import types

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ma_bench import (DeviceSet, StrongestFirst, SystemParams, TrafficModel,
                      channel_gain, make_device_set, sample_arrivals,
                      sample_placement, trial_rng)
from ma_bench import model
from ma_bench.model import FIRST_CHUNK


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
    drawn = np.array([make_device_set(n, params, trial_rng(11, rep)).gains[ranks - 1]
                      for rep in range(reps)]) ** (-1.0 / half)
    # the oracle: the ascending v of n i.i.d. uniform placements
    placed = np.array([np.sort(1.0 - trial_rng(12, rep).random(n))[ranks - 1]
                       for rep in range(reps)])
    # v_(i) = (r/R)**2 of the i-th strongest device has mean i / (n + 1)
    se = drawn.std(axis=0, ddof=1) / math.sqrt(reps)
    assert np.all(np.abs(drawn.mean(axis=0) - ranks / (n + 1)) <= 5.0 * se)
    # and the law of the sorted placement: two-sample Kolmogorov-Smirnov, 0.1%
    critical = math.sqrt(-0.5 * math.log(0.0005)) * math.sqrt(2.0 / reps)
    for column in range(ranks.size):
        assert two_sample_ks(drawn[:, column], placed[:, column]) < critical


def all_reads(source, log2=False, size=FIRST_CHUNK):
    """Every read of a source's reader (log2 gains with ``log2``), ``size``
    devices asked for at a time, until the source is read."""
    read, parts = source.reader(log2), []
    while sum(part.size for part in parts) < len(source):
        parts.append(read(size).copy())
    return parts


def test_strongest_first_chunks_double_and_descend(params):
    source = StrongestFirst(20_000, params.pathloss_exp, trial_rng(3, 1))
    chunks = all_reads(source)
    assert len(source) == 20_000
    # chunks of 2048, 4096, 8192 and the 5664 left, read 2048 at a time
    assert [c.size for c in chunks] == [2048] * 9 + [20_000 - 18_432]
    # a read never crosses a chunk's end, whatever it asks for, and any
    # sizes read the same gains
    read = StrongestFirst(20_000, params.pathloss_exp, trial_rng(3, 1)).reader()
    sized = [read(count) for count in (5000, 5000, 1, 99, 10 ** 6, 10 ** 6)]
    assert [part.size for part in sized] == [2048, 4096, 1, 99, 8092, 5664]
    assert np.array_equal(np.concatenate(sized), np.concatenate(chunks))
    # a chunk is drawn whole when its first device is read, and only then:
    # its top placement's Beta, then the uniforms below it; the last chunk,
    # of every device left, its uniforms alone
    rng, reference = trial_rng(3, 1), trial_rng(3, 1)
    read = StrongestFirst(20_000, params.pathloss_exp, rng).reader()
    for size, left in ((2048, 20_000), (4096, 17_952), (8192, 13_856), (5664, 5664)):
        read(1)
        if size < left:
            reference.beta(size, left - size + 1)
            reference.random(size - 1)
        else:
            reference.random(size)
        assert rng.bit_generator.state == reference.bit_generator.state
        read(size - 1)   # the rest of the chunk
        assert rng.bit_generator.state == reference.bit_generator.state
    gains = np.concatenate(chunks)
    assert np.all(np.diff(gains) <= 0) and gains[-1] >= 1.0
    log2_gains = np.concatenate(all_reads(StrongestFirst(
        20_000, params.pathloss_exp, trial_rng(3, 1)), log2=True, size=3000))
    assert np.allclose(log2_gains, np.log2(gains), rtol=1e-12, atol=1e-12)
    assert all_reads(StrongestFirst(0, 4.0, trial_rng(3, 1))) == []
    # once every device is read, a read is empty and draws nothing
    for n in (0, 3):
        rng = trial_rng(3, 1)
        read = StrongestFirst(n, 4.0, rng).reader()
        assert read(5).size == n
        state = rng.bit_generator.state
        assert read(5).size == 0 and rng.bit_generator.state == state
    with pytest.raises(ValueError):
        StrongestFirst(-1, 4.0, trial_rng(3, 1))


def test_strongest_first_draws_only_what_is_read():
    # one device read: its chunk, one Beta and 2047 uniforms, as a fresh
    # stream draws
    rng, reference = trial_rng(5, 2), trial_rng(5, 2)
    assert StrongestFirst(10 ** 9, 4.0, rng).reader()(1).size == 1
    reference.beta(2048, 10 ** 9 + 1 - 2048)
    reference.random(2047)
    assert rng.random() == reference.random()


def test_tail_bound_takes_the_placement_the_reader_gives(monkeypatch):
    # After 0, 1 or 2 reads, tail_log2_gain(last) bounds a device ``last`` of
    # the chunk being read: unsorted after 0 or 1 reads, so np.partition picks
    # its uniform. The placement it takes the log2 of is bitwise the one a
    # reader of placements (path-loss exponent -2: gain v**1) gives device
    # ``last``, and its bound less the certificate's 2**-43 margin is below
    # the log2 gain read for it. tail_log2_gain of the devices read takes the
    # last read placement, 2**-53 before any.
    logged = []
    monkeypatch.setattr(model, "math", types.SimpleNamespace(
        log2=lambda v: logged.append(v) or math.log2(v)))
    pick = trial_rng(29, 0)
    for instance in range(300):
        done = int(pick.integers(0, 3)) * FIRST_CHUNK
        n = int(pick.integers(done + 1, 40_001))
        end = (3 if done else 1) * FIRST_CHUNK   # the chunk's last device
        last = int(pick.integers(done + 1, min(n, end) + 1))
        source, placed = (StrongestFirst(n, exponent, trial_rng(29, 1, instance))
                          for exponent in (4.0, -2.0))
        read, place = source.reader(log2=True), placed.reader()
        below = [2.0 ** -53]
        for _ in range(done // FIRST_CHUNK):
            read(FIRST_CHUNK)
            below = place(FIRST_CHUNK)
        assert source.tail_log2_gain(done) == math.log2(below[-1]) * -2.0
        assert logged[-1] == below[-1]
        bound = source.tail_log2_gain(last)
        assert logged[-1] == place(2 * FIRST_CHUNK)[last - done - 1], (n, done, last)
        assert bound * (1.0 - 2.0 ** -43) <= read(2 * FIRST_CHUNK)[last - done - 1]


def test_gain_overflow_is_decided_once_per_source(monkeypatch):
    # below 2046 / 53 even the strongest gain a placement can have is finite
    below = np.nextafter(2046 / 53, 0.0)
    assert np.isfinite(np.power(2.0 ** -53, -0.5 * below))
    assert not StrongestFirst(1, below, trial_rng(6, 0))._may_overflow
    assert StrongestFirst(1, 2046 / 53, trial_rng(6, 0))._may_overflow
    # past it gains overflow to inf silently (a warning is an error here) ...
    # (a path-loss exponent of -2 reads each placement v as its own gain v**1)
    placements = np.concatenate(all_reads(StrongestFirst(3000, -2.0, trial_rng(6, 0))))
    gains = np.concatenate(all_reads(StrongestFirst(3000, 1000.0, trial_rng(6, 0))))
    with np.errstate(over="ignore"):
        assert np.array_equal(gains, np.power(placements, -500.0))
    assert np.isinf(gains).any() and np.isfinite(gains).any()
    # ... and below it no slice enters an errstate
    monkeypatch.setattr(np, "errstate", None)
    assert np.isfinite(np.concatenate(all_reads(StrongestFirst(
        20_000, below, trial_rng(6, 0))))).all()


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


def test_placed_gains_past_the_float_range_are_inf_without_warnings(monkeypatch):
    # from pathloss_exp 2046 / 53 on, the nearest placements' gains are inf:
    # expected, so no warning (an error here), and the set is still sorted
    gains = make_device_set(1000, SystemParams(pathloss_exp=1000), trial_rng(1, 0)).gains
    assert np.isinf(gains[:2]).all() and np.isfinite(gains).any()
    assert channel_gain(1e-300, 4.0) == math.inf
    assert len(DeviceSet(np.array([np.inf, np.inf, 2.0]))) == 3
    with pytest.raises(ValueError):
        DeviceSet(np.array([2.0, np.inf]))   # ascending
    # where no gain can overflow, no errstate is entered
    monkeypatch.setattr(np, "errstate", None)
    assert np.isfinite(make_device_set(1000, SystemParams(), trial_rng(1, 0)).gains).all()


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


def numpy_seeded(key):
    """The oracle: numpy's own SeedSequence seeding of PCG64."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))


def assert_same_stream(ours, oracle):
    assert ours.bit_generator.state == oracle.bit_generator.state
    assert ours.random() == oracle.random()


def test_trial_rng_is_numpy_seed_sequence_seeding():
    top = 2 ** 32 - 1
    keys = []
    for width in range(1, 7):   # every width: inside the 4-word pool and past it
        base = [123_456_789, 1, 2, 3, 4, 5][:width]
        keys += [[0] * width, [top] * width]
        keys += [base[:i] + [edge] + base[i + 1:] for i in range(width) for edge in (0, top)]
    draw = np.random.default_rng(25)
    keys += [list(map(int, draw.integers(0, 2 ** 32, int(draw.integers(1, 7)))))
             for _ in range(2000)]
    for key in keys:
        assert_same_stream(trial_rng(*key), numpy_seeded(key))


def test_trial_rng_zero_padding_holds_only_inside_the_pool():
    # SeedSequence pads a key to its 4-word pool with zeros; a 5th word,
    # even 0, is mixed in by one more loop
    for seeded in (lambda key: trial_rng(*key), numpy_seeded):
        assert seeded((7, 3)).random(4).tolist() == seeded((7, 3, 0)).random(4).tolist()
        assert seeded((7, 3, 0)).random(4).tolist() == seeded((7, 3, 0, 0)).random(4).tolist()
        assert (seeded((7, 3, 1, 2)).random(4).tolist()
                != seeded((7, 3, 1, 2, 0)).random(4).tolist())


def test_trial_rngs_hashes_keys_in_batches(monkeypatch):
    keys = [(9, point, block) for point in (4, 0, 4) for block in range(3, 40, 6)]
    for batch in (model.KEY_BATCH, 5):   # a batch boundary inside a point
        monkeypatch.setattr(model, "KEY_BATCH", batch)
        rngs = list(model.trial_rngs(iter(keys)))
        assert len(rngs) == len(keys)
        for rng, key in zip(rngs, keys):
            assert_same_stream(rng, numpy_seeded(key))
        for bad in ((2 ** 32, 0, 0), (0, -1, 0), (0, 0, 2 ** 32)):
            with pytest.raises(ValueError, match=r"2\*\*32"):
                list(model.trial_rngs(keys[:7] + [bad]))


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


@st.composite
def system_params(draw):
    """Valid parameter sets: the minima below their budgets, the spectral
    load within what the SNR floor allows."""
    fraction = st.floats(1e-9, 1.0)
    slot_s, bandwidth_hz = draw(st.floats(1e-6, 1e6)), draw(st.floats(1.0, 1e12))
    return SystemParams(bandwidth_hz=bandwidth_hz, slot_s=slot_s,
                        payload_bits=bandwidth_hz * slot_s * draw(st.floats(1e-9, 1000.0)),
                        ref_snr=draw(st.floats(1e-300, 1e300)),
                        pathloss_exp=draw(st.floats(2.0, 1e4, exclude_min=True)),
                        min_slot_s=slot_s * draw(fraction),
                        min_subchannel_hz=bandwidth_hz * draw(fraction))


def hashlib_digest(params):
    canon = ",".join(repr(getattr(params, f.name)) for f in dataclasses.fields(params))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


@settings(max_examples=200)
@given(system_params())
@example(SystemParams())
def test_digest_is_hashlibs_sha256_of_the_field_reprs(params):
    assert params.digest() == hashlib_digest(params)


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
