import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ma_bench import (DeviceSet, Infeasible, SchemeConfig, StrongestFirst,
                      SystemParams, TrafficModel, fdma_admitted_count, fdma_kmax,
                      fdma_min_bandwidth, make_device_set, noma_admitted_count,
                      noma_kmax, noma_power_allocation, run_trial,
                      tdma_admitted_count, tdma_kmax, tdma_min_time, trial_rng)
from ma_bench import coordinated
from ma_bench.coordinated import min_bandwidth_array


def residual(w, gain, params):
    """Relative defect of the minimal-subchannel equation at width w."""
    lhs = params.payload_bits / (params.slot_s * w)
    rhs = math.log2(1.0 + params.ref_snr * params.bandwidth_hz * gain / w)
    return abs(lhs - rhs) / lhs


def delivered(width, gain, params):
    """Bits delivered over a subchannel of this width, evaluated as the solver
    does: log2(1 + x) rounds differently from log1p(x) / ln 2 at the last
    float, and math.log1p from numpy's log1p, so only this form can judge the
    one-float-below property."""
    return width * params.slot_s * np.log1p(
        params.ref_snr * params.bandwidth_hz * gain / width) / math.log(2.0)


class Chunked:
    """Given gains, strongest first, served in chunks split at ``cuts``, the
    way a StrongestFirst serves the gains it draws; ``served`` counts the
    chunks handed out."""

    def __init__(self, gains, cuts=()):
        self.gains, self.cuts = gains, sorted(set(cuts))
        self.served = 0

    def __len__(self):
        return self.gains.size

    def _split(self, values):
        for chunk in np.split(values, self.cuts):
            if chunk.size:
                self.served += 1
                yield chunk

    def gain_chunks(self):
        return self._split(self.gains)

    def log2_gain_chunks(self):
        return self._split(np.log2(self.gains))

    def tail_log2_gain(self, last):
        return float(np.log2(self.gains[last - 1]))


def running_minimum_count(gains, params):
    """The NOMA count grown device by device: the longest prefix whose
    tightest per-device stack cap, a running minimum, still admits it. x_i
    is rounded as the kernel rounds it."""
    return log2_running_minimum_count(np.log2(gains), params)


def log2_running_minimum_count(log2_gains, params):
    """running_minimum_count from log2 gains, for a source that maps its
    gains to logs itself."""
    rank = np.arange(1, log2_gains.size + 1)
    x = (math.log2(params.ref_snr / params.snr_floor) + log2_gains) / params.spectral_load
    return int(np.count_nonzero(np.minimum.accumulate(rank + x) >= rank))


def tdma_demand(gains, params):
    return params.payload_bits * math.log(2) / (
        params.bandwidth_hz * np.log1p(params.ref_snr * gains))


# (count function, budget field, minimum field, per-device demand)
GREEDY = ((fdma_admitted_count, "bandwidth_hz", "min_subchannel_hz", min_bandwidth_array),
          (tdma_admitted_count, "slot_s", "min_slot_s", tdma_demand))


def sequential_count(gains, params, budget, minimum, demand):
    """Devices before the first misfit of one sequential cumulative sum of
    every device's demand, each padded up to ``minimum``."""
    running = np.cumsum(np.maximum(demand(gains, params), minimum))
    over = np.flatnonzero(running > budget * (1 + 1e-9))
    return int(over[0]) if over.size else gains.size


def recompute_sic_snr(powers, gains, ref_snr):
    """Per-stage SINR of a power stack decoded strongest-first."""
    received = powers * ref_snr * gains
    behind = np.concatenate([np.cumsum(received[::-1])[::-1][1:], [0.0]])
    return received / (1.0 + behind)


# --- minimal subchannel -----------------------------------------------------

def test_min_bandwidth_half_band_case():
    # payload = slot * W and ref_snr * gain = 1.5 force the half-band root:
    # payload/(slot * W/2) = 2 and log2(1 + 2 * 1.5) = 2.
    params = SystemParams(payload_bits=1e6)
    w = fdma_min_bandwidth(1.5, params)
    assert w == pytest.approx(5e5, rel=1e-9)
    assert residual(w, 1.5, params) < 1e-9


def test_min_bandwidth_whole_band_case():
    # payload sized to need exactly the full band: the subchannel condition
    # at w = W coincides with a full TDMA slot.
    gain = 3.0
    params = SystemParams(payload_bits=1e6 * math.log2(1.0 + 3.0))
    assert fdma_min_bandwidth(gain, params) == pytest.approx(1e6, rel=1e-9)


def test_min_bandwidth_infeasible_below_capacity_limit():
    # Unbounded-width capacity is slot * ref_snr * W * gain / ln 2.
    params = SystemParams(payload_bits=1.5e6)
    with pytest.raises(Infeasible):
        fdma_min_bandwidth(1.0, params)   # limit = 1e6/ln2 = 1.4427e6 bits
    assert fdma_min_bandwidth(1.05, params) > 0   # just feasible, huge width


def test_min_bandwidth_array_marks_infeasible_lanes():
    params = SystemParams(payload_bits=1.5e6)
    w = min_bandwidth_array(np.array([2.0, 1.0]), params)
    assert np.isfinite(w[0])
    assert np.isinf(w[1])
    # every lane at or over its capacity limit, down to a payload exactly at
    # the limit of gain 1: inf from the array path, Infeasible from the scalar
    for payload, gains in ((1.5e6, [1.0, 1.02, 1.0397]), (1e6 / math.log(2.0), [1.0])):
        params = SystemParams(payload_bits=payload)
        assert np.all(np.isinf(min_bandwidth_array(np.array(gains), params)))
        for gain in gains:
            with pytest.raises(Infeasible):
                fdma_min_bandwidth(gain, params)
    # 1-1000 floats under the limit the computed deliverable may never reach
    # the payload: such a lane is infeasible, and every finite width delivers
    rng = trial_rng(34, 0)
    for _ in range(200):
        bandwidth, slot = 10 ** rng.uniform(5.0, 7.0), rng.uniform(0.1, 2.0)
        ref_snr, gain = 10 ** rng.uniform(-2.0, 1.0), 10 ** rng.uniform(0.0, 1.7)
        limit = slot * ref_snr * bandwidth * gain / math.log(2.0)
        for ulps in (1, 2, 10, 100, 1000):
            params = SystemParams(bandwidth_hz=bandwidth, slot_s=slot, ref_snr=ref_snr,
                                  payload_bits=limit - ulps * np.spacing(limit),
                                  min_slot_s=slot / 10, min_subchannel_hz=bandwidth / 1e3)
            w = min_bandwidth_array(np.array([gain]), params)[0]
            if np.isfinite(w):
                assert delivered(w, gain, params) >= params.payload_bits
            else:
                with pytest.raises(Infeasible):
                    fdma_min_bandwidth(gain, params)


def log_domain_delivered(width, gain, params):
    """Bits over a subchannel whose power term a = ref_snr * W * gain is past
    the float range: log1p(a / w) is log(a) - log(w) to far below a float."""
    log_term = math.log(params.ref_snr) + math.log(params.bandwidth_hz) + np.log(gain)
    return width * params.slot_s * (log_term - np.log(width)) / math.log(2.0)


def test_min_bandwidth_with_overflowing_power_term_is_finite():
    params = SystemParams(ref_snr=1e300)
    w = min_bandwidth_array(np.array([1e10, 2.0]), params)
    assert np.all(np.isfinite(w)) and w[0] < w[1]
    assert log_domain_delivered(w[0], 1e10, params) == pytest.approx(1000.0, rel=1e-12)
    # the lane with a finite limit is solved exactly as on its own
    assert w[1] == min_bandwidth_array(np.array([2.0]), params)[0]
    # a power term past the float range under a finite limit (slot < ln 2)
    short_slot = SystemParams(ref_snr=1e300, slot_s=0.5)
    w = min_bandwidth_array(np.array([2e2]), short_slot)[0]
    assert log_domain_delivered(w, 2e2, short_slot) == pytest.approx(1000.0, rel=1e-12)


@pytest.mark.parametrize("slot_s", [0.5, 1.0, 100.0])
def test_min_bandwidth_stays_monotone_across_the_overflow_edge(slot_s):
    params = SystemParams(slot_s=slot_s, payload_bits=1e3 * slot_s, min_slot_s=1e-3 * slot_s)
    edge = np.finfo(float).max / (params.ref_snr * params.bandwidth_hz * max(1.0, slot_s))
    gains = np.sort(edge * np.logspace(-3.0, 3.0, 4001))[::-1]
    widths = min_bandwidth_array(gains, params)
    assert np.all(np.isfinite(widths))
    assert np.all(np.diff(widths) >= 0.0)   # weaker devices never need less
    assert log_domain_delivered(widths, gains, params) == pytest.approx(
        params.payload_bits, rel=1e-12)


@st.composite
def descending_gains(draw):
    """A valid parameter set and gains >= 1 in descending order. The strongest
    lies a few decades, or up to 300, above the capacity edge (the gain at
    which the payload equals the limit); steps of one ulp up to a decade
    then make adjacent lanes near-equal or far apart, down across the edge."""
    band, slot, load = (draw(st.floats(1e3, 1e8)), draw(st.floats(1e-3, 1e2)),
                        draw(st.floats(1e-6, 20.0)))
    params = SystemParams(bandwidth_hz=band, slot_s=slot, payload_bits=band * slot * load,
                          ref_snr=draw(st.floats(1e-4, 1e4)))
    edge = load * math.log(2.0) / params.ref_snr
    top = max(edge, 1.0) * 10.0 ** draw(st.one_of(st.floats(0.0, 3.0), st.floats(0.0, 300.0)))
    steps = draw(st.lists(st.sampled_from([0.0, 1e-16, 1e-13, 1e-9, 1e-4, 0.1, 1.0]),
                          min_size=1, max_size=64))
    return params, np.maximum(top * 10.0 ** -np.cumsum([0.0, *steps]), 1.0)


@settings(max_examples=300)
@given(descending_gains())
def test_min_bandwidth_non_increasing_in_gain(case):
    # each lane is solved on its own, so only the maths orders adjacent lanes
    params, gains = case
    widths = min_bandwidth_array(gains, params)
    assert np.all(widths[1:] >= np.nextafter(widths[:-1], 0.0))


def test_fdma_admits_devices_with_overflowing_power_terms():
    # gains past ~1e300 arise at large path-loss exponents; each needs ~1 Hz
    allocation = fdma_kmax(DeviceSet([1e306, 1e300, 2.0]), SystemParams(pathloss_exp=100))
    assert allocation.admitted == 3
    assert np.all(np.isfinite(allocation.resources))


def test_an_overflowed_gain_needs_no_resource(params):
    # a power past the float range is an inf gain (StrongestFirst at large
    # path-loss exponents): width and time share 0, without a warning
    gains = np.array([np.inf, 1e306, 2.0])
    widths = min_bandwidth_array(gains, params)
    assert widths[0] == 0.0 and np.array_equal(widths[1:], min_bandwidth_array(gains[1:], params))
    for kmax in (fdma_kmax, tdma_kmax):
        allocation = kmax(DeviceSet(gains), params)
        assert allocation.admitted == 3 and allocation.resources[0] == 0.0


def test_overflowing_time_shares_are_zero_or_inf_without_warnings():
    # ref_snr * gain past the float range is a share of 0 ...
    huge = SystemParams(payload_bits=1e6, ref_snr=1e300)
    assert coordinated._min_time_array(np.array([1e10]), huge)[0] == 0.0
    assert tdma_min_time(1e10, huge) == 0.0
    assert tdma_kmax(DeviceSet([1e10, 1.0]), huge).admitted == 2
    # ... a share past it is inf, and so is a sum of finite shares past it
    tiny = SystemParams(ref_snr=5e-324)
    assert tdma_min_time(1.0, tiny) == math.inf
    for enforce_minimum in (False, True):
        assert tdma_admitted_count(DeviceSet([1e12, 1e12, 1.0]), tiny, enforce_minimum) == 0
    # finite shares whose sum overflows although no share can
    wide = SystemParams(bandwidth_hz=1e-303, min_subchannel_hz=1e-304, slot_s=1e303)
    assert tdma_admitted_count(DeviceSet(np.ones(3000)), wide) == 0


def test_hand_built_gains_past_the_placement_bound_need_no_time_without_warnings():
    # ref_snr * gain overflows for gains no placement draws: a share of 0
    high = SystemParams(ref_snr=1e10)
    allocation = tdma_kmax(DeviceSet([1e300, 1e300, 1.0]), high)
    assert allocation.resources.tolist() == [0.0, 0.0, 3.010299956626738e-05]
    assert tdma_min_time(1e300, high) == 0.0


def test_admission_ignores_overflow_and_divide_but_not_invalid(params, monkeypatch):
    # an overflowed demand or running sum is the right answer, inf or 0, so
    # admission runs quiet for it; an invalid operation (a NaN) still warns
    states = []

    def recording(name):
        kernel = getattr(coordinated, name)

        def record(gains, params):
            states.append((name, np.geterr()))
            return kernel(gains, params)

        monkeypatch.setattr(coordinated, name, record)

    recording("_shares")
    recording("_bracketed_widths")
    cases = [params, dataclasses.replace(params, ref_snr=10.0),
             dataclasses.replace(params, ref_snr=1e6, pathloss_exp=30.0)]
    for case, enforce_minimum in itertools.product(cases, (False, True)):
        for count in (tdma_admitted_count, fdma_admitted_count):
            assert count(StrongestFirst(20_000, case.pathloss_exp, trial_rng(6, 0)),
                         case, enforce_minimum) > 0
        assert tdma_min_time(1.0, case) > 0
    assert {name for name, _ in states} == {"_shares", "_bracketed_widths"}
    for _, state in states:
        assert state["over"] == state["divide"] == "ignore" and state["invalid"] != "ignore"


def test_min_bandwidth_converged_bracket_straddles_root(params):
    # the returned width delivers the payload; one float below does not
    for gain in (1.0, 7.5, 120.0, 3e4):
        w = fdma_min_bandwidth(gain, params)
        assert delivered(w, gain, params) >= params.payload_bits
        assert delivered(np.nextafter(w, 0.0), gain, params) < params.payload_bits


def test_min_bandwidth_residual_random_draws():
    rng = trial_rng(17, 0)
    for _ in range(200):
        params = SystemParams(
            bandwidth_hz=float(rng.uniform(1e5, 1e7)),
            slot_s=float(rng.uniform(0.1, 2.0)),
            payload_bits=float(rng.uniform(100.0, 5000.0)),
            ref_snr=float(rng.uniform(0.01, 10.0)))
        gain = float(10 ** rng.uniform(0.0, 6.0))
        limit = params.slot_s * params.ref_snr * params.bandwidth_hz * gain / math.log(2)
        if params.payload_bits >= 0.9 * limit:
            continue
        w = fdma_min_bandwidth(gain, params)
        assert residual(w, gain, params) < 1e-9
        assert delivered(w, gain, params) >= params.payload_bits
        assert delivered(np.nextafter(w, 0.0), gain, params) < params.payload_bits


def test_min_bandwidth_marginally_feasible_lanes():
    # Payloads 0.0004% to 0.1% under the capacity limit (1e6 / ln 2 =
    # 1.442695e6 bits at gain 1, k -> 1): huge widths, yet finite roots.
    gains = np.linspace(1.0, 1.001, 41)
    for payload in np.linspace(1.4426e6, 1.44269e6, 31):
        params = SystemParams(payload_bits=float(payload))
        widths = min_bandwidth_array(gains, params)
        assert np.all(np.isfinite(widths))
        for w, gain in zip(widths, gains):
            assert residual(w, gain, params) < 1e-9


def test_min_bandwidth_scalar_and_array_paths_agree_bitwise():
    rng = trial_rng(29, 0)
    for payload in (1000.0, 5e5, 1.4e6, 1.44269e6):
        params = SystemParams(payload_bits=payload)
        gains = 10 ** rng.uniform(0.0, 8.0, size=300)
        widths = min_bandwidth_array(gains, params)
        for w, gain in zip(widths, gains):
            if np.isfinite(w):
                assert fdma_min_bandwidth(float(gain), params) == w
            else:
                with pytest.raises(Infeasible):
                    fdma_min_bandwidth(float(gain), params)


# --- minimal time share -----------------------------------------------------

def test_min_time_examples(params):
    assert tdma_min_time(1.0, params) == pytest.approx(1e-3, rel=1e-12)
    assert tdma_min_time(3.0, params) == pytest.approx(0.5e-3, rel=1e-12)
    # a lone cell-edge device with payload = W * slot fills the whole slot
    assert tdma_min_time(1.0, SystemParams(payload_bits=1e6)) == pytest.approx(1.0, rel=1e-12)


def test_min_time_rejects_zero_snr(params):
    with pytest.raises(ValueError):
        tdma_min_time(-1.0, params)


def test_min_time_scalar_equals_admission_path_bitwise():
    # libm's log1p and numpy's differ in the last bit on ~2% of such gains;
    # the scalar must give the very share tdma_kmax admits with
    params = SystemParams(payload_bits=1e-3)   # small shares: every device fits
    gains = np.sort(10.0 ** trial_rng(41, 0).uniform(0.0, 8.0, size=20_000))[::-1]
    shares = tdma_kmax(DeviceSet(gains), params).resources
    assert shares.size == gains.size
    assert np.array_equal([tdma_min_time(float(gain), params) for gain in gains], shares)
    # and the share's formula, written out, to the bit
    assert np.array_equal(tdma_demand(gains, params), shares)


def test_whole_band_fdma_equals_full_slot_tdma():
    # A device that exactly fills the band under FDMA fills the slot under
    # TDMA: the two capacity conditions coincide at full bandwidth.
    rng = trial_rng(23, 0)
    for _ in range(50):
        gain = float(10 ** rng.uniform(0.0, 4.0))
        mu = float(rng.uniform(0.05, 5.0))
        slot = float(rng.uniform(0.2, 2.0))
        band = float(rng.uniform(1e5, 5e6))
        payload = band * slot * math.log2(1.0 + mu * gain)
        params = SystemParams(bandwidth_hz=band, slot_s=slot,
                              payload_bits=payload, ref_snr=mu,
                              min_slot_s=min(1e-3, slot),
                              min_subchannel_hz=min(1e3, band))
        assert fdma_min_bandwidth(gain, params) == pytest.approx(band, rel=1e-9)
        assert tdma_min_time(gain, params) == pytest.approx(slot, rel=1e-9)


# --- greedy admission -------------------------------------------------------

def test_fdma_kmax_two_half_band_devices():
    params = SystemParams(payload_bits=1e6)
    alloc = fdma_kmax(DeviceSet(np.array([1.5, 1.5])), params)
    assert alloc.admitted == 2
    assert np.sum(alloc.resources) == pytest.approx(1e6, rel=1e-9)
    assert fdma_kmax(DeviceSet(np.array([1.5, 1.5, 1.5])), params).admitted == 2


def test_fdma_kmax_empty():
    assert fdma_kmax(DeviceSet(np.empty(0)), SystemParams()).admitted == 0


def test_kmax_minimum_padding_caps_at_partition_count(params):
    # Arbitrarily strong devices are padded up to the smallest partition, so
    # a 1 MHz band with 1 kHz subchannels (or a 1 s slot with 1 ms sub-slots)
    # supports exactly 1000 of them.
    strong = DeviceSet(np.full(5000, 1e12))
    assert fdma_kmax(strong, params, enforce_minimum=True).admitted == 1000
    assert tdma_kmax(strong, params, enforce_minimum=True).admitted == 1000
    few = DeviceSet(np.full(37, 1e12))
    assert fdma_kmax(few, params, enforce_minimum=True).admitted == 37


def test_tdma_kmax_examples():
    # one device exactly filling the slot
    params = SystemParams(payload_bits=1e6)
    assert tdma_kmax(DeviceSet(np.array([1.0])), params).admitted == 1
    # two devices needing 0.6 slot each: greedy stops after the first
    params2 = SystemParams(payload_bits=0.6e6)
    devices = DeviceSet(np.array([1.0, 1.0]))
    alloc = tdma_kmax(devices, params2)
    assert alloc.admitted == 1
    assert alloc.resources[0] == pytest.approx(0.6, rel=1e-12)


def test_greedy_prefix_is_maximal(params):
    # Adding the strongest rejected device would break the budget.
    for seed in range(10):
        devices = make_device_set(4000, params, trial_rng(seed, 3))
        for kmax, budget, demand in (
                (fdma_kmax, params.bandwidth_hz,
                 lambda d: min_bandwidth_array(d.gains, params)),
                (tdma_kmax, params.slot_s,
                 lambda d: params.payload_bits * math.log(2)
                 / (params.bandwidth_hz * np.log1p(params.ref_snr * d.gains)))):
            alloc = kmax(devices, params)
            tol = budget * (1 + 1e-9)
            assert np.sum(alloc.resources) <= tol
            if alloc.admitted < len(devices):
                full = demand(devices)[:alloc.admitted + 1]
                assert np.sum(full) > tol


@st.composite
def slot_parameters(draw, most_devices):
    """A device count of up to ``most_devices`` and a parameter set. The
    spectral load is drawn so that the cell-edge TDMA shares of all n
    devices fill 0.2 to 3 slots: admission then ends at a misfit, on the
    cell-edge bound before the first slice or after some, or by reading
    every device. Overloaded sets give each device that load, so FDMA has
    infeasible lanes."""
    n = draw(st.integers(0, most_devices))
    band = draw(st.floats(1e4, 1e7))
    slot = draw(st.floats(1e-2, 10.0))
    snr = draw(st.floats(1e-3, 1e3))
    load = draw(st.floats(0.2, 3.0)) * math.log2(1.0 + snr)
    if not draw(st.booleans()):   # overloaded?
        load /= max(n, 1)
    return n, SystemParams(
        bandwidth_hz=band, slot_s=slot, payload_bits=band * slot * load, ref_snr=snr,
        pathloss_exp=draw(st.floats(2.5, 8.0)), min_slot_s=slot * draw(st.floats(1e-6, 1.0)),
        min_subchannel_hz=band * draw(st.floats(1e-6, 1.0)))


@st.composite
def admissions(draw):
    """A slot_parameters set, a placed device set of up to 6000 devices
    (three demand slices) and whether minima are enforced."""
    n, params = draw(slot_parameters(6000))
    devices = make_device_set(n, params, trial_rng(draw(st.integers(0, 2 ** 32 - 1))))
    return params, devices, draw(st.booleans())


@settings(max_examples=200)
@given(admissions())
def test_admitted_counts_equal_the_sequential_sum(case):
    params, devices, enforce = case
    for count, budget, minimum, demand in GREEDY:
        expected = sequential_count(devices.gains, params, getattr(params, budget),
                                    getattr(params, minimum) if enforce else 0.0, demand)
        assert count(devices, params, enforce) == expected


@settings(max_examples=120)
@given(slot_parameters(20_000), st.integers(0, 2 ** 32 - 1), st.booleans())
def test_certified_counts_and_draws_equal_the_exact_kernel(case, seed, enforce):
    # up to 20,000 devices: four chunks, ten slices
    n, params = case
    gains = np.concatenate([np.empty(0), *StrongestFirst(
        n, params.pathloss_exp, trial_rng(seed)).gain_chunks()])
    for count, budget, minimum, demand in GREEDY:
        expected = sequential_count(gains, params, getattr(params, budget),
                                    getattr(params, minimum) if enforce else 0.0, demand)
        devices = StrongestFirst(n, params.pathloss_exp, trial_rng(seed))
        assert count(devices, params, enforce) == expected


@settings(max_examples=200)
@given(st.one_of(st.sampled_from([0, 1, 2047, 2048, 2049, 6143, 6144, 6145]),
                 st.integers(0, 30_000)),
       st.sampled_from([SystemParams(), SystemParams(ref_snr=10.0),
                        SystemParams(pathloss_exp=3.1),
                        SystemParams(pathloss_exp=40.0)]),   # overflowing gains
       st.integers(0, 2 ** 32 - 1), st.booleans())
def test_library_admits_what_a_slot_on_the_same_substream_admits(n, params, seed, enforce):
    # make_device_set draws with the engine's sampler, so the allocation
    # functions on it admit exactly what run_trial admits from that generator
    devices = make_device_set(n, params, trial_rng(seed, 1, 2))
    for kmax in (fdma_kmax, tdma_kmax, noma_kmax):
        scheme = kmax.__name__[:4]
        config = SchemeConfig("coordinated", scheme, enforce_minimum=enforce)
        expected = run_trial(config, params, n, trial_rng(seed, 1, 2))
        got = kmax(devices, params) if kmax is noma_kmax else kmax(devices, params, enforce)
        assert got.admitted == expected, (scheme, n, params, seed, enforce)


def record_certified(monkeypatch):
    """Every certified scan's result from now on (a scan at slack > 0): None
    where the enclosure could not decide and the exact sum ran."""
    results, scan = [], coordinated._scan

    def recorded(*args):
        result = scan(*args)
        if args[-1] > 0.0:
            results.append(result)
        return result

    monkeypatch.setattr(coordinated, "_scan", recorded)
    return results


# (devices, base parameters, chunk cuts or None for a DeviceSet): with 100-bit
# packets the padding, not TDMA's 1 ms cell-edge share, sets 5,000 demands
EXACT_SUMS = ((997, SystemParams(), None),
              (5000, SystemParams(payload_bits=100.0), None),
              (5000, SystemParams(payload_bits=100.0), (700, 2048, 3001)))


@pytest.mark.parametrize(
    "count, budget, minimum, demand, n, base, cuts",
    [(*greedy, *case) for case in EXACT_SUMS for greedy in GREEDY],
    ids=("fdma", "tdma", "fdma-5000", "tdma-5000", "fdma-5000-chunked", "tdma-5000-chunked"))
def test_budget_on_an_exact_running_sum_takes_the_exact_sum(count, budget, minimum, demand,
                                                            n, base, cuts, monkeypatch):
    # every running sum of these padded cell-edge sets lies within a few ulps
    # of the limit, far inside the enclosure: the exact sum decides, carrying
    # its total across slices and replaying every slice already read
    gains = np.ones(n)
    results = record_certified(monkeypatch)
    for params in padded_cell_edge_cases(budget, minimum, n, base):
        pad = getattr(params, minimum)
        assert demand(gains[:1], params)[0] < pad   # every demand is the padding
        expected = sequential_count(gains, params, getattr(params, budget), pad, demand)
        source = DeviceSet(gains) if cuts is None else Chunked(gains, cuts)
        assert count(source, params, enforce_minimum=True) == expected
    assert results == [None] * 7


@pytest.mark.parametrize("count", [fdma_admitted_count, tdma_admitted_count])
def test_default_slots_need_no_exact_sum(count, monkeypatch):
    params = SystemParams()
    results = record_certified(monkeypatch)
    slots = [(arrivals, seed, enforce) for arrivals in (5000, 10_000, 15_000, 20_000)
             for seed in range(4 if count is fdma_admitted_count else 12)
             for enforce in (False, True)]
    walked, walk = [], coordinated.min_bandwidth_array

    def recorded(gains, params):
        walked.append(np.array(gains, dtype=float))
        return walk(gains, params)

    monkeypatch.setattr(coordinated, "min_bandwidth_array", recorded)
    for arrivals, seed, enforce in slots:
        devices = StrongestFirst(arrivals, params.pathloss_exp, trial_rng(seed, arrivals))
        count(devices, params, enforce)
    assert len(results) == len(slots) and None not in results
    # the exact FDMA walk runs only for the cell-edge demand, once per minimum
    assert [gains.tolist() for gains in walked] == (
        [[1.0]] * 2 if count is fdma_admitted_count else [])


def padded_cell_edge_cases(budget, minimum, n, base):
    """Parameter sets from ``base``, by ascending minimum, under which n
    cell-edge devices, each padded up to the minimum, sum sequentially to
    within a few ulps of the budget limit: the first four fit, the last three
    do not."""
    limit = getattr(base, budget) * (1 + 1e-9)

    def total(pad):
        return np.cumsum(np.full(n, pad))[-1]

    pad = limit / n
    while total(pad) <= limit:
        pad = np.nextafter(pad, np.inf)
    while total(pad) > limit:
        pad = np.nextafter(pad, 0.0)
    # pad is now the largest padding under which all n fit
    around = [pad]
    for _ in range(3):
        around += [np.nextafter(around[0], 0.0), np.nextafter(around[-1], np.inf)]
        around.sort()
    return [dataclasses.replace(base, **{minimum: float(p)}) for p in around]


@pytest.mark.parametrize("count, budget, minimum, demand", GREEDY, ids=("fdma", "tdma"))
def test_cell_edge_bound_at_the_budget_edge(count, budget, minimum, demand):
    n = 997
    gains = np.ones(n)
    cases = padded_cell_edge_cases(budget, minimum, n, SystemParams())
    counts = []
    for params in cases:
        pad = getattr(params, minimum)
        assert demand(gains[:1], params)[0] < pad   # every demand is the padding
        expected = sequential_count(gains, params, getattr(params, budget), pad, demand)
        counts.append(count(DeviceSet(gains), params, enforce_minimum=True))
        assert counts[-1] == expected
    assert counts[:4] == [n] * 4 and all(c < n for c in counts[4:])
    # Just below the sum's edge the bound must not admit unread; somewhat
    # further down it must, and the count stays n on both sides of it.
    params = cases[3]
    pad, fired = getattr(params, minimum), []
    while not fired or not fired[-1]:
        source = Chunked(gains)
        params = dataclasses.replace(params, **{minimum: pad})
        assert count(source, params, enforce_minimum=True) == n
        fired.append(source.served == 0)
        pad = float(np.nextafter(pad, 0.0))
        assert len(fired) < 4096
    assert not fired[0]


@pytest.mark.parametrize("count, payload, arrivals", [
    (fdma_admitted_count, 1000.0, 10_000), (fdma_admitted_count, 1000.0, 15_000),
    (tdma_admitted_count, 100.0, 5_000), (tdma_admitted_count, 100.0, 15_000)])
def test_cell_edge_bound_keeps_every_draw(count, payload, arrivals, monkeypatch):
    # The bound admits the unread devices, before the first chunk or inside a
    # later one (the 15,000-device slots), without solving their demands, and
    # keeps every device a full read would draw: that realization's sequential
    # count is every arrival too.
    params = SystemParams(payload_bits=payload)
    solved = []
    solvers = (("min_bandwidth_array", "_bracketed_widths") if count is fdma_admitted_count
               else ("_shares",))
    for name in solvers:   # every demand solver admission may call
        monkeypatch.setattr(coordinated, name, lambda gains, p, solver=getattr(coordinated, name):
                            solved.append(gains.size) or solver(gains, p))
    devices, twin = (StrongestFirst(arrivals, params.pathloss_exp, trial_rng(21, arrivals))
                     for _ in range(2))
    assert count(devices, params) == arrivals
    assert sum(solved) < arrivals
    gains = np.concatenate(list(twin.gain_chunks()))
    _, budget, _, demand = next(case for case in GREEDY if case[0] is count)
    assert sequential_count(gains, params, getattr(params, budget), 0.0, demand) == arrivals


@pytest.mark.parametrize("count", [fdma_admitted_count, tdma_admitted_count,
                                   noma_admitted_count])
def test_an_all_fit_slot_of_2_60_arrivals_draws_no_device(count):
    # every device fits at the cell-edge demand, within the bound's factor
    # 2 + 2**-48 (NOMA: its cap overflows), so admission returns n before
    # drawing a chunk, however large n is
    params, n = SystemParams(payload_bits=2e-10, ref_snr=1e300), 2 ** 60
    rng = trial_rng(5)
    start = rng.bit_generator.state
    assert count(StrongestFirst(n, params.pathloss_exp, rng), params) == n
    assert rng.bit_generator.state == start


# --- superposition power stacks ----------------------------------------------

def test_noma_power_allocation_examples():
    unit = SystemParams(payload_bits=1e6)   # spectral load 1, snr floor 1
    single = noma_power_allocation(DeviceSet(np.array([1.0])), unit)
    assert single[0] == 1.0
    pair = noma_power_allocation(DeviceSet(np.array([1.0, 1.0])), unit)
    assert np.allclose(pair, [2.0, 1.0], rtol=1e-12)


def test_noma_sic_identity_random_sets(params):
    for seed in range(50):
        rng = trial_rng(seed, 5)
        devices = make_device_set(int(rng.integers(1, 51)), params, rng)
        powers = noma_power_allocation(devices, params)
        snr = recompute_sic_snr(powers, devices.gains, params.ref_snr)
        assert np.all(np.abs(snr - params.snr_floor) <= 1e-9 * params.snr_floor)


def test_noma_kmax_boundary_cases():
    unit = SystemParams(payload_bits=1e6)
    assert noma_kmax(DeviceSet(np.array([1.0])), unit).admitted == 1
    # a second cell-edge device would need power fraction 2
    assert noma_kmax(DeviceSet(np.array([1.0, 1.0])), unit).admitted == 1
    assert noma_kmax(DeviceSet(np.empty(0)), unit).admitted == 0


def test_noma_kmax_prefix_feasible_and_powers_bounded(params):
    for seed in range(10):
        devices = make_device_set(3000, params, trial_rng(seed, 7))
        alloc = noma_kmax(devices, params)
        assert np.all(alloc.resources <= 1.0 + 1e-9)
        assert np.all(alloc.resources > 0.0)
        if alloc.admitted:
            prefix = noma_power_allocation(devices.top(alloc.admitted - 1), params) \
                if alloc.admitted > 1 else np.empty(0)
            assert np.all(prefix <= 1.0 + 1e-9)
        if alloc.admitted < len(devices):
            rejected = noma_power_allocation(devices.top(alloc.admitted + 1), params)
            assert rejected.max() > 1.0


def test_noma_kmax_monotone_in_ref_snr():
    devices = make_device_set(500, SystemParams(), trial_rng(2, 9))
    previous = -1
    for mu in (0.25, 0.5, 1.0, 2.0, 4.0):
        count = noma_admitted_count(devices, SystemParams(ref_snr=mu))
        assert count >= previous
        previous = count


@st.composite
def stacks(draw):
    """Gains strongest first (ties included), chunk cuts and a parameter set
    whose count ranges from 0 to every device."""
    params = SystemParams(payload_bits=1e6 * draw(st.floats(1e-3, 3.0)),
                          ref_snr=draw(st.floats(1e-3, 1e3)))
    n = draw(st.integers(0, 400))
    log2_gains = draw(st.lists(st.floats(0.0, 40.0), min_size=n, max_size=n))
    gains = np.sort(2.0 ** np.array(log2_gains, dtype=float))[::-1]
    cuts = draw(st.lists(st.integers(1, max(n - 1, 1)), max_size=5))
    return params, gains, cuts


@settings(max_examples=150)
@given(stacks())
def test_noma_closed_form_equals_running_minimum(case):
    params, gains, cuts = case
    expected = running_minimum_count(gains, params)
    assert noma_admitted_count(DeviceSet(gains), params) == expected
    assert noma_admitted_count(Chunked(gains, cuts), params) == expected


def test_noma_closed_form_on_drawn_gains():
    # heavy load (spectral load 1) and the default; drawn strongest first
    for params in (SystemParams(), SystemParams(payload_bits=1e6, ref_snr=50.0)):
        for seed in range(20):
            gains = np.concatenate(list(StrongestFirst(
                20_000, params.pathloss_exp, trial_rng(seed, 13)).gain_chunks()))
            assert noma_admitted_count(DeviceSet(gains), params) \
                == running_minimum_count(gains, params)


def slice_by_slice_noma_count(devices, params):
    """noma_admitted_count as it stood before the tail certificate, frozen:
    it reads slices until the cell-edge rule or the count itself stops it."""
    load = params.spectral_load
    offset = math.log2(params.ref_snr / params.snr_floor)
    edge = offset / load
    bound, done = float(len(devices)), 0
    chunks = iter(devices.log2_gain_chunks())
    while bound > max(done, np.floor(done + 1.0 + edge)):
        stack = next(chunks)
        stack += offset
        stack /= load
        if edge < -1.0:
            np.maximum(stack, -1.0, out=stack)
        stack += np.arange(done + 1.0, done + stack.size + 1.0)
        bound = min(bound, float(np.floor(stack.min())))
        done += stack.size
    return int(bound)


@settings(max_examples=150)
@given(st.one_of(st.sampled_from([0, 1, 2047, 2048, 2049, 6143, 6144, 6145,
                                  14335, 14336, 14337]),
                 st.integers(0, 24_000), st.integers(10_000, 24_000)),
       st.sampled_from([SystemParams(), SystemParams(ref_snr=1e-4),   # edge < -1
                        SystemParams(pathloss_exp=40.0),   # gains past the float range
                        SystemParams(payload_bits=1e-9, ref_snr=1e-20),   # |x| >= 2**53
                        SystemParams(payload_bits=3000.0, ref_snr=5.0)]),
       st.integers(0, 2 ** 32 - 1))
def test_noma_certificate_keeps_the_count_and_the_draws(n, params, seed):
    log2_gains = np.concatenate([np.empty(0), *(
        chunk.copy() for chunk in StrongestFirst(
            n, params.pathloss_exp, trial_rng(seed)).log2_gain_chunks())])
    rng, frozen = trial_rng(seed), trial_rng(seed)
    count = noma_admitted_count(StrongestFirst(n, params.pathloss_exp, rng), params)
    assert count == log2_running_minimum_count(log2_gains, params)
    assert count == slice_by_slice_noma_count(
        StrongestFirst(n, params.pathloss_exp, frozen), params)
    assert rng.bit_generator.state == frozen.bit_generator.state


@pytest.mark.parametrize("n", [2 ** 53 + 1, 2 ** 53 + 3, 2 ** 62 + 1536])
def test_noma_admits_exactly_n_devices_past_2_53(n):
    # float(n) would round these to n - 1, n + 1 and n + 512
    params = SystemParams(payload_bits=1e-6, ref_snr=1e300)
    count = noma_admitted_count(StrongestFirst(n, params.pathloss_exp, trial_rng(5)), params)
    assert type(count) is int and count == n


class SlicesRead(StrongestFirst):
    """A StrongestFirst that counts the slices a reader takes."""

    read = 0

    def log2_gain_chunks(self):
        for stack in super().log2_gain_chunks():
            self.read += 1
            yield stack


@pytest.mark.parametrize("n, most", [(12_000, 0), (15_000, 1), (20_000, 3)])
def test_noma_certificate_spares_slices_at_default_params(n, most, params):
    # read slice by slice: 1, 3 and 5 slices (the last two of a chunk of 8192)
    for seed in range(4):
        devices = SlicesRead(n, params.pathloss_exp, trial_rng(seed, n))
        noma_admitted_count(devices, params)
        assert devices.read <= most
    assert devices.read == most


class Log2Errs(Chunked):
    """Chunked whose log2 gains err by the given relative amounts."""

    def __init__(self, gains, errors):
        super().__init__(gains)
        self.log2_gains = np.log2(gains) * (1.0 + errors)

    def log2_gain_chunks(self):
        return self._split(self.log2_gains.copy())

    def tail_log2_gain(self, last):
        return float(self.log2_gains[last - 1])


def test_noma_certificate_margin_covers_log2_error():
    # Spectral load 1 and ref_snr = snr_floor = 1, so x_i is the log2 gain.
    # Four gains of 8, whose log2 errs by +2**-45 at the last (the device
    # that bounds the tail) and by -2**-45 at the first: the certificate
    # reads 1 + 3 (1 + 2**-45) >= 4 without its margin, but the first cap is
    # 1 + 3 (1 - 2**-45) < 4. A margin of 2**-45 or less admits all 4.
    params = SystemParams(payload_bits=1e6)
    e = 2.0 ** -45
    source = Log2Errs(np.full(4, 8.0), np.array([-e, 0.0, 0.0, e]))
    assert noma_admitted_count(source, params) == 3 == log2_running_minimum_count(
        source.log2_gains, params)
    assert source.served == 1


@pytest.mark.parametrize("count, budget, minimum, demand", GREEDY, ids=("fdma", "tdma"))
def test_greedy_admission_does_not_depend_on_chunking(count, budget, minimum, demand):
    for payload in (1000.0, 3000.0, 20000.0):
        params = SystemParams(payload_bits=payload)
        gains = make_device_set(12_000, params, trial_rng(8, int(payload))).gains
        whole = count(DeviceSet(gains), params)
        assert whole == sequential_count(gains, params, getattr(params, budget), 0.0, demand)
        for cuts in ([1], [2048, 6144], [17, 4000, 4097, 9000, 11_999]):
            assert count(Chunked(gains, cuts), params) == whole


class ZeroFirstSpacing:
    """A generator whose first exponential draw is exactly 0."""

    def __init__(self, rng):
        self.rng, self.first = rng, True

    def standard_exponential(self, size=None, out=None):
        draws = self.rng.standard_exponential(size, out=out)
        if self.first:
            draws[0], self.first = 0.0, False
        return draws

    def standard_gamma(self, shape):
        return self.rng.standard_gamma(shape)


def test_zero_spacing_reaches_no_kernel_as_inf_or_nan(params):
    def devices(count):
        return StrongestFirst(count, params.pathloss_exp, ZeroFirstSpacing(trial_rng(6, 0)))

    # v_(1) = 0 is held at 2**-53, the nearest placement 1 - random() gives
    gains = next(devices(3000).gain_chunks())
    assert gains[0] == 2.0 ** 106 and np.all(np.isfinite(gains))
    assert next(devices(3000).log2_gain_chunks())[0] == 106.0
    # the drawn chunk's demands (all of it fits at the default parameters)
    for kmax in (fdma_kmax, tdma_kmax):
        alloc = kmax(DeviceSet(gains), params)
        assert alloc.admitted == gains.size
        assert np.all(np.isfinite(alloc.resources))
        assert np.all(alloc.resources > 0.0)
    # FDMA admits 3000 devices by the cell-edge bound; the rest are read
    for arrivals in (3000, 30_000):
        for count in (fdma_admitted_count, tdma_admitted_count):
            assert 0 < count(devices(arrivals), params) <= arrivals
    assert noma_admitted_count(devices(30_000), params) > 0
    assert np.isfinite(fdma_min_bandwidth(2.0 ** 106, params))


@pytest.mark.parametrize("kmax", [fdma_kmax, tdma_kmax, noma_kmax])
def test_kmax_monotone_in_resources(kmax):
    # Supported load never falls when the band, the slot or the reference
    # SNR grows, and never rises with a heavier payload.
    devices = make_device_set(800, SystemParams(), trial_rng(4, 11))
    base = SystemParams(payload_bits=3000.0)
    reference = kmax(devices, base).admitted
    assert kmax(devices, SystemParams(payload_bits=3000.0, bandwidth_hz=2e6)).admitted >= reference
    assert kmax(devices, SystemParams(payload_bits=3000.0, slot_s=2.0)).admitted >= reference
    assert kmax(devices, SystemParams(payload_bits=3000.0, ref_snr=2.0)).admitted >= reference
    assert kmax(devices, SystemParams(payload_bits=6000.0)).admitted <= reference


@settings(max_examples=60)
@given(admissions(), st.sampled_from(["bandwidth_hz", "slot_s", "ref_snr"]),
       st.floats(1.001, 8.0))
def test_admitted_counts_monotone_in_resources(case, resource, factor):
    # The widths, shares and stack caps are exact only to rounding, so the
    # resource grows by at least 0.1%.
    params, devices, enforce = case
    grown = dataclasses.replace(params, **{resource: getattr(params, resource) * factor})
    for count, _, _, _ in GREEDY:
        assert count(devices, grown, enforce) >= count(devices, params, enforce)
    assert noma_admitted_count(devices, grown) >= noma_admitted_count(devices, params)


def test_infeasible_devices_are_skipped_not_fatal():
    # The weakest device cannot deliver its payload over any bandwidth, yet
    # admission of the stronger ones proceeds.
    params = SystemParams(payload_bits=1.5e6)
    alloc = fdma_kmax(DeviceSet(np.array([2e6, 1.0])), params)
    assert alloc.admitted == 1
