import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ma_bench import (DeviceSet, Infeasible, StrongestFirst, SystemParams,
                      TrafficModel, fdma_kmax, fdma_min_bandwidth,
                      make_device_set, noma_kmax, noma_power_allocation,
                      tdma_kmax, tdma_min_time, trial_rng)
from ma_bench.coordinated import min_bandwidth_array, noma_admitted_count


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
    way a StrongestFirst serves the gains it draws."""

    def __init__(self, gains, cuts):
        self.gains, self.cuts = gains, sorted(set(cuts))

    def __len__(self):
        return self.gains.size

    def _split(self, values):
        return iter([chunk for chunk in np.split(values, self.cuts) if chunk.size])

    def gain_chunks(self):
        return self._split(self.gains)

    def log2_gain_chunks(self):
        return self._split(np.log2(self.gains))


def running_minimum_count(gains, params):
    """The NOMA count grown device by device: the longest prefix whose
    tightest per-device stack cap, a running minimum, still admits it. x_i
    is rounded as the kernel rounds it."""
    rank = np.arange(1, gains.size + 1)
    x = (math.log2(params.ref_snr / params.snr_floor) + np.log2(gains)) / params.spectral_load
    return int(np.count_nonzero(np.minimum.accumulate(rank + x) >= rank))


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


def test_fdma_admits_devices_with_overflowing_power_terms():
    # gains past ~1e300 arise at large path-loss exponents; each needs ~1 Hz
    allocation = fdma_kmax(DeviceSet([1e306, 1e300, 2.0]), SystemParams(pathloss_exp=100))
    assert allocation.admitted == 3
    assert np.all(np.isfinite(allocation.resources))


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


@settings(max_examples=150, deadline=None, derandomize=True)
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


@pytest.mark.parametrize("kmax", [fdma_kmax, tdma_kmax])
def test_greedy_admission_does_not_depend_on_chunking(kmax):
    for payload in (1000.0, 3000.0, 20000.0):
        params = SystemParams(payload_bits=payload)
        gains = make_device_set(12_000, params, trial_rng(8, int(payload))).gains
        whole = kmax(DeviceSet(gains), params)
        for cuts in ([1], [2048, 6144], [17, 4000, 4097, 9000, 11_999]):
            split = kmax(Chunked(gains, cuts), params)
            assert split.admitted == whole.admitted
            assert np.array_equal(split.resources, whole.resources)


class ZeroFirstSpacing:
    """A generator whose first exponential draw is exactly 0."""

    def __init__(self, rng):
        self.rng, self.first = rng, True

    def standard_exponential(self, size):
        draws = self.rng.standard_exponential(size)
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
    for kmax in (fdma_kmax, tdma_kmax):
        alloc = kmax(devices(3000), params)
        assert 0 < alloc.admitted <= 3000
        assert np.all(np.isfinite(alloc.resources))
        assert np.all(alloc.resources > 0.0)
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


def test_infeasible_devices_are_skipped_not_fatal():
    # The weakest device cannot deliver its payload over any bandwidth, yet
    # admission of the stronger ones proceeds.
    params = SystemParams(payload_bits=1.5e6)
    alloc = fdma_kmax(DeviceSet(np.array([2e6, 1.0])), params)
    assert alloc.admitted == 1
