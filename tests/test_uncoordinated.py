import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ma_bench import (NOMINAL, REDERIVED, Infeasible, SystemParams,
                      TrafficModel, UncoordinatedDesign, collision_probability,
                      fdma_tx_probability, noma_design, noma_device_cap,
                      noma_feasibility_probability, noma_required_snr,
                      optimize_design, tdma_tx_probability,
                      uncoordinated_throughput, trial_rng)
from ma_bench.uncoordinated import gain_threshold, max_partitions, noma_supported

# Frozen from a 50-digit evaluation of the closed forms.
CAP_DEFAULT_PARAMS = 1442.1950986512280          # 1 / (2**0.001 - 1)
TARGET_SNR_AT_1000 = 0.0022614452377472614     # 1 / (cap - 1000)
ALOHA_PEAK_LOAD_1000 = 999.4999166249736       # -1 / ln(1 - 1/1000)


def exact_collision_probability(transmitters: int, partitions: int) -> Fraction:
    """Enumerate every partition assignment and count collisions of a tagged
    transmitter (exact rational arithmetic)."""
    total = partitions ** (transmitters - 1)
    collided = sum(
        1 for others in itertools.product(range(partitions), repeat=transmitters - 1)
        if 0 in others)   # tagged transmitter sits in partition 0, wlog
    return Fraction(collided, total)


# --- transmit probabilities ---------------------------------------------------

def test_fdma_tx_probability_boundary_is_one(params):
    # 1000 subchannels at reference SNR 1e-3: the power condition holds with
    # equality, so every active device transmits.
    design = UncoordinatedDesign("fdma", 1.0, 1000)
    weak = SystemParams(ref_snr=1e-3)
    assert fdma_tx_probability(design, weak) == 1.0
    assert fdma_tx_probability(design, params) == 1.0   # clamped above 1


def test_tx_probability_vanishes_with_snr():
    # below the clamp the tail probability is (1000 mu)^(1/2) for these params
    design = UncoordinatedDesign("fdma", 1.0, 1000)
    values = [fdma_tx_probability(design, SystemParams(ref_snr=mu))
              for mu in (1e-3, 1e-5, 1e-9)]
    assert values[0] > values[1] > values[2]
    assert values[1] == pytest.approx(1e-1, rel=1e-12)
    assert values[2] == pytest.approx(1e-3, rel=1e-12)


def test_tdma_tx_probability_boundary_and_monotonicity(params):
    assert tdma_tx_probability(UncoordinatedDesign("tdma", 1.0, 1000), params) == 1.0
    mu = 0.05
    weak = SystemParams(ref_snr=mu)
    p1 = tdma_tx_probability(UncoordinatedDesign("tdma", 1.0, 1500), weak)
    p2 = tdma_tx_probability(UncoordinatedDesign("tdma", 1.0, 3000), weak)
    assert p2 < p1 < 1.0


def test_gain_threshold_shapes(params):
    # splitting the band concentrates power, splitting time does not
    assert gain_threshold("fdma", 2000, params) < gain_threshold("tdma", 2000, params)
    with pytest.raises(ValueError):
        gain_threshold("noma", 10, params)


def test_gain_threshold_matches_direct_form():
    params = SystemParams(payload_bits=3e4, ref_snr=0.2)
    for n in (1, 2, 7, 100, 1000):
        need = 2.0 ** (params.spectral_load * n) - 1.0
        assert gain_threshold("fdma", n, params) == pytest.approx(
            need / (n * params.ref_snr), rel=1e-13)
        assert gain_threshold("tdma", n, params) == pytest.approx(
            need / params.ref_snr, rel=1e-13)


def test_threshold_beyond_float_range_is_inf_and_tail_stays_finite():
    # 2 bits/s/Hz: 2**(2 * 600) overflows a float, its log does not
    params = SystemParams(payload_bits=2e6, min_subchannel_hz=1.0, min_slot_s=1e-6)
    assert gain_threshold("tdma", 600, params) == math.inf
    assert gain_threshold("fdma", 10**6, params) == math.inf
    tail = tdma_tx_probability(UncoordinatedDesign("tdma", 1.0, 600), params)
    assert tail == pytest.approx(2.0 ** -600, rel=1e-12)     # (2**1200)**(-1/2)
    assert fdma_tx_probability(UncoordinatedDesign("fdma", 1.0, 10**6), params) == 0.0


# --- collisions ---------------------------------------------------------------

def test_collision_probability_trivial_cases():
    assert collision_probability(1.0, 1000) == 0.0
    assert collision_probability(2.0, 1) == 1.0
    assert collision_probability(0.3, 50) == 0.0    # exponent clamped at zero
    with pytest.raises(ValueError):
        collision_probability(2.0, 0)


def test_collision_probability_high_precision_value():
    exact = float(1 - Fraction(999, 1000) ** 999)
    assert collision_probability(1000.0, 1000) == pytest.approx(exact, abs=1e-12)
    assert collision_probability(1000.0, 1000) == pytest.approx(0.6319365117407767, abs=1e-9)


@pytest.mark.parametrize("partitions", [1, 2, 3, 4])
@pytest.mark.parametrize("transmitters", [1, 2, 3, 4])
def test_collision_probability_matches_enumeration(transmitters, partitions):
    got = collision_probability(float(transmitters), partitions)
    assert got == pytest.approx(float(exact_collision_probability(
        transmitters, partitions)), abs=1e-12)


def test_collision_probability_monotone():
    assert collision_probability(200.0, 100) > collision_probability(150.0, 100)
    assert collision_probability(150.0, 200) < collision_probability(150.0, 100)


# --- expected-count analysis ----------------------------------------------------

def test_throughput_zero_access(params):
    analysis = uncoordinated_throughput(
        UncoordinatedDesign("fdma", 0.0, 1000), params, TrafficModel(5000.0))
    assert analysis.expected_active == 0.0
    assert analysis.expected_success == 0.0


def test_throughput_chained_example(params):
    # 2000 offered, halved by access probability, all power-feasible, 1000
    # partitions: 1000 expected transmitters and the collision value above.
    analysis = uncoordinated_throughput(
        UncoordinatedDesign("fdma", 0.5, 1000), params, TrafficModel(2000.0))
    assert analysis.expected_transmitting == pytest.approx(1000.0, rel=1e-12)
    assert analysis.expected_success == pytest.approx(368.06348825922327, rel=1e-9)
    assert abs(analysis.expected_success - 368.1) < 0.1


def test_success_never_exceeds_partitions(params):
    for n in (1, 2, 10, 100, 1000):
        for access in np.linspace(0.0, 1.0, 21):
            for lam in (10.0, 1000.0, 50000.0):
                analysis = uncoordinated_throughput(
                    UncoordinatedDesign("tdma", float(access), n), params,
                    TrafficModel(lam))
                assert analysis.expected_success <= n + 1e-9
                assert analysis.expected_success <= analysis.expected_transmitting + 1e-12
                assert analysis.expected_transmitting <= analysis.expected_active + 1e-12


def test_probabilities_stay_in_unit_interval():
    rng = trial_rng(31, 0)
    for _ in range(300):
        params = SystemParams(
            bandwidth_hz=float(rng.uniform(1e5, 1e7)),
            slot_s=float(rng.uniform(0.05, 5.0)),
            payload_bits=float(rng.uniform(50.0, 1e4)),
            ref_snr=float(10 ** rng.uniform(-4, 2)),
            pathloss_exp=float(rng.uniform(2.1, 6.0)),
            min_slot_s=1e-4, min_subchannel_hz=10.0)
        n = int(rng.integers(1, 2000))
        design_f = UncoordinatedDesign("fdma", 1.0, n)
        design_t = UncoordinatedDesign("tdma", 1.0, n)
        for value in (fdma_tx_probability(design_f, params),
                      tdma_tx_probability(design_t, params),
                      collision_probability(float(rng.uniform(0, 5000)), n),
                      noma_feasibility_probability(float(10 ** rng.uniform(-4, 4)), params)):
            assert 0.0 <= value <= 1.0


# --- power-controlled superposition ---------------------------------------------

def test_noma_required_snr_examples(params):
    unit = SystemParams(payload_bits=1e6)    # snr floor exactly 1
    assert noma_required_snr(0.5, unit) == pytest.approx(2.0, rel=1e-12)
    got = noma_required_snr(1000.0, params)
    assert got == pytest.approx(TARGET_SNR_AT_1000, rel=1e-9)


def test_noma_required_snr_round_trip(params):
    # Substituting the target back into the per-stage rate recovers the
    # spectral load exactly under the re-derived form, and with the count
    # shifted by one under the default form.
    load = params.spectral_load

    def rate(n, snr):
        return math.log2(1.0 + snr / (1.0 + (n - 1.0) * snr))

    for n in (1.0, 10.0, 500.0, 1400.0):
        exact = noma_required_snr(n, params, REDERIVED)
        assert rate(n, exact) == pytest.approx(load, rel=1e-9)
        nominal = noma_required_snr(n, params, NOMINAL)
        assert rate(n + 1.0, nominal) == pytest.approx(load, rel=1e-9)


def test_noma_required_snr_infeasible(params):
    with pytest.raises(Infeasible):
        noma_required_snr(1443.0, params)
    with pytest.raises(ValueError):
        noma_required_snr(10.0, params, "some-other-rule")


def test_noma_device_cap_values(params):
    assert noma_device_cap(params) == pytest.approx(CAP_DEFAULT_PARAMS, rel=1e-9)
    assert noma_device_cap(SystemParams(payload_bits=1e6)) == 1.0
    assert noma_device_cap(SystemParams(payload_bits=2000.0)) < noma_device_cap(params)
    assert noma_device_cap(SystemParams(bandwidth_hz=2e6)) > noma_device_cap(params)


def test_noma_feasibility_probability_examples(params):
    assert noma_feasibility_probability(params.ref_snr, params) == 1.0
    assert noma_feasibility_probability(16.0 * params.ref_snr, params) == pytest.approx(0.25, rel=1e-12)
    assert noma_feasibility_probability(1e12, params) < 1e-5


def test_noma_design_self_consistent(params):
    for lam in (10.0, 1000.0, 5000.0, 50000.0):
        traffic = TrafficModel(lam)
        design = noma_design(params, traffic)
        analysis = uncoordinated_throughput(design, params, traffic)
        # at the fixed point everything feasible is delivered
        assert analysis.expected_success == analysis.expected_transmitting
        assert analysis.expected_success <= noma_device_cap(params)
        if lam * params.slot_s < 1000.0:
            assert analysis.expected_success == pytest.approx(lam * params.slot_s, rel=1e-9)


def test_noma_design_zero_load(params):
    design = noma_design(params, TrafficModel(0.0))
    assert design.target_snr == params.snr_floor


def test_noma_supported_boundary(params):
    snr = noma_required_snr(100.0, params, REDERIVED)
    assert noma_supported(100.0, snr, params)
    assert not noma_supported(102.0, snr, params)


# --- design optimization ----------------------------------------------------------

def brute_force_design(scheme, params, traffic, n_max, grid_points=1001):
    """Exhaustive scan over partition counts and an access-probability grid,
    with the declared tie-break (fewer partitions, then smaller access)."""
    best = (1, 0.0, -1.0)
    for n in range(1, n_max + 1):
        for p in np.linspace(0.0, 1.0, grid_points):
            s = uncoordinated_throughput(
                UncoordinatedDesign(scheme, float(p), n), params, traffic).expected_success
            if s > best[2]:
                best = (n, float(p), s)
    return best


@pytest.mark.parametrize("scheme", ["fdma", "tdma"])
def test_optimizer_matches_brute_force_small(scheme):
    params = SystemParams(min_subchannel_hz=1e6 / 16, min_slot_s=1.0 / 16,
                          ref_snr=0.5)
    traffic = TrafficModel(40.0)
    assert max_partitions(scheme, params) == 16
    design = optimize_design(scheme, params, traffic)
    n_bf, p_bf, s_bf = brute_force_design(scheme, params, traffic, 16)
    assert design.partitions == n_bf
    assert abs(design.access_prob - p_bf) <= 1e-3
    s_opt = uncoordinated_throughput(design, params, traffic).expected_success
    assert s_opt >= s_bf - 1e-12


def dense_search_design(scheme, params, traffic, grid_points=401, refine_steps=100):
    """Reference optimizer: for every partition count, the best point of a
    dense access-probability grid, refined by ternary search between its grid
    neighbours (the expected success is unimodal in the access probability).
    Ties go to fewer partitions. Returns (partitions, access, success)."""
    def success(n, p):
        return uncoordinated_throughput(UncoordinatedDesign(scheme, p, n), params,
                                        traffic).expected_success

    grid = np.linspace(0.0, 1.0, grid_points)
    best = (1, 0.0, -1.0)
    for n in range(1, max_partitions(scheme, params) + 1):
        values = [success(n, float(p)) for p in grid]
        i = int(np.argmax(values))
        lo, hi = float(grid[max(i - 1, 0)]), float(grid[min(i + 1, grid_points - 1)])
        for _ in range(refine_steps):
            a, b = lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0
            if success(n, a) >= success(n, b):
                hi = b
            else:
                lo = a
        p, s = max((float(grid[i]), values[i]), (lo, success(n, lo)),
                   key=lambda candidate: candidate[1])
        if s > best[2]:
            best = (n, p, s)
    return best


def minima_for(partitions, **kw):
    """Parameters whose partition minima allow exactly ``partitions`` shares."""
    return SystemParams(min_subchannel_hz=1e6 / partitions,
                        min_slot_s=1.0 / partitions, **kw)


@pytest.mark.parametrize("scheme", ["fdma", "tdma"])
@pytest.mark.parametrize("params, lam", [
    (minima_for(16), 0.0),                      # nothing to deliver
    (minima_for(1), 0.5),                       # one partition, under one transmitter
    (minima_for(1, payload_bits=1.5e7), 212.0),  # one partition, saturated:
    # 1 / (A p_tx) rounds to a load just past one transmitter, where it fails
    (minima_for(32), 10.0),                     # unsaturated: full access
    (minima_for(32, ref_snr=0.02), 300.0),      # saturated, weak channels
    (minima_for(48, ref_snr=0.2, pathloss_exp=3.0), 2000.0),
])
def test_optimizer_matches_dense_search(scheme, params, lam):
    traffic = TrafficModel(lam)
    design = optimize_design(scheme, params, traffic)
    n_ref, _, s_ref = dense_search_design(scheme, params, traffic)
    assert design.partitions == n_ref
    achieved = uncoordinated_throughput(design, params, traffic).expected_success
    assert achieved == pytest.approx(s_ref, rel=1e-12, abs=0.0)
    if lam == 0.0:
        assert (design.partitions, design.access_prob) == (1, 0.0)


@pytest.mark.parametrize("scheme", ["fdma", "tdma"])
def test_optimizer_at_a_hundred_thousand_partitions(scheme, params):
    fine = SystemParams(min_subchannel_hz=10.0, min_slot_s=1e-5)
    assert max_partitions(scheme, fine) == 100_000
    traffic = TrafficModel(20000.0)
    design = optimize_design(scheme, fine, traffic)
    assert 1 <= design.partitions <= 100_000
    assert 0.0 <= design.access_prob <= 1.0
    # more admissible partition counts can only help
    coarse = optimize_design(scheme, params, traffic)
    assert (uncoordinated_throughput(design, fine, traffic).expected_success
            >= uncoordinated_throughput(coarse, params, traffic).expected_success
            * (1.0 - 1e-12))


def test_optimizer_low_load_keeps_full_access(params):
    design = optimize_design("fdma", params, TrafficModel(5.0))
    assert design.access_prob == 1.0
    assert design.partitions == max_partitions("fdma", params)


def test_optimizer_zero_load_canonical(params):
    design = optimize_design("tdma", params, TrafficModel(0.0))
    assert (design.partitions, design.access_prob) == (1, 0.0)


def test_optimizer_respects_partition_minima(params):
    for scheme in ("fdma", "tdma"):
        design = optimize_design(scheme, params, TrafficModel(20000.0))
        assert design.partitions <= max_partitions(scheme, params)
        assert design.partitions >= 1


def test_optimizer_stationary_point_at_thousand_partitions(params):
    # At saturating load the chosen access probability steers the expected
    # transmitter count to the peak of m (1 - 1/N)^(m-1).
    traffic = TrafficModel(20000.0)
    design = optimize_design("fdma", params, traffic)
    assert design.partitions == 1000
    achieved = design.access_prob * 20000.0 * fdma_tx_probability(design, params)
    assert achieved == pytest.approx(ALOHA_PEAK_LOAD_1000, rel=1e-3)


# --- properties over the valid parameter domain ---------------------------------

@st.composite
def params_and_load(draw):
    """A valid parameter set with at most 2000 partitions per scheme, and a load."""
    bandwidth = draw(st.floats(1e4, 1e8))
    slot = draw(st.floats(1e-3, 10.0))
    params = SystemParams(
        bandwidth_hz=bandwidth, slot_s=slot,
        payload_bits=bandwidth * slot * draw(st.floats(1e-6, 30.0)),
        ref_snr=draw(st.floats(1e-6, 1e4)),
        pathloss_exp=draw(st.floats(2.01, 8.0)),
        min_subchannel_hz=bandwidth / draw(st.integers(1, 2000)),
        min_slot_s=slot / draw(st.integers(1, 2000)))
    return params, TrafficModel(draw(st.floats(0.0, 1e6)))


PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


@PROPERTY_SETTINGS
@given(params_and_load())
def test_tails_in_unit_interval_and_tdma_non_increasing(case):
    params, _ = case
    n_max = max(max_partitions("fdma", params), max_partitions("tdma", params))
    tdma = np.array([tdma_tx_probability(UncoordinatedDesign("tdma", 1.0, n), params)
                     for n in range(1, n_max + 1)])
    fdma = np.array([fdma_tx_probability(UncoordinatedDesign("fdma", 1.0, n), params)
                     for n in range(1, n_max + 1)])
    assert np.all((tdma >= 0.0) & (tdma <= 1.0))
    assert np.all((fdma >= 0.0) & (fdma <= 1.0))
    assert np.all(np.diff(tdma) <= 0.0)


@PROPERTY_SETTINGS
@given(params_and_load(), st.sampled_from(["fdma", "tdma"]), st.data())
def test_optimizer_beats_every_sampled_design(case, scheme, data):
    params, traffic = case
    design = optimize_design(scheme, params, traffic)
    n_max = max_partitions(scheme, params)
    assert 1 <= design.partitions <= n_max
    assert 0.0 <= design.access_prob <= 1.0
    best = uncoordinated_throughput(design, params, traffic).expected_success
    for _ in range(20):
        other = UncoordinatedDesign(scheme, data.draw(st.floats(0.0, 1.0)),
                                    data.draw(st.integers(1, n_max)))
        sampled = uncoordinated_throughput(other, params, traffic).expected_success
        assert best >= sampled * (1.0 - 1e-12)
