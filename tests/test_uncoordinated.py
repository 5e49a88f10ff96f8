import itertools
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ma_bench import (NOMINAL, REDERIVED, Infeasible, SystemParams,
                      TrafficModel, UncoordinatedDesign, collision_probability,
                      noma_design, noma_device_cap,
                      noma_feasibility_probability, noma_required_snr,
                      optimize_design, transmit_probability,
                      uncoordinated_throughput, trial_rng)
from ma_bench import uncoordinated as un
from ma_bench.uncoordinated import (_gain_tail_probability, _log_gain_threshold,
                                    max_partitions, noma_supported)

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
    assert transmit_probability(design, weak) == 1.0
    assert transmit_probability(design, params) == 1.0   # clamped above 1


def test_tx_probability_vanishes_with_snr():
    # below the clamp the tail probability is (1000 mu)^(1/2) for these params
    design = UncoordinatedDesign("fdma", 1.0, 1000)
    values = [transmit_probability(design, SystemParams(ref_snr=mu))
              for mu in (1e-3, 1e-5, 1e-9)]
    assert values[0] > values[1] > values[2]
    assert values[1] == pytest.approx(1e-1, rel=1e-12)
    assert values[2] == pytest.approx(1e-3, rel=1e-12)


def test_tdma_tx_probability_boundary_and_monotonicity(params):
    assert transmit_probability(UncoordinatedDesign("tdma", 1.0, 1000), params) == 1.0
    mu = 0.05
    weak = SystemParams(ref_snr=mu)
    p1 = transmit_probability(UncoordinatedDesign("tdma", 1.0, 1500), weak)
    p2 = transmit_probability(UncoordinatedDesign("tdma", 1.0, 3000), weak)
    assert p2 < p1 < 1.0


def test_gain_threshold_shapes(params):
    # splitting the band concentrates power, splitting time does not: at 2000
    # partitions the FDMA threshold is 3 / 2000 (every device), TDMA's 3
    fdma = transmit_probability(UncoordinatedDesign("fdma", 1.0, 2000), params)
    tdma = transmit_probability(UncoordinatedDesign("tdma", 1.0, 2000), params)
    assert fdma == 1.0 and tdma == pytest.approx(3.0 ** -0.5, rel=1e-13)
    with pytest.raises(ValueError):
        _log_gain_threshold("noma", 10, params)


def test_gain_threshold_matches_direct_form():
    # P(gain >= t) = t**(-2 / pathloss_exp) for the thresholds t below, all > 1
    for pathloss_exp, n in itertools.product((2.5, 4.0, 6.0), (1, 2, 7, 100, 1000)):
        params = SystemParams(payload_bits=3e4, ref_snr=1e-4, pathloss_exp=pathloss_exp)
        need = 2.0 ** (params.spectral_load * n) - 1.0
        for scheme, threshold in (("fdma", need / (n * params.ref_snr)),
                                  ("tdma", need / params.ref_snr)):
            assert threshold > 1.0
            assert transmit_probability(UncoordinatedDesign(scheme, 1.0, n), params) == \
                pytest.approx(threshold ** (-2.0 / pathloss_exp), rel=1e-13)


def test_threshold_beyond_float_range_is_inf_and_tail_stays_finite():
    # 2 bits/s/Hz: 2**(2 * 600) overflows a float, its log does not
    params = SystemParams(payload_bits=2e6, min_subchannel_hz=1.0, min_slot_s=1e-6)
    for scheme, n in (("tdma", 600), ("fdma", 10**6)):
        log_threshold = _log_gain_threshold(scheme, n, params)
        assert np.log(np.finfo(float).max) < log_threshold < math.inf
    tail = transmit_probability(UncoordinatedDesign("tdma", 1.0, 600), params)
    assert tail == pytest.approx(2.0 ** -600, rel=1e-12)     # (2**1200)**(-1/2)
    assert transmit_probability(UncoordinatedDesign("fdma", 1.0, 10**6), params) == 0.0


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


def test_collision_probability_is_elementwise_and_scalars_stay_floats():
    load = np.array([0.3, 1.0, 2.0, 150.0, 999.5, 2e4])
    partitions = np.array([50, 1000, 1, 100, 1000, 3])
    got = collision_probability(load, partitions)
    scalars = [collision_probability(float(m), int(n)) for m, n in zip(load, partitions)]
    assert all(type(value) is float for value in scalars)   # emit_csv writes repr
    # numpy's vectorized pow may differ from libm's by an ulp
    assert got == pytest.approx(scalars, rel=0, abs=1e-15)
    with pytest.raises(ValueError):
        collision_probability(load, np.array([5, 0, 1, 1, 1, 1]))


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
        for value in (transmit_probability(design_f, params),
                      transmit_probability(design_t, params),
                      collision_probability(float(rng.uniform(0, 5000)), n),
                      noma_feasibility_probability(float(10 ** rng.uniform(-4, 4)), params)):
            assert 0.0 <= value <= 1.0


def poisson_cdf(k, mean):
    """P(Poisson(mean) <= k), term by term from logs."""
    return math.fsum(math.exp(j * math.log(mean) - mean - math.lgamma(j + 1.0))
                     for j in range(k + 1))


@pytest.mark.parametrize("lam", [100.0, 1000.0, 5000.0, 20000.0])
def test_exact_mean_served_matches_the_term_by_term_means(params, lam):
    # m e^(-m / N) lone transmitters; NOMA serves T <= n_sup transmitters,
    # n_sup the most noma_supported accepts: m P(Poisson(m) <= n_sup - 1)
    traffic = TrafficModel(lam)
    for design in (optimize_design("fdma", params, traffic),
                   UncoordinatedDesign("tdma", 0.3, 7)):
        m = lam * design.access_prob * transmit_probability(design, params)
        assert un.exact_mean_served(design, params, traffic) == pytest.approx(
            m * math.exp(-m / design.partitions), rel=1e-12)
    for rule in (NOMINAL, REDERIVED):
        design = noma_design(params, traffic, rule)
        m = lam * transmit_probability(design, params)
        n_sup = max(n for n in range(1, int(noma_device_cap(params)) + 2)
                    if noma_supported(n, design.target_snr, params))
        assert un.exact_mean_served(design, params, traffic) == pytest.approx(
            m * poisson_cdf(n_sup - 1, m), rel=1e-9, abs=1e-300)


def test_exact_mean_served_at_the_ends(params):
    nothing = TrafficModel(0.0)
    assert un.exact_mean_served(noma_design(params, nothing), params, nothing) == 0.0
    assert un.exact_mean_served(UncoordinatedDesign("fdma", 1.0, 5), params, nothing) == 0.0
    # no transmitter decodes at this target, and every count does at this one
    unreachable = UncoordinatedDesign("noma", target_snr=1e-9)
    assert un.exact_mean_served(unreachable, params, TrafficModel(50.0)) == 0.0
    roomy = noma_design(params, TrafficModel(1000.0))   # decodes ~1,000 at once
    assert un.exact_mean_served(roomy, params, TrafficModel(10.0)) == pytest.approx(
        10.0 * transmit_probability(roomy, params), rel=1e-12)


@pytest.mark.parametrize("mean", [0.0, 1e-300, 0.05, 1.0, 4.0, 1000.0, 1e6])
def test_poisson_law_is_the_pmf_where_it_reaches_the_smallest_normal_float(mean):
    first, pmf = un.poisson_law(mean)
    assert math.fsum(pmf) == pytest.approx(1.0, abs=1e-12)
    if mean == 0.0:
        assert (first, pmf.tolist()) == (0, [1.0])
        return
    tiny = np.finfo(float).tiny

    def exact(k):
        return math.exp(k * math.log(mean) - mean - math.lgamma(k + 1.0))

    assert exact(first) >= tiny and exact(first + pmf.size - 1) >= tiny
    assert first == 0 or exact(first - 1) < tiny
    assert exact(first + pmf.size) < tiny
    ks = np.linspace(first, first + pmf.size - 1, 50).astype(int)
    # the relative error of the summed log steps grows with the window
    assert [pmf[k - first] for k in ks] == pytest.approx([exact(k) for k in ks], rel=1e-8)


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


def design_cap(params, rule):
    return noma_device_cap(params) + (1.0 if rule == REDERIVED else 0.0)


@pytest.mark.parametrize("rule", [NOMINAL, REDERIVED])
@pytest.mark.parametrize("lam", [1.5e3, 5e3, 2e4, 1e5, 1e6, 1e8])
def test_noma_design_matches_quadratic_at_pathloss_four(params, rule, lam):
    # At pathloss exponent 4 the saturated fixed point x**2 + b x - c = 0,
    # b = ref_snr * A, c = ref_snr * cap, has the stable root 2c / (b + sqrt(b^2 + 4c)).
    active = lam * params.slot_s
    b, c = params.ref_snr * active, params.ref_snr * design_cap(params, rule)
    x = 2.0 * c / (b + math.sqrt(b * b + 4.0 * c))
    target = noma_design(params, TrafficModel(lam), rule).target_snr
    assert target == pytest.approx(params.ref_snr / x ** 2, rel=1e-12)


def bisected_feasible_fraction(params, active, rule):
    """Root in (0, 1] of h(x) = x**s + ref_snr (A x - cap) by float bisection."""
    s, cap = 0.5 * params.pathloss_exp, design_cap(params, rule)
    if params.ref_snr * (cap - active) >= 1.0:
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid ** s + params.ref_snr * (active * mid - cap) < 0.0:
            lo = mid
        else:
            hi = mid
    return hi


@settings(max_examples=300)
@given(log_ref_snr=st.floats(-3.0, 3.0), pathloss_exp=st.floats(2.0, 8.0, exclude_min=True),
       log_payload=st.floats(2.0, 4.5), log_lam=st.floats(0.0, 9.0),
       rule=st.sampled_from([NOMINAL, REDERIVED]))
def test_noma_design_is_the_fixed_point(log_ref_snr, pathloss_exp, log_payload, log_lam, rule):
    params = SystemParams(ref_snr=10.0 ** log_ref_snr, pathloss_exp=pathloss_exp,
                          payload_bits=10.0 ** log_payload)
    traffic = TrafficModel(10.0 ** log_lam)
    design = noma_design(params, traffic, rule)
    analysis = uncoordinated_throughput(design, params, traffic)
    # everything that can afford the target decodes, under either rule
    assert analysis.expected_success == analysis.expected_transmitting
    active = traffic.arrival_rate * params.slot_s
    assert transmit_probability(design, params) == pytest.approx(
        bisected_feasible_fraction(params, active, rule), rel=1e-9)


@pytest.mark.parametrize("rule", [NOMINAL, REDERIVED])
def test_noma_delivers_the_cap_at_any_saturating_load(params, rule):
    # the bracketed solver pinned its target near cap and delivered nothing
    # beyond ~1e8 arrivals, and nothing at any saturated load under the
    # rederived rule
    for lam in (1.5e3, 3714.2857142857147, 2e4, 5e7, 1e9):
        traffic = TrafficModel(lam)
        delivered = uncoordinated_throughput(noma_design(params, traffic, rule),
                                             params, traffic).expected_success
        assert delivered == pytest.approx(design_cap(params, rule), rel=1e-3)


def test_noma_design_beyond_the_float_range_is_infeasible():
    # at ref_snr 1e300 and 1e9 arrivals the target is ~5e311
    with pytest.raises(Infeasible):
        noma_design(SystemParams(ref_snr=1e300), TrafficModel(1e9))
    # an offered load that itself overflows
    with pytest.raises(Infeasible):
        noma_design(SystemParams(slot_s=10.0), TrafficModel(1e308))


def test_noma_design_rejects_unknown_rule(params):
    with pytest.raises(ValueError):
        noma_design(params, TrafficModel(5000.0), "some-other-rule")


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


def unchunked_design(scheme, params, traffic):
    """optimize_design's closed form over every partition count in one pass."""
    n = np.arange(1, max_partitions(scheme, params) + 1, dtype=float)
    feasible = traffic.arrival_rate * params.slot_s * _gain_tail_probability(
        _log_gain_threshold(scheme, n, params), params.pathloss_exp)
    peak = np.ones_like(n)
    peak[1:] = -1.0 / np.log1p(-1.0 / n[1:])
    load = np.minimum(feasible, peak)
    success = load * (1.0 - (1.0 - (1.0 - 1.0 / n) ** (np.maximum(load, 1.0) - 1.0)))
    best = int(np.argmax(success))
    if not success[best] > 0.0:   # nothing to deliver
        return 1, 0.0
    access = 1.0 if feasible[best] <= peak[best] else float(peak[best] / feasible[best])
    # a lone partition: the reported load must not round past one transmitter
    while best == 0 and uncoordinated_throughput(UncoordinatedDesign(
            scheme, access, 1), params, traffic).expected_transmitting > 1.0:
        access = math.nextafter(access, 0.0)
    return best + 1, access


@pytest.mark.parametrize("scheme, payload_bits, lam", [
    ("fdma", 1.0, 3e6),     # best at the last of 10^6 partition counts
    ("tdma", 10.0, 1e6),    # best inside a later chunk
    ("fdma", 1.0, 0.5),     # under one transmitter every count ties: N = 1 wins
])
def test_optimizer_memory_stays_bounded_at_a_million_partitions(scheme, payload_bits, lam):
    fine = SystemParams(payload_bits=payload_bits, min_subchannel_hz=1.0, min_slot_s=1e-6)
    assert max_partitions(scheme, fine) == 1_000_000
    traffic = TrafficModel(lam)
    tracemalloc.start()
    try:
        design = optimize_design(scheme, fine, traffic)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000
    assert (design.partitions, design.access_prob) == unchunked_design(scheme, fine, traffic)


@settings(max_examples=80)
@given(st.sampled_from(["fdma", "tdma"]), st.integers(1, 70_000),
       st.floats(-6.0, 0.0), st.floats(1e-3, 1e3), st.floats(2.01, 8.0),
       st.one_of(st.just(0.0), st.floats(1e-3, 1e7)))
@example("fdma", 1, -0.48, 0.058, 7.36, 148563.0)   # the lone-partition step
def test_optimizer_matches_the_unchunked_closed_form(scheme, partitions, log_load, ref_snr,
                                                      pathloss_exp, lam):
    # one or two chunks; the reference scores with the collision formula
    # spelled out, not with the cached collision bases
    params = SystemParams(payload_bits=1e6 * 10.0 ** log_load, ref_snr=ref_snr,
                          pathloss_exp=pathloss_exp,
                          min_subchannel_hz=1e6 / partitions, min_slot_s=1.0 / partitions)
    traffic = TrafficModel(lam)
    design = optimize_design(scheme, params, traffic)
    assert (design.partitions, design.access_prob) == unchunked_design(scheme, params, traffic)


@pytest.mark.parametrize("scheme", ["fdma", "tdma"])
@pytest.mark.parametrize("minima, grid", [
    ({}, np.linspace(1000.0, 20000.0, 16)),
    ({"min_slot_s": 1e-4, "min_subchannel_hz": 100.0}, np.linspace(1000.0, 20000.0, 3)),
], ids=["default", "fine-minima"])
def test_optimizer_matches_the_unchunked_closed_form_on_the_benchmark_grids(scheme, minima,
                                                                           grid):
    params = SystemParams(**minima)
    for lam in grid.tolist():
        design = optimize_design(scheme, params, TrafficModel(lam))
        assert (design.partitions, design.access_prob) == unchunked_design(
            scheme, params, TrafficModel(lam))


@settings(max_examples=60)
@given(st.sampled_from(["fdma", "tdma"]), st.integers(65_537, 300_000),
       st.floats(-6.0, 0.0), st.floats(1e-3, 1e3), st.floats(2.01, 8.0),
       st.one_of(st.just(0.0), st.floats(1e-3, 1e7)))
def test_optimizer_stop_at_zero_feasible_load_keeps_the_design(
        scheme, partitions, log_load, ref_snr, pathloss_exp, lam):
    # two to five chunks; spectral loads 1e-6..1: the scan stops after the
    # first chunk, after a later one, or not at all, and the best count lies
    # in the first chunk or a later one
    params = SystemParams(payload_bits=1e6 * 10.0 ** log_load, ref_snr=ref_snr,
                          pathloss_exp=pathloss_exp,
                          min_subchannel_hz=1e6 / partitions, min_slot_s=1.0 / partitions)
    traffic = TrafficModel(lam)
    top = max_partitions(scheme, params)
    with mock.patch.object(un, "_PARTITION_CHUNK", top):   # one chunk: no stop
        unstopped = optimize_design(scheme, params, traffic)
    assert optimize_design(scheme, params, traffic) == unstopped


@settings(max_examples=40)
@given(st.sampled_from(["fdma", "tdma"]), st.integers(65_537, 200_000),
       st.floats(-6.0, 0.0), st.floats(1e-3, 1e3),
       st.floats(0.0, 1e7), st.floats(0.0, 1e7))
def test_optimizer_term_cache_changes_no_design(scheme, partitions, log_load, ref_snr,
                                                warm_up, lam):
    # two to four chunks: the warm call finds some, all or none of its
    # chunks' terms left in the cache by a call at another load
    params = SystemParams(payload_bits=1e6 * 10.0 ** log_load, ref_snr=ref_snr,
                          min_subchannel_hz=1e6 / partitions, min_slot_s=1.0 / partitions)
    traffic = TrafficModel(lam)
    un._load_free_terms.cache_clear()
    cold = optimize_design(scheme, params, traffic)
    un._load_free_terms.cache_clear()
    optimize_design(scheme, params, TrafficModel(warm_up))
    assert optimize_design(scheme, params, traffic) == cold


def test_optimizer_term_cache_is_read_only_and_holds_two_chunks(params):
    un._load_free_terms.cache_clear()
    for lam in (1000.0, 20000.0):
        optimize_design("fdma", params, TrafficModel(lam))
    assert un._load_free_terms.cache_info()[:2] == (1, 1)   # (hits, misses)
    tail, peak, base, _ = un._load_free_terms("fdma", params, 1, 1001)
    for terms in (tail, peak, base):
        with pytest.raises(ValueError, match="read-only"):
            terms[0] = 0.0
    fine = SystemParams(payload_bits=10.0, min_subchannel_hz=1.0, min_slot_s=1e-6)
    optimize_design("tdma", fine, TrafficModel(1e6))
    assert un._load_free_terms.cache_info().currsize <= 2


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
    achieved = design.access_prob * 20000.0 * transmit_probability(design, params)
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


PROPERTY_SETTINGS = settings(max_examples=150)


@PROPERTY_SETTINGS
@given(params_and_load())
def test_tails_in_unit_interval_and_tdma_non_increasing(case):
    params, _ = case
    n_max = max(max_partitions("fdma", params), max_partitions("tdma", params))
    tdma = np.array([transmit_probability(UncoordinatedDesign("tdma", 1.0, n), params)
                     for n in range(1, n_max + 1)])
    fdma = np.array([transmit_probability(UncoordinatedDesign("fdma", 1.0, n), params)
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


def test_partition_snr_past_the_float_range_changes_no_design():
    # FDMA's N ref_snr overflows for N > ~180 at ref_snr 1e306: the threshold
    # is -inf, silently, and every device transmits as at ref_snr 1e300
    traffic = TrafficModel(1000.0)
    assert optimize_design("fdma", SystemParams(ref_snr=1e306), traffic) == \
        optimize_design("fdma", SystemParams(ref_snr=1e300), traffic)
