"""
Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them).
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np

from ma_bench import (DeviceSet, SystemParams, TrafficModel,
                      UncoordinatedDesign, collision_probability, fdma_kmax,
                      fdma_min_bandwidth, noma_design, noma_device_cap,
                      noma_power_allocation, optimize_design, run_sweep,
                      simulate_point, tdma_kmax, transmit_probability,
                      trial_rng, uncoordinated_throughput)
from ma_bench.cli import emit_csv
from ma_bench.sim import SchemeConfig
from ma_bench.uncoordinated import max_partitions

MASTER_SEED = 42

# 50-digit evaluations of the closed forms, frozen.
CAP_EXTENDED = 1442.1950986512280        # 1 / (2**0.001 - 1)
COLLISION_EXTENDED = 0.6319365117407767  # 1 - (999/1000)**999
ALOHA_PEAK_LOAD_1000 = 999.4999166249736  # -1 / ln(1 - 1/1000)


def report(criterion: int, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_sic_snr_identity(params):
    started = time.time()
    worst = 0.0
    for index in range(1000):
        rng = trial_rng(MASTER_SEED, index)
        count = int(rng.integers(1, 51))
        gains = np.sort(1.0 - rng.random(count)) ** (-params.pathloss_exp)
        devices = DeviceSet(np.sort(gains)[::-1])
        powers = noma_power_allocation(devices, params)
        received = powers * params.ref_snr * devices.gains
        behind = np.concatenate([np.cumsum(received[::-1])[::-1][1:], [0.0]])
        snr = received / (1.0 + behind)
        worst = max(worst, float(np.max(np.abs(snr - params.snr_floor))) / params.snr_floor)
    elapsed = time.time() - started
    report(1, worst <= 1e-9 and elapsed < 5.0,
           f"SIC stage SNR identity over 1000 device sets, worst relative "
           f"defect {worst:.2e} (tol 1e-9), {elapsed:.1f}s (limit 5s)")


def oracle_min_bandwidth(gains, params, iterations=1000):
    """Dumb fixed-iteration bisection on the defining equation, wide bracket."""
    demand = params.payload_bits
    power = params.ref_snr * params.bandwidth_hz * np.asarray(gains)
    lo = np.full(power.shape, 1e-12 * params.bandwidth_hz)
    hi = np.full(power.shape, params.bandwidth_hz)
    while True:
        short = hi * params.slot_s * np.log2(1.0 + power / hi) < demand
        if not short.any():
            break
        hi[short] *= 2.0
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        enough = mid * params.slot_s * np.log2(1.0 + power / mid) >= demand
        hi = np.where(enough, mid, hi)
        lo = np.where(enough, lo, mid)
    return hi


def test_criterion_2_min_bandwidth_residual_and_oracle():
    started = time.time()
    rng = trial_rng(MASTER_SEED, 1_000_001)
    checked = 0
    worst_resid = 0.0
    worst_gap = 0.0
    while checked < 10_000:
        params = SystemParams(
            bandwidth_hz=float(rng.uniform(1e5, 1e7)),
            slot_s=float(rng.uniform(0.1, 2.0)),
            payload_bits=float(rng.uniform(100.0, 5000.0)),
            ref_snr=float(10 ** rng.uniform(-2, 1)),
            min_slot_s=1e-6, min_subchannel_hz=1.0)
        gains = 10 ** rng.uniform(0.0, 8.0, size=500)
        limit = params.slot_s * params.ref_snr * params.bandwidth_hz * gains / math.log(2.0)
        gains = gains[params.payload_bits < 0.9 * limit]
        if gains.size == 0:
            continue
        solved = np.array([fdma_min_bandwidth(float(g), params) for g in gains])
        lhs = params.payload_bits / (params.slot_s * solved)
        rhs = np.log2(1.0 + params.ref_snr * params.bandwidth_hz * gains / solved)
        worst_resid = max(worst_resid, float(np.max(np.abs(lhs - rhs) / lhs)))
        reference = oracle_min_bandwidth(gains, params)
        worst_gap = max(worst_gap, float(np.max(np.abs(solved - reference) / reference)))
        checked += gains.size
    elapsed = time.time() - started
    report(2, worst_resid < 1e-9 and worst_gap < 1e-8 and elapsed < 10.0,
           f"{checked} feasible draws: worst residual {worst_resid:.2e} "
           f"(tol 1e-9), worst oracle gap {worst_gap:.2e} (tol 1e-8), "
           f"{elapsed:.1f}s (limit 10s)")


def test_criterion_3_partition_minimum_caps(params):
    results = []
    for population in (1000, 2500, 5000, 20000):
        strong = DeviceSet(np.full(population, 1e12))
        results.append(fdma_kmax(strong, params, enforce_minimum=True).admitted)
        results.append(tdma_kmax(strong, params, enforce_minimum=True).admitted)
    report(3, all(r == 1000 for r in results),
           f"FDMA/TDMA supported load with 1 kHz / 1 ms minima plateaus at "
           f"{sorted(set(results))} (expected exactly 1000)")


def test_criterion_4_superposition_capacity_bound(params):
    cap = noma_device_cap(params)
    value_ok = abs(cap - CAP_EXTENDED) <= 1e-9 * CAP_EXTENDED and abs(cap - 1442.20) <= 0.01
    rows = run_sweep(SchemeConfig("uncoordinated", "noma"), params,
                     [100.0, 1000.0, 5000.0, 10000.0, 20000.0],
                     trials=10_000, master_seed=MASTER_SEED)
    peak = max(row.mean_throughput_pps for row in rows)
    report(4, value_ok and peak <= cap,
           f"capacity bound {cap:.4f} packets/s (extended-precision "
           f"{CAP_EXTENDED:.4f} +/- 0.01 of 1442.20); Monte Carlo sweep peak "
           f"{peak:.1f} stays below it at 1e4 trials/point")


def test_criterion_5_analytic_vs_monte_carlo_panel(params):
    started = time.time()
    details = []
    ok = True
    for scheme in ("fdma", "tdma"):
        for lam in (100.0, 1000.0, 10000.0):
            traffic = TrafficModel(lam)
            design = optimize_design(scheme, params, traffic)
            analytic = uncoordinated_throughput(design, params, traffic).expected_success
            config = SchemeConfig("uncoordinated", scheme, design=design)
            served = simulate_point(config, params, traffic, MASTER_SEED, 0,
                                    10_000).served.astype(float)
            gap = abs(served.mean() - analytic)
            bound = 3.0 * served.std(ddof=1) / math.sqrt(served.size)
            ok &= gap <= bound
            details.append(f"{scheme}@{lam:g}:{gap:.3f}<={bound:.3f}")
    # declared expectation-vs-realization gap: the all-or-nothing
    # cancellation outcome is checked one-sided only
    for lam in (100.0, 1000.0, 10000.0):
        traffic = TrafficModel(lam)
        design = noma_design(params, traffic)
        analytic = uncoordinated_throughput(design, params, traffic).expected_success
        config = SchemeConfig("uncoordinated", "noma", design=design)
        served = simulate_point(config, params, traffic, MASTER_SEED, 0,
                                10_000).served.astype(float)
        slack = 3.0 * served.std(ddof=1) / math.sqrt(served.size)
        ok &= served.mean() <= analytic + slack
        details.append(f"noma@{lam:g}:{served.mean():.1f}<={analytic:.1f}+{slack:.2f}")
    elapsed = time.time() - started
    ok &= elapsed < 120.0
    report(5, ok, f"|MC - analytic| <= 3 SE at 1e4 trials ({'; '.join(details)}), "
                  f"{elapsed:.1f}s (limit 120s)")


def test_criterion_6_figure_shape(params):
    coordinated_grid = [5000.0, 9000.0, 14000.0, 20000.0]
    means = {}
    for scheme in ("noma", "fdma", "tdma"):
        rows = run_sweep(SchemeConfig("coordinated", scheme), params,
                         coordinated_grid, trials=150, master_seed=MASTER_SEED)
        means[scheme] = [row.mean_throughput_pps for row in rows]
    ordered = all(n >= f >= t for n, f, t in
                  zip(means["noma"], means["fdma"], means["tdma"]))
    rising = all(b >= a for a, b in zip(means["noma"], means["noma"][1:]))

    uncoordinated_grid = [10000.0, 20000.0]
    unc = {}
    for scheme in ("noma", "fdma", "tdma"):
        rows = run_sweep(SchemeConfig("uncoordinated", scheme), params,
                         uncoordinated_grid, trials=2000, master_seed=MASTER_SEED)
        unc[scheme] = [row.mean_throughput_pps for row in rows]
    noma_above = all(n > f and n > t for n, f, t in
                     zip(unc["noma"], unc["fdma"], unc["tdma"]))
    report(6, ordered and rising and noma_above,
           f"coordinated means at lam>=5000 keep noma>=fdma>=tdma "
           f"(noma {means['noma'][0]:.0f}->{means['noma'][-1]:.0f}, "
           f"fdma {means['fdma'][0]:.0f}->{means['fdma'][-1]:.0f}, "
           f"tdma {means['tdma'][0]:.0f}->{means['tdma'][-1]:.0f}); "
           f"uncoordinated noma ({unc['noma'][-1]:.0f}) strictly above "
           f"fdma/tdma ({unc['fdma'][-1]:.0f}/{unc['tdma'][-1]:.0f}) at high load")


def test_criterion_7_collision_oracle():
    value = collision_probability(1000.0, 1000)
    value_ok = (abs(value - 0.63194) <= 1e-5
                and abs(value - COLLISION_EXTENDED) <= 1e-9)
    enumeration_ok = True
    for partitions in range(1, 5):
        for transmitters in range(1, 5):
            total = 0
            collided = 0
            for others in itertools.product(range(partitions),
                                            repeat=transmitters - 1):
                total += 1
                collided += 0 in others   # tagged device in partition 0
            exact = Fraction(collided, total)
            got = collision_probability(float(transmitters), partitions)
            enumeration_ok &= abs(got - float(exact)) <= 1e-12
    report(7, value_ok and enumeration_ok,
           f"collision at 1000/1000 = {value:.7f} (0.63194 +/- 1e-5, "
           f"extended-precision {COLLISION_EXTENDED:.10f}); exhaustive "
           f"enumeration match for partitions,transmitters <= 4")


def test_criterion_8_byte_identical_csv(params, tmp_path):
    import os
    grid = [500.0, 1500.0]
    workers_max = max(2, os.cpu_count() or 2)
    payloads = []
    for run_index, workers in ((0, 1), (1, 1), (2, workers_max), (3, workers_max)):
        rows = []
        for scheme_config in (SchemeConfig("coordinated", "fdma"),
                              SchemeConfig("uncoordinated", "fdma"),
                              SchemeConfig("uncoordinated", "noma")):
            rows.extend(run_sweep(scheme_config, params, grid, trials=60,
                                  master_seed=MASTER_SEED, workers=workers))
        path = tmp_path / f"run{run_index}.csv"
        emit_csv(rows, str(path))
        payloads.append(path.read_bytes())
    report(8, all(p == payloads[0] for p in payloads[1:]),
           f"4 sweep runs (workers 1,1,{workers_max},{workers_max}) produced "
           f"byte-identical CSV of {len(payloads[0])} bytes")


def test_criterion_9_optimizer_against_brute_force():
    instances = [
        (SystemParams(min_subchannel_hz=1e6 / 64, min_slot_s=1.0 / 64), 40.0, "fdma"),
        (SystemParams(min_subchannel_hz=1e6 / 64, min_slot_s=1.0 / 64), 40.0, "tdma"),
        (SystemParams(min_subchannel_hz=1e6 / 32, min_slot_s=1.0 / 32,
                      ref_snr=0.02), 300.0, "tdma"),
        (SystemParams(min_subchannel_hz=1e6 / 48, min_slot_s=1.0 / 48,
                      ref_snr=0.2, pathloss_exp=3.0), 120.0, "fdma"),
        (SystemParams(min_subchannel_hz=1e6 / 64, min_slot_s=1.0 / 64), 0.0, "fdma"),
    ]
    grid = np.linspace(0.0, 1.0, 1001)
    ok = True
    details = []
    for params, lam, scheme in instances:
        traffic = TrafficModel(lam)
        design = optimize_design(scheme, params, traffic)
        best = (1, 0.0, -1.0)
        for n in range(1, max_partitions(scheme, params) + 1):
            for p in grid:
                s = uncoordinated_throughput(
                    UncoordinatedDesign(scheme, float(p), n), params,
                    traffic).expected_success
                if s > best[2]:
                    best = (n, float(p), s)
        achieved = uncoordinated_throughput(design, params, traffic).expected_success
        same = (design.partitions == best[0]
                and abs(design.access_prob - best[1]) <= 1e-3 + 1e-12
                and achieved >= best[2] - 1e-12)
        ok &= same
        details.append(f"{scheme}@{lam:g}:N={design.partitions}")

    # stationary-point check at 1000 partitions under saturating load
    reference = SystemParams()
    design = optimize_design("fdma", reference, TrafficModel(20000.0))
    steered = design.access_prob * 20000.0 * transmit_probability(design, reference)
    stationary_ok = (design.partitions == 1000
                     and abs(steered - ALOHA_PEAK_LOAD_1000) <= 1e-3 * ALOHA_PEAK_LOAD_1000)
    report(9, ok and stationary_ok,
           f"optimizer equals exhaustive grid search on {len(instances)} "
           f"instances ({', '.join(details)}); steered load {steered:.4f} vs "
           f"stationary point {ALOHA_PEAK_LOAD_1000:.4f} within 0.1%")
