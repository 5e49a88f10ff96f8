"""
Full-CSI resource allocation for one slot.

Given the realized channel gains, each scheme admits as many devices as the
slot supports: FDMA hands every device the smallest subchannel that carries
its packet, TDMA the smallest time share, and superposition (NOMA) stacks
all devices on the full band with the minimal power staircase that keeps
every successive-cancellation stage decodable. Devices are admitted
strongest gain first, since weaker devices always need more resource.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import FDMA, NOMA, TDMA, DeviceSet, Infeasible, SystemParams

_LN2 = math.log(2.0)

# Subchannel widths are exact only to their last float, and long cumulative
# sums accumulate rounding; compare against the budget with this relative
# slack so exactly-filling allocations are admitted.
_BUDGET_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class CoordinatedAllocation:
    """Per-device resource assignment for the admitted prefix."""

    scheme: str             # fdma | tdma | noma
    admitted: int
    gains: np.ndarray       # admitted devices, strongest first
    resources: np.ndarray   # Hz (fdma), seconds (tdma), power fraction (noma)

    @property
    def per_device(self) -> list[tuple[float, float]]:
        return list(zip(self.gains.tolist(), self.resources.tolist()))


def _deliverable_bits_limit(gains: np.ndarray, params: SystemParams) -> np.ndarray:
    """Bits deliverable in one slot as the subchannel grows without bound:
    slot_s * ref_snr * bandwidth_hz * gain / ln 2."""
    return params.slot_s * params.ref_snr * params.bandwidth_hz * gains / _LN2


def min_bandwidth_array(gains: np.ndarray, params: SystemParams) -> np.ndarray:
    """Smallest subchannel (Hz) carrying one packet for each gain.

    Solves  payload = w * slot_s * log2(1 + a / w),  a = ref_snr * W * gain, in
    closed form: with k = payload / capacity limit and t = ln(1 + a / w) it
    reads t = k (e^t - 1), whose nonzero root is t = ln(-W_{-1}(-k e^{-k}) / k)
    (Lambert W; Corless et al., 1996), and w = a k / t. Newton steps evaluate
    t, then a walk of at most 64 steps returns the smallest width whose
    shortfall is >= 0 while one float below falls short; past 90% of the
    limit the shortfall is flat over ~1 / (1 - k) floats and the width is the
    root to ~1e-16 / (1 - k). Lanes with k >= 1, and lanes whose walk ends
    still short (payloads within rounding of the limit), come back as inf.
    """
    g = np.asarray(gains, dtype=float)
    out = np.full(g.shape, np.inf)
    limit = _deliverable_bits_limit(g, params)
    feasible = params.payload_bits < limit
    if not feasible.any():
        return out
    power_term = params.ref_snr * params.bandwidth_hz * g[feasible]

    def shortfall(w):
        return w * params.slot_s * np.log1p(power_term / w) / _LN2 - params.payload_bits

    # Seed right of the root and of the maximum of the concave t - k (e^t - 1)
    # at t = peak, so Newton falls onto the root; c >= gap^2/2 beats cancellation.
    k = params.payload_bits / limit[feasible]
    gap = 1.0 - k
    peak = -np.log(k)
    c = np.maximum(peak - gap, 0.5 * gap * gap)
    t = peak + np.log1p(np.sqrt(2.0 * c) + c)
    for _ in range(4):
        grown = np.expm1(t)
        t -= (t - k * grown) / (gap - k * grown)
    w = power_term * k / t
    stride = np.spacing(w)   # falling short: gallop up; else step down to the edge
    for _ in range(64):
        below = np.nextafter(w, 0.0)
        short = shortfall(w) < 0
        spare = shortfall(below) >= 0
        if not (short.any() or spare.any()):
            break
        w = np.where(short, w + stride, np.where(spare, below, w))
        stride = np.where(short, 2.0 * stride, stride)
    out[feasible] = np.where(short, np.inf, w)
    return out


def fdma_min_bandwidth(gain: float, params: SystemParams) -> float:
    """Smallest subchannel (Hz) over which one device delivers its packet.

    Raises Infeasible when even an unbounded subchannel cannot carry the
    payload (the capacity limit slot_s * ref_snr * W * gain / ln 2 is below
    the packet size).
    """
    if gain < 1.0:
        raise ValueError("gain must be >= 1 (device inside the cell)")
    w = float(min_bandwidth_array(np.array([gain]), params)[0])
    if not np.isfinite(w):
        raise Infeasible(f"payload {params.payload_bits} bits is not deliverable under "
                         f"the capacity limit {_deliverable_bits_limit(gain, params):.6g} bits")
    return w


def tdma_min_time(gain: float, params: SystemParams) -> float:
    """Smallest time share (s) for one device at full power on the full band:
    payload / (W * log2(1 + ref_snr * gain))."""
    snr = params.ref_snr * gain
    if snr <= 0:
        raise ValueError("ref_snr * gain must be > 0")
    return params.payload_bits * _LN2 / (params.bandwidth_hz * math.log1p(snr))


def _min_time_array(gains: np.ndarray, params: SystemParams) -> np.ndarray:
    return params.payload_bits * _LN2 / (
        params.bandwidth_hz * np.log1p(params.ref_snr * np.asarray(gains, dtype=float)))


def _greedy_admit(gains: np.ndarray, params: SystemParams, budget: float,
                  minimum: float, per_device, chunk: int = 4096):
    """Admit strongest-first while the running resource sum fits the budget.

    ``per_device`` maps a gain chunk to its resource demand (nondecreasing as
    gains fall, so the first device that does not fit ends the admission).
    Demands below ``minimum`` are padded up to it. Returns (count, resources).
    """
    taken = []
    used = 0.0
    limit = budget * (1.0 + _BUDGET_TOL)
    count = 0
    for start in range(0, gains.size, chunk):
        demand = per_device(gains[start:start + chunk], params)
        if minimum > 0.0:
            demand = np.maximum(demand, minimum)
        running = used + np.cumsum(demand)
        fit = int(np.searchsorted(running, limit, side="right"))
        if fit:
            taken.append(demand[:fit])
            count += fit
        if fit < demand.size:
            break
        used = float(running[-1])
    resources = np.concatenate(taken) if taken else np.empty(0)
    return count, resources


def fdma_kmax(devices: DeviceSet, params: SystemParams,
              enforce_minimum: bool = False) -> CoordinatedAllocation:
    """Largest device prefix whose minimal subchannels fit in the band.

    With enforce_minimum, every subchannel is padded up to
    min_subchannel_hz, which also caps the count at
    bandwidth_hz / min_subchannel_hz."""
    minimum = params.min_subchannel_hz if enforce_minimum else 0.0
    count, resources = _greedy_admit(
        devices.gains, params, params.bandwidth_hz, minimum, min_bandwidth_array)
    return CoordinatedAllocation(FDMA, count, devices.gains[:count], resources)


def tdma_kmax(devices: DeviceSet, params: SystemParams,
              enforce_minimum: bool = False) -> CoordinatedAllocation:
    """Largest device prefix whose minimal time shares fit in the slot."""
    minimum = params.min_slot_s if enforce_minimum else 0.0
    count, resources = _greedy_admit(
        devices.gains, params, params.slot_s, minimum, _min_time_array)
    return CoordinatedAllocation(TDMA, count, devices.gains[:count], resources)


def noma_power_allocation(devices: DeviceSet, params: SystemParams) -> np.ndarray:
    """Minimal power fractions for all devices of the set under successive
    cancellation, decoded strongest first.

    Working backwards from the last-decoded device, every stage must clear
    the single-packet SNR floor over the interference of the stages after
    it, which gives

        power_i = 2**((K - i) * spectral_load) * snr_floor / (ref_snr * gain_i)

    Values above 1 mean the stack is not realizable; the caller judges.
    """
    k = len(devices)
    if k < 1:
        raise ValueError("power allocation needs at least one device")
    stage = np.arange(k, 0, -1) - 1   # K - i for i = 1..K
    return (2.0 ** (stage * params.spectral_load)) * params.snr_floor / (
        params.ref_snr * devices.gains)


def noma_admitted_count(gains: np.ndarray, params: SystemParams) -> int:
    """Largest prefix length with a realizable power stack (all fractions <= 1).

    Feasibility is monotone (each extra device scales every earlier power by
    2**spectral_load), so grow the prefix while the tightest per-device bound

        K <= i + log2(ref_snr * gain_i / snr_floor) / spectral_load

    still holds.
    """
    g = np.asarray(gains, dtype=float)
    if g.size == 0:
        return 0
    load = params.spectral_load
    largest_stack = np.arange(1, g.size + 1) + np.log2(
        params.ref_snr * g / params.snr_floor) / load
    tightest = np.minimum.accumulate(largest_stack)
    return int(np.count_nonzero(tightest >= np.arange(1, g.size + 1)))


def noma_kmax(devices: DeviceSet, params: SystemParams) -> CoordinatedAllocation:
    """Largest device prefix the superposition scheme can serve at once."""
    count = noma_admitted_count(devices.gains, params)
    admitted = devices.top(count)
    powers = noma_power_allocation(admitted, params) if count else np.empty(0)
    return CoordinatedAllocation(NOMA, count, admitted.gains, powers)
