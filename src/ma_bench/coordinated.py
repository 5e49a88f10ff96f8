"""
Full-CSI resource allocation for one slot.

Given the realized channel gains, each scheme admits as many devices as the
slot supports: FDMA hands every device the smallest subchannel that carries
its packet, TDMA the smallest time share, and superposition (NOMA) stacks
all devices on the full band with the minimal power staircase that keeps
every successive-cancellation stage decodable. Devices are admitted
strongest gain first, since weaker devices always need more resource, and
each kernel stops at the first device that does not fit. The kernels read
the gains in chunks (``gain_chunks()`` or ``log2_gain_chunks()`` of a
DeviceSet, one chunk, or of a StrongestFirst, drawn as read), so a chunked
source is drawn only as far as the admitted prefix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (FDMA, FIRST_CHUNK, NOMA, TDMA, DeviceSet, Infeasible,
                    StrongestFirst, SystemParams)

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
    resources: np.ndarray   # per admitted device, strongest first: Hz (fdma),
                            # seconds (tdma), power fraction (noma)


def _deliverable_bits_limit(gains: np.ndarray, params: SystemParams) -> np.ndarray:
    """Bits deliverable in one slot as the subchannel grows without bound:
    slot_s * ref_snr * bandwidth_hz * gain / ln 2."""
    return params.slot_s * params.ref_snr * params.bandwidth_hz * gains / _LN2


def _log_growth_root(k: np.ndarray) -> np.ndarray:
    """Nonzero root t of t = k (e^t - 1) for 0 < k < 1, by four Newton steps."""
    # Seed right of the root and of the maximum of the concave t - k (e^t - 1)
    # at t = peak, so Newton falls onto the root; c >= gap^2/2 beats cancellation.
    gap = 1.0 - k
    peak = -np.log(k)
    c = np.maximum(peak - gap, 0.5 * gap * gap)
    t = peak + np.log1p(np.sqrt(2.0 * c) + c)
    for _ in range(4):
        grown = np.expm1(t)
        t -= (t - k * grown) / (gap - k * grown)
    return t


def _overflow_widths(gains: np.ndarray, params: SystemParams) -> np.ndarray:
    """Widths for gains whose limit, power term or e^t overflows, from logs:
    t solves log((e^t - 1) / t) = c = log(limit / payload), a sum of logs,
    and w = payload ln 2 / (slot_s t). The left side, a uniform variable's
    cumulant function, is convex, increasing and >= t / 2, so Newton steps
    from t = 2c descend onto the root until no lane moves. c <= 0 is inf."""
    c = np.log(gains) + sum(map(math.log, (params.slot_s, params.ref_snr, params.bandwidth_hz))
                            ) - math.log(params.payload_bits * _LN2)
    t = np.where(c > 0.0, 2.0 * c, np.nan)   # NaN lanes never move
    while True:
        tail = -np.expm1(-t)
        lower = t - (t + np.log(tail) - np.log(t) - c) / (1.0 / tail - 1.0 / t)
        if not (lower < t).any():
            break
        t = np.fmin(lower, t)
    return np.nan_to_num(params.payload_bits * _LN2 / params.slot_s / t, nan=np.inf)


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
    Lanes where the limit, the power term or e^t overflows are solved in
    logs instead (_overflow_widths), without the walk.
    """
    g = np.asarray(gains, dtype=float)
    out = np.full(g.shape, np.inf)
    # Overflowing lanes are expected here and solved in logs: no warnings.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        limit = _deliverable_bits_limit(g, params)
        feasible = params.payload_bits < limit
        if not feasible.any():
            return out
        power_term = params.ref_snr * params.bandwidth_hz * g[feasible]
        k = params.payload_bits / limit[feasible]
        w = power_term * k / _log_growth_root(k)
        # Falling short: gallop up; else step down to the edge. A lane neither
        # short nor spare keeps its width, so each pass walks only the lanes
        # that moved on the pass before: their indices, widths, power terms
        # and strides.
        lane, at, term, stride = np.arange(w.size), w, power_term, np.spacing(w)
        lost = ~np.isfinite(w)   # the limit, the power term or e^t overflowed
        if lost.any():
            w[lost] = _overflow_widths(g[feasible][lost], params)
            lane = np.flatnonzero(~lost)
            at, term, stride = w[lane], power_term[lane], stride[lane]

    def shortfall(w, term):
        return w * params.slot_s * np.log1p(term / w) / _LN2 - params.payload_bits

    for _ in range(64):
        below = np.nextafter(at, 0.0)
        short = shortfall(at, term) < 0
        spare = shortfall(below, term) >= 0
        at = np.where(short, at + stride, np.where(spare, below, at))
        w[lane] = at
        keep = np.flatnonzero(short | spare)
        lane, at, term, short = lane[keep], at[keep], term[keep], short[keep]
        stride = np.where(short, 2.0 * stride[keep], stride[keep])
        if not lane.size:
            break
    w[lane[short]] = np.inf   # still short after the last pass
    out[feasible] = w
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
    if params.ref_snr * gain <= 0:
        raise ValueError("ref_snr * gain must be > 0")
    return float(_min_time_array(np.array([gain]), params)[0])


def _min_time_array(gains: np.ndarray, params: SystemParams) -> np.ndarray:
    return params.payload_bits * _LN2 / (
        params.bandwidth_hz * np.log1p(params.ref_snr * np.asarray(gains, dtype=float)))


def _greedy_admit(gain_chunks, params: SystemParams, budget: float,
                  minimum: float, per_device):
    """Admit strongest-first while the running resource sum fits the budget.

    ``per_device`` maps a gain chunk to its resource demand (nondecreasing as
    gains fall, so the first device that does not fit ends the admission and
    no later chunk is read). Demands below ``minimum`` are padded up to it.
    The running sum is one sequence of additions across chunks, so the count
    does not depend on where the chunks split. Returns the admitted devices'
    resources.
    """
    resources = []
    used = 0.0
    limit = budget * (1.0 + _BUDGET_TOL)
    # FIRST_CHUNK devices per demand evaluation bounds the FDMA solver's
    # temporaries, and the lanes it solves past the first misfit, to that many.
    parts = (chunk[start:start + FIRST_CHUNK]
             for chunk in gain_chunks for start in range(0, chunk.size, FIRST_CHUNK))
    for part in parts:
        demand = per_device(part, params)
        if minimum > 0.0:
            demand = np.maximum(demand, minimum)
        running = np.concatenate(([used], demand))
        running.cumsum(out=running)
        fit = int(running[1:].searchsorted(limit, side="right"))
        resources.append(demand[:fit])
        if fit < demand.size:
            break
        used = float(running[-1])
    return np.concatenate(resources) if resources else np.empty(0)


def fdma_kmax(devices: DeviceSet | StrongestFirst, params: SystemParams,
              enforce_minimum: bool = False) -> CoordinatedAllocation:
    """Largest device prefix whose minimal subchannels fit in the band.

    With enforce_minimum, every subchannel is padded up to
    min_subchannel_hz, which also caps the count at
    bandwidth_hz / min_subchannel_hz."""
    minimum = params.min_subchannel_hz if enforce_minimum else 0.0
    resources = _greedy_admit(
        devices.gain_chunks(), params, params.bandwidth_hz, minimum, min_bandwidth_array)
    return CoordinatedAllocation(FDMA, resources.size, resources)


def tdma_kmax(devices: DeviceSet | StrongestFirst, params: SystemParams,
              enforce_minimum: bool = False) -> CoordinatedAllocation:
    """Largest device prefix whose minimal time shares fit in the slot."""
    minimum = params.min_slot_s if enforce_minimum else 0.0
    resources = _greedy_admit(
        devices.gain_chunks(), params, params.slot_s, minimum, _min_time_array)
    return CoordinatedAllocation(TDMA, resources.size, resources)


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


def noma_admitted_count(devices: DeviceSet | StrongestFirst, params: SystemParams) -> int:
    """Largest prefix length with a realizable power stack (all fractions <= 1).

    Each extra device scales every earlier power by 2**spectral_load, so the
    i-th strongest device (1-based) caps every stack that includes it at

        K <= i + x_i,   x_i = log2(ref_snr * gain_i / snr_floor) / spectral_load,

    and the count is K* = min(n, min_i max(i - 1, floor(i + x_i))). Gains are
    >= 1, so x_i is at least its cell-edge value: once no unread device can
    lower the minimum, no further chunk is read.
    """
    load = params.spectral_load
    offset = math.log2(params.ref_snr / params.snr_floor)
    edge = offset / load
    bound, done = float(len(devices)), 0
    chunks = iter(devices.log2_gain_chunks())
    while bound > max(done, np.floor(done + 1.0 + edge)):
        log2_gains = next(chunks)
        rank = np.arange(done + 1.0, done + log2_gains.size + 1.0)
        stack = offset + log2_gains   # then in place: two arrays per chunk
        stack /= load
        stack += rank
        np.floor(stack, out=stack)
        rank -= 1.0
        bound = min(bound, float(np.maximum(rank, stack, out=stack).min()))
        done += log2_gains.size
    return int(bound)


def noma_kmax(devices: DeviceSet, params: SystemParams) -> CoordinatedAllocation:
    """Largest device prefix the superposition scheme can serve at once."""
    count = noma_admitted_count(devices, params)
    powers = noma_power_allocation(devices.top(count), params) if count else np.empty(0)
    return CoordinatedAllocation(NOMA, count, powers)
