"""
Random access without channel state at the base station.

The base station only knows the offered load. It broadcasts a design point:
an access probability and a partition count (subchannels for FDMA, sub-slots
for TDMA), or a common target received SNR for power-controlled
superposition. Devices thin themselves by the access probability, check
whether their own channel can afford the partition's rate at full power,
pick a partition uniformly at random, and collide whenever a partition
carries more than one transmitter.

The analytical model chains expected counts through the per-device transmit
probability and the collision probability; it deliberately plugs a
real-valued expected transmitter count into the collision formula, so it is
an expectation hybrid rather than an exact average (exact_mean_served and
the Monte Carlo engine in ``sim`` give the exact counterpart).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import FDMA, NOMA, SCHEMES, TDMA, Infeasible, SystemParams, TrafficModel

NOMINAL = "nominal"
REDERIVED = "rederived"
SNR_RULES = (NOMINAL, REDERIVED)

# Guard for comparisons that sit exactly on the SIC rate boundary after a
# root-finding step; affects only realizations within 1e-9 relative of it.
_RATE_TOL = 1e-9

_LN2 = math.log(2.0)

# Partition counts optimize_design evaluates per numpy pass: a pass peaks near
# 3.7 MB (~56 bytes per count) however fine the partition minima.
_PARTITION_CHUNK = 1 << 16


@dataclass(frozen=True)
class UncoordinatedDesign:
    """Broadcast design point for one random-access scheme."""

    scheme: str                    # fdma | tdma | noma
    access_prob: float = 1.0       # thinning probability in [0, 1]
    partitions: int = 1            # subchannels or sub-slots; unused for noma
    target_snr: float | None = None   # common received SNR, noma only

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not 0.0 <= self.access_prob <= 1.0:
            raise ValueError("access_prob must lie in [0, 1]")
        if self.partitions < 1:
            raise ValueError("partitions must be >= 1")
        if self.scheme == NOMA and not (self.target_snr and self.target_snr > 0):
            raise ValueError("noma design needs target_snr > 0")


@dataclass(frozen=True)
class UncoordinatedAnalysis:
    """Expected per-slot counts for one design point."""

    expected_active: float        # devices that switch their radio on
    expected_transmitting: float  # of those, devices whose power suffices
    collision_prob: float
    expected_success: float       # packets delivered per slot


def _log_gain_threshold(scheme: str, partitions, params: SystemParams):
    """Natural log of the smallest channel gain at which full power covers one
    of N = ``partitions`` equal shares, for one N or an array.

    The share needs 2**(spectral_load * N) - 1 received SNR; splitting the
    band (FDMA) concentrates the transmit power by N, splitting time (TDMA)
    does not. That SNR is e**y (1 - e**-y) with y = spectral_load * N * ln 2,
    so its log y + log(-expm1(-y)) stays finite where the power overflows.
    """
    y = params.spectral_load * partitions * _LN2
    log_need = y + np.log(-np.expm1(-y))
    if scheme == FDMA:
        return log_need - np.log(partitions * params.ref_snr)
    if scheme == TDMA:
        return log_need - math.log(params.ref_snr)
    raise ValueError(f"gain threshold undefined for scheme {scheme!r}")


def _gain_tail_probability(log_threshold, pathloss_exp: float):
    """P(gain >= threshold) under uniform placement, min(1, t**(-2/gamma)),
    from log t; elementwise over arrays."""
    return np.exp(np.minimum(0.0, (-2.0 / pathloss_exp) * log_threshold))


def transmit_probability(design: UncoordinatedDesign, params: SystemParams) -> float:
    """Probability an active device's channel affords the design at full
    power: its partition's rate (fdma, tdma) or the receive-power target
    (noma)."""
    if design.scheme == NOMA:
        return noma_feasibility_probability(design.target_snr, params)
    return float(_gain_tail_probability(
        _log_gain_threshold(design.scheme, design.partitions, params), params.pathloss_exp))


def collision_probability(expected_transmitting, partitions):
    """Probability a transmitter shares its partition with at least one other.

    1 - (1 - 1/partitions)**(expected_transmitting - 1), with the exponent
    clamped at zero: below one expected transmitter there is nobody to
    collide with. Elementwise over arrays; a float for scalars.
    """
    if np.asarray(partitions).min() < 1:
        raise ValueError("partitions must be >= 1")
    collision = _collision(1.0 - 1.0 / partitions, expected_transmitting)
    return collision if collision.ndim else float(collision)


def _collision(base, expected_transmitting):   # base = 1 - 1/partitions, unchecked
    return 1.0 - base ** (np.maximum(expected_transmitting, 1.0) - 1.0)


def noma_device_cap(params: SystemParams) -> float:
    """Most simultaneous power-controlled transmitters one slot can carry:
    1 / snr_floor."""
    return 1.0 / params.snr_floor


def noma_required_snr(expected_transmitting: float, params: SystemParams,
                      rule: str = NOMINAL) -> float:
    """Common received SNR at which the expected transmitter count still
    decodes through successive cancellation.

    The default (nominal) form is 1 / (1/snr_floor - n). The re-derived rule
    replaces n by n - 1 (the last cancellation stage sees n - 1 interferers,
    so a lone transmitter needs exactly snr_floor); both are kept because
    they disagree by one device.
    """
    if rule not in SNR_RULES:
        raise ValueError(f"unknown rule {rule!r}")
    offset = expected_transmitting if rule == NOMINAL else expected_transmitting - 1.0
    room = noma_device_cap(params) - offset
    if room <= 0.0:
        raise Infeasible(
            f"load {expected_transmitting:.6g} at or above the capacity bound "
            f"{noma_device_cap(params):.6g}")
    return 1.0 / room


def noma_feasibility_probability(target_snr: float, params: SystemParams) -> float:
    """Probability a device can afford the broadcast receive-power target:
    its power fraction target_snr / (ref_snr * gain) must not exceed 1."""
    if target_snr <= 0:
        raise ValueError("target_snr must be > 0")
    return float(_gain_tail_probability(math.log(target_snr / params.ref_snr),
                                        params.pathloss_exp))


def noma_supported(transmitting: float, target_snr: float, params: SystemParams) -> bool:
    """Whether ``transmitting`` simultaneous equal-power transmitters all
    decode: the last cancellation stage's SINR target / (1 + (n - 1) target)
    must reach snr_floor, i.e. n - 1 + 1 / target must not exceed 1 / snr_floor.
    """
    return transmitting - 1.0 + 1.0 / target_snr <= noma_device_cap(params) * (1.0 + _RATE_TOL)


def noma_design(params: SystemParams, traffic: TrafficModel,
                rule: str = NOMINAL) -> UncoordinatedDesign:
    """Power-control target for the expected load, with no access thinning.

    The target 1 / (cap - A x) serves the fraction x = min(1, (ref_snr /
    target)**(1/s)) of the A = arrival_rate * slot_s devices that can afford
    it; s = pathloss_exp / 2, cap = noma_device_cap (+1 under the rederived
    rule). x = 1 if ref_snr (cap - A) >= 1; else Newton steps from x = 1
    descend onto the root of the convex, increasing h(x) = x**s +
    ref_snr (A x - cap) until a step no longer lowers x, and the target is
    ref_snr / x**s, free of the cancellation in cap - A x. A target beyond
    the float range raises Infeasible.
    """
    if rule not in SNR_RULES:
        raise ValueError(f"unknown rule {rule!r}")
    active = traffic.arrival_rate * params.slot_s
    ref, s = params.ref_snr, 0.5 * params.pathloss_exp
    cap = noma_device_cap(params) + (0.0 if rule == NOMINAL else 1.0)
    if active == 0.0:
        target = params.snr_floor
    elif ref * (cap - active) >= 1.0:
        target = noma_required_snr(active, params, rule)
    else:
        a, b = (1.0 / ref, 1.0) if ref > 1.0 else (1.0, ref)   # h / max(1, ref_snr)
        x = 1.0 if math.isfinite(active) else 0.0   # x <= cap / A
        while True:
            lower = x - (a * x ** s + b * (active * x - cap)) / (
                a * s * x ** (s - 1.0) + b * active)
            if not 0.0 < lower < x:
                break
            x = lower
        target = ref / x ** s if x ** s else math.inf
        if target == math.inf:
            raise Infeasible(f"the SNR target at {active:.6g} active devices is "
                             "beyond the float range")
    return UncoordinatedDesign(NOMA, access_prob=1.0, partitions=1, target_snr=target)


def uncoordinated_throughput(design: UncoordinatedDesign, params: SystemParams,
                             traffic: TrafficModel) -> UncoordinatedAnalysis:
    """Expected-count analysis of one design point at the given load."""
    active = design.access_prob * traffic.arrival_rate * params.slot_s
    transmitting = active * transmit_probability(design, params)
    if design.scheme == NOMA:
        delivered = transmitting if noma_supported(
            transmitting, design.target_snr, params) else 0.0
        return UncoordinatedAnalysis(active, transmitting, 0.0, delivered)
    collision = collision_probability(transmitting, design.partitions)
    return UncoordinatedAnalysis(active, transmitting, collision,
                                 transmitting * (1.0 - collision))


def exact_mean_served(design: UncoordinatedDesign, params: SystemParams,
                      traffic: TrafficModel) -> float:
    """Mean packets a slot delivers under the laws the engine samples (where
    uncoordinated_throughput is the paper's hybrid): for Poisson(m) transmitters
    over N partitions, N singleton_probability(m / N); for NOMA, the k P(T = k)
    summed over the k noma_supported accepts, m P(Poisson(m) <= n - 1)."""
    m = uncoordinated_throughput(design, params, traffic).expected_transmitting
    if design.scheme != NOMA:
        return design.partitions * singleton_probability(m / design.partitions)
    first, pmf = poisson_law(m)
    k = np.arange(first, first + pmf.size)
    return float(np.sum(k * pmf, where=noma_supported(k, design.target_snr, params)))


def singleton_probability(mean: float) -> float:
    """mu e^-mu = P(Poisson(mu) = 1): a partition's chance to hold one transmitter."""
    return mean * math.exp(-mean)


def poisson_law(mean: float) -> tuple[int, np.ndarray]:
    """The first k whose Poisson(mean) pmf reaches the smallest normal float
    e^-l, and the pmf from there to the last such k, normalized (1.0 alone for
    a mean of 0). By the Poisson tail bounds e^(-x^2 / 2 mean) below the mean
    and e^(-x^2 / 2 (mean + x / 3)) above it, those k lie within mean -
    sqrt(2 l mean) .. mean + sqrt(2 l mean) + l."""
    if not mean:
        return 0, np.ones(1)
    reach = -math.log(np.finfo(float).tiny)   # l
    spread = math.sqrt(2.0 * reach * mean)
    k = np.arange(max(0, math.floor(mean - spread)), math.ceil(mean + spread + reach) + 1)
    log_pmf = math.log(mean) - np.log(np.maximum(k, 1))   # log p(k) - log p(k - 1)
    log_pmf[0] = k[0] * math.log(mean) - mean - math.lgamma(k[0] + 1.0)   # log p(k[0])
    inside = np.flatnonzero(np.cumsum(log_pmf, out=log_pmf) >= -reach)
    pmf = np.exp(log_pmf[inside[0]:inside[-1] + 1])
    return int(k[inside[0]]), pmf / pmf.sum()


def max_partitions(scheme: str, params: SystemParams) -> int:
    """Most partitions the smallest usable partition size allows.

    The ratio is floored with a 1e-9 relative slack so budgets that divide
    exactly in decimal (1 s / 1 ms) are not cut short by binary rounding.
    """
    if scheme == FDMA:
        ratio = params.bandwidth_hz / params.min_subchannel_hz
    elif scheme == TDMA:
        ratio = params.slot_s / params.min_slot_s
    else:
        raise ValueError(f"partitions undefined for scheme {scheme!r}")
    ratio *= 1.0 + 1e-9
    if ratio == math.inf:
        raise ValueError(f"{scheme} partition minimum too small: the partition count overflows")
    return max(1, int(ratio))


@functools.lru_cache(maxsize=2)
def _load_free_terms(scheme: str, params: SystemParams, start: int, stop: int):
    """The load-free terms of optimize_design's counts start..stop-1: p_tx,
    slotted-ALOHA peaks and 1 - 1/N, read-only, and the last log threshold."""
    n = np.arange(start, stop, dtype=float)
    with np.errstate(over="ignore"):   # N ref_snr past the float range: threshold -inf
        log_threshold = _log_gain_threshold(scheme, n, params)
    tail = _gain_tail_probability(log_threshold, params.pathloss_exp)
    peak = -1.0 / np.log1p(-1.0 / np.maximum(n, 2.0))
    if start == 1:
        peak[0] = 1.0
    base = np.subtract(1.0, np.divide(1.0, n, out=n), out=n)   # 1 - 1/N, in n's place
    tail.flags.writeable = peak.flags.writeable = base.flags.writeable = False
    return tail, peak, base, log_threshold[-1]


def optimize_design(scheme: str, params: SystemParams,
                    traffic: TrafficModel) -> UncoordinatedDesign:
    """Access probability and partition count maximizing expected successes.

    Solved in closed form for every partition count N, a fixed-size chunk of
    counts per numpy pass. With A = arrival_rate * slot_s devices active at
    full access, at most A * p_tx(N) transmit, and m (1 - 1/N)**(m - 1)
    peaks at the slotted-ALOHA load m* = -1 / log(1 - 1/N) (m* = 1 for
    N = 1). So the best access probability is 1 while A * p_tx <= m*, and
    m* / (A * p_tx) beyond it. Ties break toward fewer partitions; with
    nothing to deliver (zero load) the design is N = 1, access probability 0.
    p_tx, m* and 1 - 1/N are cached per (scheme, params, chunk), two chunks
    at most, so a sweep computes them once. The scan's vectorized numpy pow
    may differ from uncoordinated_throughput's scalar one in the last ulp.
    """
    if scheme not in (FDMA, TDMA):
        raise ValueError("optimize_design covers fdma and tdma only")
    top, active = max_partitions(scheme, params), traffic.arrival_rate * params.slot_s
    best, best_success, best_feasible, best_peak = 1, -math.inf, 0.0, 1.0
    for start in range(1, top + 1, _PARTITION_CHUNK):
        stop = min(start + _PARTITION_CHUNK, top + 1)
        tail, peak, base, last_log_threshold = _load_free_terms(scheme, params, start, stop)
        feasible = active * tail
        load = np.minimum(feasible, peak)
        success = load * (1.0 - _collision(base, load))
        i = int(np.argmax(success))
        if success[i] > best_success:   # first maximum over all chunks
            best, best_success = start + i, float(success[i])
            best_feasible, best_peak = float(feasible[i]), float(peak[i])
        # The gain threshold is nondecreasing in N: (2**(sN) - 1) / N (FDMA)
        # has slope of the sign of e**x (x - 1) + 1 >= 0 (x = sN ln 2), and
        # 2**(sN) - 1 (TDMA) increases. So once the feasible load is 0, no
        # larger count beats the first maximum kept (>= 0). A larger count's
        # log threshold may round a few ulps of its terms (y, log(N ref_snr))
        # below this one's, so the load must be 0 at half this log, too.
        if feasible[-1] == 0.0 and active * _gain_tail_probability(
                0.5 * last_log_threshold, params.pathloss_exp) == 0.0:
            break
    if not best_success > 0.0:
        return UncoordinatedDesign(scheme, access_prob=0.0, partitions=1)
    access = 1.0 if best_feasible <= best_peak else best_peak / best_feasible
    design = UncoordinatedDesign(scheme, access_prob=access, partitions=best)
    # A lone partition delivers nothing above one transmitter, so the load
    # uncoordinated_throughput computes from this design must not round past it.
    while best == 1 and uncoordinated_throughput(
            design, params, traffic).expected_transmitting > 1.0:
        design = UncoordinatedDesign(scheme, math.nextafter(design.access_prob, 0.0), 1)
    return design
