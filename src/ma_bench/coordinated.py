"""
Full-CSI resource allocation for one slot.

Given the realized channel gains, each scheme admits as many devices as the
slot supports: FDMA hands every device the smallest subchannel that carries
its packet, TDMA the smallest time share, and superposition (NOMA) stacks
all devices on the full band with the minimal power staircase that keeps
every successive-cancellation stage decodable. Devices are admitted
strongest gain first, since weaker devices always need more resource, and
each kernel stops at the first device that does not fit, or as soon as no
unread device can change the count: every gain is >= 1, so a cell-edge
device needs the most. The kernels read gains through a source's reader()
(a DeviceSet's, or a StrongestFirst's, drawn as read), so a chunked source
computes gains only as far as the kernel reads. NOMA asks for FIRST_CHUNK
devices a read; FDMA and TDMA size each read to end near the budget
crossing (_scan). The size is only a heuristic: no count depends on where
reads split, and a source draws the same chunks for any size up to where
the reader stops, so no count or output byte depends on it.

The FDMA and TDMA counts are those of one sequential sum of the exact
demands (min_bandwidth_array's walked widths, the closed-form time shares),
which fdma_kmax and tdma_kmax also allocate. One scan certifies that count
from cheaper work first: FDMA widths from Newton steps alone, each
bracketed to a proven relative error, and pairwise sums, inside a proven
rounding enclosure of the exact sum. Where the enclosure cannot decide a
count, the same scan at zero slack is the exact sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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
        grown *= k
        t -= (t - grown) / (gap - grown)
    return t


def _overflow_widths(gains: np.ndarray, params: SystemParams) -> np.ndarray:
    """Widths for gains whose limit, power term or e^t overflows, from logs:
    t solves log((e^t - 1) / t) = c = log(limit / payload), a sum of logs,
    and w = payload ln 2 / (slot_s t). The left side, a uniform variable's
    cumulant function, is convex, increasing and >= t / 2, so Newton steps
    from t = 2c descend onto the root until no lane moves. c <= 0 is inf; an
    inf gain (its power overflowed) keeps t = inf and is width 0."""
    c = np.log(gains) + sum(map(math.log, (params.slot_s, params.ref_snr, params.bandwidth_hz))
                            ) - math.log(params.payload_bits * _LN2)
    t = np.where(c > 0.0, 2.0 * c, np.nan)   # NaN lanes never move
    with np.errstate(invalid="ignore"):   # t = inf steps to NaN (inf - inf): never moves
        while True:
            tail = -np.expm1(-t)
            lower = t - (t + np.log(tail) - np.log(t) - c) / (1.0 / tail - 1.0 / t)
            if not (lower < t).any():
                break
            t = np.fmin(lower, t)
    return np.nan_to_num(params.payload_bits * _LN2 / params.slot_s / t, nan=np.inf)


def _shortfall(w: np.ndarray, term: np.ndarray, params: SystemParams) -> np.ndarray:
    """Bits a subchannel of width w delivers short of the payload (< 0: short)."""
    return w * params.slot_s * np.log1p(term / w) / _LN2 - params.payload_bits


def _newton_widths(gains: np.ndarray, params: SystemParams):
    """Widths where min_bandwidth_array starts its walk, the indices of the
    lanes it walks and their power terms. Lanes with k >= 1 are inf; lanes
    whose limit, power term or e^t overflows are solved in logs
    (_overflow_widths) and not walked."""
    g = np.asarray(gains, dtype=float)
    w = np.full(g.shape, np.inf)
    # Overflowing lanes are expected here and solved in logs: no warnings.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        limit = _deliverable_bits_limit(g, params)
        lane = np.flatnonzero(params.payload_bits < limit)
        term = params.ref_snr * params.bandwidth_hz * g[lane]
        k = params.payload_bits / limit[lane]
        start = term * k / _log_growth_root(k)
    lost = ~np.isfinite(start)   # the limit, the power term or e^t overflowed
    if lost.any():
        w[lane[lost]] = _overflow_widths(g[lane[lost]], params)
        lane, term, start = lane[~lost], term[~lost], start[~lost]
    w[lane] = start
    return w, lane, term


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
    logs instead (_overflow_widths), without the walk. These are the exact
    widths: fdma_kmax allocates them, and FDMA admission falls back to them
    whenever its certified sum cannot decide a count (_admitted_count).
    """
    w, lane, term = _newton_widths(gains, params)
    at = w[lane]
    # Falling short: gallop up; else step down to the edge. A lane neither
    # short nor spare keeps its width, so each pass walks only the lanes
    # that moved on the pass before: their indices, widths, power terms
    # and strides.
    stride = np.spacing(at)
    for _ in range(64):
        below = np.nextafter(at, 0.0)
        short = _shortfall(at, term, params) < 0
        spare = _shortfall(below, term, params) >= 0
        at = np.where(short, at + stride, np.where(spare, below, at))
        w[lane] = at
        keep = np.flatnonzero(short | spare)
        lane, at, term, short = lane[keep], at[keep], term[keep], short[keep]
        stride = np.where(short, 2.0 * stride[keep], stride[keep])
        if not lane.size:
            break
    w[lane[short]] = np.inf   # still short after the last pass
    return w


# Bracket of a Newton width: its walk gallops up by 1, 2, 4, ... strides of
# one ulp, so six gallop steps end at w0 + 63 ulp.
_GALLOP = 63 * 2.0 ** -52
_EXPONENT = np.int64(0x7FF0000000000000)
# Relative error of a bracketed width against the walked one (see below).
_WIDTH_ERROR = 2.0 ** -45


def _bracketed_widths(gains: np.ndarray, params: SystemParams) -> np.ndarray:
    """min_bandwidth_array's widths to within a relative _WIDTH_ERROR: the
    Newton widths w0 the walk starts from, without the walk, where a bracket
    proves the walk ends near w0; the walked width elsewhere.

    The walk gallops up from w0 while short, by 1, 2, 4, ... strides of
    s = spacing(w0), then steps down one float at a time while the float
    below is spare. With lo = w0 (1 - 2**-46) rounded and hi = w0 + 63 s,
    shortfall(lo) < 0 <= shortfall(hi) brackets the walked width in (lo, hi]:
    the gallop stops by its sixth step, which lands on hi as long as
    hi stays in w0's binade (every step is then exact, and hi < 2 * 2**e
    checks it), and a step down never passes the float above lo, whose
    lower neighbour lo falls short. The shortfall need not be monotone for
    this. s = 2**e * 2**-52 with 2**e = w0's exponent bits; a subnormal w0
    reads 2**e = 0 and fails the binade check. So w0 / w - 1 lies within
    (2**-46 + 2**-53) / (1 - 2**-46 - 2**-53) < 2**-45.
    """
    w, lane, term = _newton_widths(gains, params)
    w0 = w[lane]
    binade = (w0.view(np.int64) & _EXPONENT).view(float)   # 2**e
    hi = w0 + binade * _GALLOP
    sure = _shortfall(w0 * (1.0 - 2.0 ** -46), term, params) < 0
    sure &= _shortfall(hi, term, params) >= 0
    sure &= hi < binade + binade
    if not sure.all():
        walk = lane[~sure]
        w[walk] = min_bandwidth_array(np.asarray(gains, dtype=float)[walk], params)
    return w


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


def _shares(gains: np.ndarray, params: SystemParams) -> np.ndarray:
    """The time shares: payload ln 2 / (W log1p(ref_snr * gain)), in one
    new array. A step that overflows gives the right share, inf or 0."""
    shares = np.multiply(params.ref_snr, gains, dtype=float)
    np.log1p(shares, out=shares)
    shares *= params.bandwidth_hz
    return np.divide(params.payload_bits * _LN2, shares, out=shares)


def _min_time_array(gains: np.ndarray, params: SystemParams) -> np.ndarray:
    """_shares, without warnings where a step overflows to the right share."""
    with np.errstate(over="ignore", divide="ignore"):
        return _shares(gains, params)


@lru_cache(maxsize=64)
def _edge_demand(per_device, params: SystemParams, minimum: float) -> float:
    """Demand of a cell-edge device (gain 1), padded up to ``minimum``. It
    runs inside _admitted_count's errstate."""
    return max(float(per_device(np.ones(1), params)[0]), minimum)


def _edge_admits_the_rest(used: float, unread: int, edge: float, limit: float) -> bool:
    """Whether ``unread`` more devices, each needing at most ``edge``, fit
    after a running sum of at most ``used``."""
    # The solver's width may rise by an ulp as the gain grows; the factor
    # 1 + 2**-50 in edge covers it, so no unread demand exceeds edge. With
    # u = 2**-53, m more rounded additions end at most at (used + m edge)(1 +
    # u)**m <= (used + m edge)(1 + m u + (m u)**2); the test's four roundings
    # lose at most a factor (1 - u)**4, and (1 + 2 (m + 2) u)(1 - u)**4 covers
    # both for 1 <= m <= 2**52 + 14. Past that, up to POISSON_MAX < 2**63, a
    # rounded addition of d >= 0 to a float s ends at most at s + 2 d (s
    # itself lies d from s + d), so the m additions end at most at used +
    # 2 m edge, and the exact factor 2 + 32 u covers that: (2 + 32 u)(1 -
    # u)**4 > 2, m's rounding to a float included. Running sums only grow, so
    # every prefix then fits. An inf edge never passes.
    return (used + unread * edge) * (1.0 + min(unread + 2, 2 ** 52 + 16) * 2.0 ** -52) <= limit


_U = 2.0 ** -53   # unit roundoff


def _scan(n: int, read, kept: list, params: SystemParams, per_device, limit: float,
          minimum: float, edge: float, slack: float) -> int | None:
    """The count of _admitted_count over n devices from the ``per_device``
    demands of the slices in ``kept``, then of those ``read(size)`` returns,
    each appended to ``kept``, or None where a nonzero ``slack`` cannot
    decide it. A slice whose pairwise total passes ``fits`` is summed
    sequentially from the carried total. At slack 0 every slice is summed
    that way and fits = misses = limit, so the scan is the exact kernel: one
    sequential float sum across slices. Demands only grow, so after a slice
    whose last demand is d no more than (fits - total) / d devices fit, and
    the next read asks for that many plus two (the first that does not fit,
    and one for rounding), FIRST_CHUNK at most: a heuristic only, as no
    count depends on where slices split.

    Let S_k be the exact kernel's sequential float sum of the first k exact
    demands d_i, and R_k any float sum (pairwise, blocked, in any order) of
    the first k cheap demands, with |d~_i - d_i| <= error d_i where d_i is
    finite (max(., minimum) keeps the bound) and d~_i = d_i = inf elsewhere.
    A float sum of k terms >= 0 rounds each at most k - 1 times, so with
    g = n u / (1 - n u), u = 2**-53, both S_k and R_k lie within a factor
    1 +- g of their exact sums (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, sec. 4.2), and for g, error <= 2**-12
        R_k (1 - e) <= S_k <= R_k (1 + e),   e = 3 g + 2 error.
    A slice summed sequentially onto a carried R_j gives another of these
    float sums. With hi, lo = 1 +- slack, slack = e + 4 u, as floats and a
    limit in [2**-1000, 2**1000], fits = fl(limit / hi) and misses = fl(limit / lo)
    are normal, fits (1 + e) <= limit and misses (1 - e) >= limit. So R_k <=
    fits proves S_k <= limit, and R_k > misses proves S_k > limit, also
    where R_k is inf: an inf demand makes S_k inf too, and an overflowed sum
    puts S_k above 2**1023 (1 - e). S_k only grows, so the count is the k
    where the first proof ends if the second holds for k + 1. The cell-edge
    test reads the upper end, one float above fl(R_k hi) >= S_k, so it fires
    only where the exact test would fire too.
    """
    hi = 1.0 + slack
    fits, misses = limit / hi, limit / (1.0 - slack)
    total, done, size, index = 0.0, 0, FIRST_CHUNK, 0
    while done < n:
        if _edge_admits_the_rest(math.nextafter(total * hi, math.inf), n - done, edge, limit):
            return n
        if index == len(kept):
            kept.append(read(size))
        demand = per_device(kept[index], params)
        if minimum > 0.0:
            demand = np.maximum(demand, minimum)
        index, last = index + 1, demand[-1]
        after = total + np.add.reduce(demand) if slack else math.inf
        if after > fits:   # the running sums from the carried total, in place
            demand[0] += total
            demand.cumsum(out=demand)
            fit = int(demand.searchsorted(fits, side="right"))
            if fit < demand.size:
                return done + fit if demand[fit] > misses else None
            after = float(demand[-1])
        total, done = after, done + demand.size
        size = int(min(FIRST_CHUNK, (fits - total) / last + 2.0)) if last else FIRST_CHUNK
    return n


def _admitted_count(devices, params: SystemParams, budget: float, minimum: float,
                    exact, fast, error: float) -> int:
    """Strongest-first count of devices whose running resource sum fits the
    budget.

    ``exact`` maps a slice of gains to its resource demands (nondecreasing
    as gains fall, so the first device that does not fit ends the admission
    and no later slice is read). Demands below ``minimum`` are padded up to
    it. The count is that of one sequential float sum of the exact demands
    across slices, so it does not depend on where the slices split.

    One scan (_scan) decides it: first over ``fast`` demands, within a
    relative ``error`` of the exact ones, inside a proven rounding
    enclosure; where that cannot decide it, the exact kernel, the same scan
    at zero slack, sums the exact demands of the slices read so far, then
    of the rest.

    Every gain is >= 1, so no unread device needs more than the cell-edge
    demand. Once the m unread devices fit at that demand, all n do, and the
    rest is neither drawn nor solved.

    All of this runs with numpy's overflow and divide-by-zero warnings off.
    A demand or running sum that overflows, or a share whose divisor rounds
    to 0, is inf or 0, the right answer, and _scan's proof covers inf
    demands and sums. Invalid operations still warn: a NaN is a bug.
    """
    n = len(devices)
    limit = budget * (1.0 + _BUDGET_TOL)
    read, kept = devices.reader(), []
    with np.errstate(over="ignore", divide="ignore"):
        edge = _edge_demand(exact, params, minimum) * (1.0 + 2.0 ** -50)
        if n < 2 ** 40 and 2.0 ** -1000 <= limit <= 2.0 ** 1000:   # the enclosure's range
            gamma = n * _U / (1.0 - n * _U)
            count = _scan(n, read, kept, params, fast, limit, minimum, edge,
                          3.0 * gamma + 2.0 * error + 4.0 * _U)
            if count is not None:
                return count
        return _scan(n, read, kept, params, exact, limit, minimum, edge, 0.0)


def fdma_admitted_count(devices: DeviceSet | StrongestFirst, params: SystemParams,
                        enforce_minimum: bool = False) -> int:
    """Length of the longest device prefix whose minimal subchannels fit in
    the band.

    With enforce_minimum, every subchannel is padded up to
    min_subchannel_hz, which also caps the count at
    bandwidth_hz / min_subchannel_hz."""
    minimum = params.min_subchannel_hz if enforce_minimum else 0.0
    return _admitted_count(devices, params, params.bandwidth_hz, minimum,
                           min_bandwidth_array, _bracketed_widths, _WIDTH_ERROR)


def tdma_admitted_count(devices: DeviceSet | StrongestFirst, params: SystemParams,
                        enforce_minimum: bool = False) -> int:
    """Length of the longest device prefix whose minimal time shares fit in
    the slot (each padded up to min_slot_s with enforce_minimum)."""
    minimum = params.min_slot_s if enforce_minimum else 0.0
    return _admitted_count(devices, params, params.slot_s, minimum, _shares, _shares, 0.0)


def fdma_kmax(devices: DeviceSet, params: SystemParams,
              enforce_minimum: bool = False) -> CoordinatedAllocation:
    """fdma_admitted_count and the admitted devices' subchannels (Hz)."""
    count = fdma_admitted_count(devices, params, enforce_minimum)
    widths = min_bandwidth_array(devices.gains[:count], params)
    if enforce_minimum:
        widths = np.maximum(widths, params.min_subchannel_hz)
    return CoordinatedAllocation(FDMA, count, widths)


def tdma_kmax(devices: DeviceSet, params: SystemParams,
              enforce_minimum: bool = False) -> CoordinatedAllocation:
    """tdma_admitted_count and the admitted devices' time shares (s)."""
    count = tdma_admitted_count(devices, params, enforce_minimum)
    shares = _min_time_array(devices.gains[:count], params)
    if enforce_minimum:
        shares = np.maximum(shares, params.min_slot_s)
    return CoordinatedAllocation(TDMA, count, shares)


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
    lower the minimum, no further slice is read.

    Before each slice, a drawn device can prove that too. No device past
    far = floor(min(bound, bound - edge)) lowers the bound: past the bound,
    i - 1 >= bound; else i > bound - edge (a float difference rounds to no
    less than its floor below 2**53), and i + x_i >= i + edge rounds to at
    least bound. The source's tail_log2_gain t (a StrongestFirst's: of its
    exact placement V of device far) bounds every unread log2 gain up to
    far but for the error of log2, so done + 1 + max(x(t'), -1) >= bound,
    t' = fl(t (1 - 2**-43)), proves that none lowers it either.
    Proof: say np.log2 and math.log2 err by a relative e <= 2**-45 (128
    ulp; glibc and numpy's SIMD loops claim 4 at most), and u = 2**-53. Log2
    gains are >= 0, and 0 or normal. For gains g_i >= g, t = fl(log2 g):
    fl(log2 g_i) >= (1 - e) log2 g >= t (1 - e) / (1 + e) >= t'. For
    placements v_i <= V, t = fl(-h fl(log2 V)): fl(log2 v_i) <= (1 - e)
    log2 V <= fl(log2 V) (1 - e) / (1 + e) <= 0, so fl(-h fl(log2 v_i)) >=
    t (1 - e)(1 - u) / ((1 + e)(1 + u)) >= t'. The steps + offset, / load,
    max(., -1) and i + x (i exact) round correctly, so monotonically: they
    need no margin, however large |x|. An inf t may be the overflowed log of
    a finite gain: it proves nothing. The certificate draws only the chunk
    of device done + 1, as that slice would; the bound it proves is final,
    so the count is that of reading on. A ratio ref_snr / snr_floor that
    underflows to 0 is taken as a difference of logs. The bound starts as
    the int n and is compared with floats exactly, so no n is rounded.
    """
    load = params.spectral_load
    ratio = params.ref_snr / params.snr_floor
    offset = math.log2(ratio) if ratio > 0.0 else \
        math.log2(params.ref_snr) - math.log2(params.snr_floor)
    edge = offset / load
    bound, done = len(devices), 0
    read = devices.reader(log2=True)
    while bound > max(done, float(np.floor(done + 1.0 + edge))):
        tail = devices.tail_log2_gain(int(min(bound, bound - edge)))
        if tail is not None and tail < math.inf and done + 1.0 + max(
                (tail * (1.0 - 2.0 ** -43) + offset) / load, -1.0) >= bound:
            break
        stack = read(FIRST_CHUNK)   # log2 gains, made i + max(x_i, -1) in place
        stack += offset
        stack /= load
        if edge < -1.0:   # else every x_i >= edge >= -1 already
            np.maximum(stack, -1.0, out=stack)
        stack += np.arange(done + 1.0, done + stack.size + 1.0)
        # Rounding is monotone, so i + max(x_i, -1) rounds to max(i + x_i
        # rounded, i - 1), and so is floor: the least floor is the floor of
        # the least.
        bound = min(bound, float(np.floor(stack.min())))
        done += stack.size
    return int(bound)


def noma_kmax(devices: DeviceSet, params: SystemParams) -> CoordinatedAllocation:
    """Largest device prefix the superposition scheme can serve at once."""
    count = noma_admitted_count(devices, params)
    powers = noma_power_allocation(devices.top(count), params) if count else np.empty(0)
    return CoordinatedAllocation(NOMA, count, powers)
