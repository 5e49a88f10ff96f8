"""
System model shared by every multiple-access scheme.

Single cell, devices uniformly distributed over a disc around the base
station, distances normalized to the cell radius. Channel model is pure
path loss (no shadowing, no small-scale fading):

    gain = (r/R)^(-pathloss_exp)   >= 1 inside the cell

Traffic is Poisson with ``arrival_rate`` packets per second, observed over
one slot. All transmit powers are fractions of the device's maximum power,
so received SNR at the base station is

    snr = power_fraction * bandwidth_ratio * ref_snr * gain

with ``ref_snr`` the SNR of a cell-edge device at full power over the full
band, and ``bandwidth_ratio`` the total bandwidth over the occupied one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cache
from itertools import islice

import numpy as np

# The digest's SHA-256 from CPython's own module: hashlib would map OpenSSL,
# ~3.6 MB resident, into every process for one 12-digit fingerprint.
try:
    from _sha2 import sha256   # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256   # Python 3.10-3.11
    except ImportError:   # a build without the built-in hashes
        from hashlib import sha256

FDMA = "fdma"
TDMA = "tdma"
NOMA = "noma"
SCHEMES = (FDMA, TDMA, NOMA)

COORDINATED = "coordinated"
UNCOORDINATED = "uncoordinated"
FAMILIES = (COORDINATED, UNCOORDINATED)


class Infeasible(ValueError):
    """No resource assignment can satisfy the request."""


@dataclass(frozen=True)
class SystemParams:
    """Radio-resource and physics constants for one resource block."""

    bandwidth_hz: float = 1e6        # W, total uplink bandwidth
    slot_s: float = 1.0              # slot duration
    payload_bits: float = 1000.0     # packet size L
    ref_snr: float = 1.0             # linear; cell-edge, full power, full band
    pathloss_exp: float = 4.0        # must be > 2 for finite gain moments
    min_slot_s: float = 1e-3         # smallest usable TDMA sub-slot
    min_subchannel_hz: float = 1e3   # smallest usable FDMA subchannel

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (value > 0 and np.isfinite(value)):
                raise ValueError(f"{f.name} must be finite and > 0, got {value!r}")
        if self.min_slot_s > self.slot_s:
            raise ValueError("min_slot_s exceeds slot_s")
        if self.min_subchannel_hz > self.bandwidth_hz:
            raise ValueError("min_subchannel_hz exceeds bandwidth_hz")
        if self.pathloss_exp <= 2:
            raise ValueError("pathloss_exp must be > 2 (finite gain moments)")
        if not self.bandwidth_hz * self.slot_s > 0 or self.spectral_load >= 1024:
            raise ValueError("payload_bits / (bandwidth_hz * slot_s) must be < 1024, "
                             "or the SNR floor 2**(that ratio) - 1 is not finite")
        if not self.snr_floor > 0:
            raise ValueError("payload_bits / (bandwidth_hz * slot_s) is too small: "
                             "the SNR floor 2**(that ratio) - 1 rounds to 0")

    @property
    def spectral_load(self) -> float:
        """Bits per second per Hz a packet needs from one full resource block."""
        return self.payload_bits / (self.bandwidth_hz * self.slot_s)

    @property
    def snr_floor(self) -> float:
        """Received SNR at which one device alone exactly delivers its packet
        over the full band in one slot: 2**spectral_load - 1."""
        return 2.0 ** self.spectral_load - 1.0

    def digest(self) -> str:
        """Short stable fingerprint of the parameter set, echoed in outputs."""
        canon = ",".join(repr(getattr(self, f.name)) for f in fields(self))
        return sha256(canon.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class TrafficModel:
    """Poisson uplink load."""

    arrival_rate: float   # packets per second

    def __post_init__(self):
        if not (self.arrival_rate >= 0 and np.isfinite(self.arrival_rate)):
            raise ValueError(f"arrival_rate must be finite and >= 0, got {self.arrival_rate!r}")


# Devices in StrongestFirst's first chunk; each later chunk doubles. Chunk
# sources hand the admission kernels slices of this size, so every chunk
# splits into whole slices.
FIRST_CHUNK = 2048


@dataclass(frozen=True, eq=False)
class DeviceSet:
    """A realized contending population as channel gains, strongest first."""

    gains: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gains, dtype=float)
        object.__setattr__(self, "gains", g)
        if g.ndim != 1:
            raise ValueError("gains must be a 1-D array")
        # compared, not subtracted: inf - inf would be NaN with a warning
        if g.size and (np.any(g[1:] > g[:-1]) or g[-1] < 1.0):
            raise ValueError("gains must be sorted descending with every entry >= 1")

    def __len__(self) -> int:
        return int(self.gains.size)

    def top(self, count: int) -> "DeviceSet":
        """The ``count`` strongest devices."""
        return DeviceSet(self.gains[:count])

    def gain_chunks(self):
        """The gains in slices of FIRST_CHUNK, the form the admission kernels
        read."""
        for start in range(0, self.gains.size, FIRST_CHUNK):
            yield self.gains[start:start + FIRST_CHUNK]

    def log2_gain_chunks(self):
        """log2 of the gains, a slice at a time as read."""
        for gains in self.gain_chunks():
            yield np.log2(gains)

    def tail_log2_gain(self, last: int) -> float:
        """log2 of device ``last``'s gain (1-based)."""
        return math.log2(self.gains[last - 1])


# Smallest squared distance a placement takes: that of 1 - random(), so a zero
# spacing gives the strongest gain a placement can have rather than inf.
_NEAREST = 2.0 ** -53


class StrongestFirst:
    """Gains of ``count`` devices placed uniformly in the cell, drawn strongest
    first in chunks of FIRST_CHUNK, twice that, ... devices as a reader asks
    for them, so a reader that stops early never draws the rest. A chunk is
    drawn when a reader needs it, then scaled when it is read, in slices of
    FIRST_CHUNK, each mapped to gains (or log2 gains) only when read.

    The squared normalized distances v = (r/R)**2 are uniform on (0, 1], and
    their order statistics are v_(i) = S_i / S_(n+1), S the running sums of
    n + 1 standard exponentials (Devroye 1986, ch. V). A chunk of k after the
    first ``done`` devices draws k exponentials and one Gamma(n + 1 - done - k)
    for the rest of the sum, rescaled to the gap still left above v_(done) (a
    Dirichlet split), so every prefix has exactly the law of the n uniform
    placements sorted nearest first. Gains are v**(-pathloss_exp / 2), up to
    rounding at most 2**(26.5 pathloss_exp) as v >= _NEAREST; from
    pathloss_exp 2046 / 53 on, the strongest can overflow to inf, which the
    kernels take as a device needing no resource.

    Chunks draw from ``rng`` as they are read, so where ``rng`` ends depends
    on how far the reader read: read each instance once, and give each its
    own generator (the engine keys one per slot).
    """

    def __init__(self, count: int, pathloss_exp: float, rng: np.random.Generator):
        if count < 0:
            raise ValueError("count must be >= 0")
        self.count = count
        self._half_exp = 0.5 * pathloss_exp
        self._may_overflow = 26.5 * pathloss_exp >= 1023   # decided once
        self._rng = rng
        self._drawn, self._size = 0, FIRST_CHUNK   # devices drawn, next chunk
        # devices read, v_(i) below the newest chunk and the gap above it
        self._read, self._below, self._gap = 0, 0.0, 1.0
        self._chunk = self._rest = None   # exponentials and rest; v once scaled

    def __len__(self) -> int:
        return self.count

    def _draw(self):
        """The next chunk's exponentials and rest Gamma, not yet scaled."""
        size = min(self._size, self.count - self._drawn)
        self._drawn, self._size = self._drawn + size, 2 * size
        self._chunk = self._rng.standard_exponential(size)
        self._rest = self._rng.standard_gamma(self.count + 1 - self._drawn)

    def _placements(self):
        """The ascending v_(i), a chunk scaled as its first slice is read, in
        FIRST_CHUNK slices."""
        while self._read < self.count:
            if self._read == self._drawn:
                self._draw()
            v = self._chunk
            if self._rest is not None:
                v.cumsum(out=v)
                scale = self._gap / (v[-1] + self._rest)
                v *= scale
                v += self._below
                self._below, self._gap, self._rest = v[-1], scale * self._rest, None
                # v ascends, so only its ends can leave [_NEAREST, 1]
                if v[0] < _NEAREST:
                    np.maximum(v, _NEAREST, out=v)
                if v[-1] > 1.0:
                    np.minimum(v, 1.0, out=v)
            start = self._read - (self._drawn - v.size)
            part = v[start:start + FIRST_CHUNK]
            self._read += part.size
            yield part

    # Both map each slice in place: a suspended reader holds one chunk.
    def gain_chunks(self):
        for v in self._placements():
            if self._may_overflow:   # an inf gain is expected: no warning
                with np.errstate(over="ignore"):
                    np.power(v, -self._half_exp, out=v)
            else:
                np.power(v, -self._half_exp, out=v)
            yield v

    def log2_gain_chunks(self):
        """log2 of the gains, -(pathloss_exp / 2) * log2(v): no power taken."""
        for v in self._placements():
            np.log2(v, out=v)
            v *= -self._half_exp
            yield v

    def tail_log2_gain(self, last: int) -> float | None:
        """The log2 gain (as log2_gain_chunks maps it) of a placement V no
        nearer than any unread device up to device ``last`` (1-based), or
        None past the chunk of the next unread device, drawn here if due.
        Unread devices lie in the newest chunk: scaled, V = v_(last).
        Unscaled, every float sum of its first j of k exponentials (the
        cumsum C_j, a pairwise P_j) is within 1 +- g of the exact one, g =
        (k - 1) u / (1 - (k - 1) u), u = 2**-53 (Higham 2002, sec. 4.2), so
        fl(fl(C_j scale) + below), scale = fl(gap / fl(C_k + rest)), is at
        most (P_j gap / D + below)(1 + g)**2 (1 + u)**4 / ((1 - g)**2 (1 - u))
        for D = fl(P_k + rest): the factor 1 + (k + 8) 2**-50 covers that
        and V's own four roundings for k < 2**40, and the clamps keep order."""
        if self._read == self._drawn < self.count:
            self._draw()
        if last > self._drawn:
            return None
        j = last - (self._drawn - self._chunk.size)   # 1-based, in the chunk
        if self._rest is None:
            v = self._chunk[j - 1]
        else:
            head, tail = self._chunk[:j].sum(), self._chunk[j:].sum()
            v = (head * self._gap / (head + tail + self._rest) + self._below) * (
                1.0 + (self._chunk.size + 8) * 2.0 ** -50)
            v = min(max(v, _NEAREST), 1.0)
        return math.log2(v) * -self._half_exp


def channel_gain(normalized_distance, pathloss_exp: float):
    """Path-loss gain u**(-pathloss_exp) of a device at distance u = r/R.

    Accepts scalars or arrays; u must lie in (0, 1] (inside the cell).
    """
    u = np.asarray(normalized_distance, dtype=float)
    if pathloss_exp <= 0:
        raise ValueError("pathloss_exp must be > 0")
    if np.any(u <= 0) or np.any(u > 1):
        raise ValueError("normalized distance must lie in (0, 1]")
    with np.errstate(over="ignore"):   # a gain past the float range is inf
        out = u ** (-pathloss_exp)
    return out if out.ndim else float(out)


def sample_placement(count: int, rng: np.random.Generator) -> np.ndarray:
    """Normalized distances of ``count`` devices dropped uniformly in the cell.

    Uniform placement over the disc puts density 2u on the normalized
    distance u, i.e. CDF u**2, so u = sqrt(v) for v uniform.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    # 1 - random() lies in (0, 1]: keeps distances strictly positive.
    return np.sqrt(1.0 - rng.random(count))


def sample_arrivals(traffic: TrafficModel, slot_s: float, rng: np.random.Generator,
                    size: int) -> np.ndarray:
    """Devices with a packet in each of ``size`` independent slots: an int64
    array of Poisson(arrival_rate * slot_s) draws."""
    return rng.poisson(traffic.arrival_rate * slot_s, size=size)


def make_device_set(count: int, params: SystemParams, rng: np.random.Generator) -> DeviceSet:
    """The gains of ``count`` devices placed uniformly in the cell, strongest
    first: one StrongestFirst, the engine's sampler, read in full."""
    return DeviceSet(np.concatenate([np.empty(0), *StrongestFirst(
        count, params.pathloss_exp, rng).gain_chunks()]))


# Keys hashed at a time by trial_rngs, so its memory does not grow with trials.
KEY_BATCH = 1024


def _seed_words(keys: np.ndarray) -> np.ndarray:
    """SeedSequence(key).generate_state(4, np.uint64) for every row of
    ``keys`` (uint32 key words) at once: numpy's hash (bit_generator.pyx),
    its pool of 4 words as 4 columns."""
    hash_const = 0x43B0D7E5

    def hashmix(value, count, multiplier=0x931E8875):   # by the next ``count`` constants
        nonlocal hash_const
        consts = [hash_const]
        for _ in range(count):
            consts.append(consts[-1] * multiplier & 0xFFFFFFFF)
        hash_const = consts[-1]
        value = (value ^ np.array(consts[:-1], np.uint32)) * np.array(consts[1:], np.uint32)
        return value ^ value >> 16

    def mix(x, y):
        x = x * 0xCA01F9DD - y * 0x4973F715
        return x ^ x >> 16

    rows, width = keys.shape
    pool = np.zeros((rows, 4), np.uint32)   # a short key: zero words
    pool[:, :width] = keys[:, :4]
    pool = hashmix(pool, 4)
    for word in range(4):   # into each other word, as the pool stands
        others = [other for other in range(4) if other != word]
        pool[:, others] = mix(pool[:, others], hashmix(pool[:, word, None], 3))
    for word in range(4, width):   # each word past the pool into every pool word
        pool = mix(pool, hashmix(keys[:, word, None], 4))
    hash_const = 0x8B51F9DD
    state = hashmix(np.concatenate([pool, pool], axis=1), 8, 0x58F38DED)
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


@cache
def _generator():
    """Generator(PCG64) of a row of _seed_words, which PCG64 seeds itself from
    as from a SeedSequence. Built on first use: numpy.random loads OpenSSL."""
    from numpy.random import PCG64, Generator, bit_generator

    class Words(bit_generator.ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):   # (4, np.uint64)
            return self.words

    return lambda words: Generator(PCG64(Words(words)))


def trial_rngs(keys):
    """trial_rng(*key) for each key of ``keys`` (tuples of one width) in turn:
    KEY_BATCH keys hashed at a time, each generator made as it is asked for."""
    keys = iter(keys)
    while batch := list(islice(keys, KEY_BATCH)):
        if min(map(min, batch)) < 0 or max(map(max, batch)) >= 1 << 32:
            key = next(key for key in batch if min(key) < 0 or max(key) >= 1 << 32)
            raise ValueError(f"substream keys must lie in [0, 2**32), got {key}")
        yield from map(_generator(), _seed_words(np.array(batch, np.uint32)))


def trial_rng(master_seed: int, *indices: int) -> np.random.Generator:
    """Independent, reproducible generator for one substream.

    Substreams are keyed on (master_seed, *indices), e.g. (master_seed,
    point, block) in the Monte Carlo engine, so they can run in any order or
    concurrently and still draw identical values. The generator is exactly
    Generator(PCG64(SeedSequence(key))), with SeedSequence's hash run on
    numpy arrays (_seed_words), over many keys at once in trial_rngs. The
    hash pads a key to its pool of 4 words with zeros, so trailing zero
    indices leave the stream unchanged up to 4 words, but not past them.
    SeedSequence would split a key of 2**32 or more into 32-bit words, which
    would alias another key tuple, so every key must lie in [0, 2**32).
    """
    return next(trial_rngs([(master_seed, *indices)]))
