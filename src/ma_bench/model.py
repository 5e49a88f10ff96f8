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

import hashlib
from dataclasses import dataclass, fields

import numpy as np

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
        return hashlib.sha256(canon.encode()).hexdigest()[:12]


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
        if g.size and (np.any(np.diff(g) > 0) or g[-1] < 1.0):
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

    def drain(self):
        """Nothing is drawn as it is read: nothing to drain."""


# Smallest squared distance a placement takes: that of 1 - random(), so a zero
# spacing gives the strongest gain a placement can have rather than inf.
_NEAREST = 2.0 ** -53


class StrongestFirst:
    """Gains of ``count`` devices placed uniformly in the cell, drawn strongest
    first in chunks of FIRST_CHUNK, twice that, ... devices as a reader asks
    for them, so a reader that stops early never draws the rest. A reader
    gets the chunks in slices of FIRST_CHUNK, each mapped to gains (or log2
    gains) only when read.

    The squared normalized distances v = (r/R)**2 are uniform on (0, 1], and
    their order statistics are v_(i) = S_i / S_(n+1), S the running sums of
    n + 1 standard exponentials (Devroye 1986, ch. V). A chunk of k after the
    first ``done`` devices draws k exponentials and one Gamma(n + 1 - done - k)
    for the rest of the sum, rescaled to the gap still left above v_(done) (a
    Dirichlet split), so every prefix has exactly the law of the sorted
    placement (make_device_set). Gains are v**(-pathloss_exp / 2); from
    pathloss_exp = 2046 / 53 (~38.6) on, the strongest can overflow to inf,
    which the kernels take as a device needing no resource.

    Chunks draw from ``rng`` as they are read: read each instance once.
    """

    def __init__(self, count: int, pathloss_exp: float, rng: np.random.Generator):
        if count < 0:
            raise ValueError("count must be >= 0")
        self.count = count
        self._half_exp = 0.5 * pathloss_exp
        # Decided once, not per slice: the strongest gain, 2**(53 half_exp)
        # at v = _NEAREST, is finite (below 2**1023) unless this holds.
        self._may_overflow = 53 * self._half_exp >= 1023
        self._rng = rng
        self._drawn, self._size = 0, FIRST_CHUNK   # devices drawn, next chunk

    def __len__(self) -> int:
        return self.count

    def _next_size(self) -> int:
        """Size of the next chunk; counts it as drawn."""
        done = self._drawn
        size = min(self._size, self.count - done)
        self._drawn, self._size = done + size, 2 * size
        return size

    def _placements(self):
        """The ascending v_(i), drawn a chunk at a time, in FIRST_CHUNK slices."""
        below, gap = 0.0, 1.0
        while self._drawn < self.count:
            size = self._next_size()
            v = self._rng.standard_exponential(size)
            v.cumsum(out=v)
            rest = self._rng.standard_gamma(self.count + 1 - self._drawn)
            scale = gap / (v[-1] + rest)
            v *= scale
            v += below
            below, gap = v[-1], scale * rest
            # v ascends, so only its ends can leave [_NEAREST, 1]
            if v[0] < _NEAREST:
                np.maximum(v, _NEAREST, out=v)
            if v[-1] > 1.0:
                np.minimum(v, 1.0, out=v)
            for start in range(0, size, FIRST_CHUNK):
                yield v[start:start + FIRST_CHUNK]

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

    def drain(self):
        """Make the draws of every chunk not yet drawn, without the arithmetic,
        so ``rng`` ends where reading every slice would leave it. A generator
        fills an array one value after another, so the exponentials can go
        through a FIRST_CHUNK buffer."""
        buffer = np.empty(min(FIRST_CHUNK, self.count - self._drawn))
        while self._drawn < self.count:
            size = self._next_size()
            for start in range(0, size, buffer.size):
                self._rng.standard_exponential(out=buffer[:size - start])
            self._rng.standard_gamma(self.count + 1 - self._drawn)


def channel_gain(normalized_distance, pathloss_exp: float):
    """Path-loss gain u**(-pathloss_exp) of a device at distance u = r/R.

    Accepts scalars or arrays; u must lie in (0, 1] (inside the cell).
    """
    u = np.asarray(normalized_distance, dtype=float)
    if pathloss_exp <= 0:
        raise ValueError("pathloss_exp must be > 0")
    if np.any(u <= 0) or np.any(u > 1):
        raise ValueError("normalized distance must lie in (0, 1]")
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
    """Sample ``count`` placements and return their gains sorted descending.

    All of them are placed and sorted; StrongestFirst draws the same law a
    prefix at a time."""
    u = sample_placement(count, rng)
    g = channel_gain(u, params.pathloss_exp) if count else np.empty(0)
    return DeviceSet(np.sort(np.asarray(g))[::-1])


def trial_rng(master_seed: int, *indices: int) -> np.random.Generator:
    """Independent, reproducible generator for one substream.

    Substreams are keyed on (master_seed, *indices), e.g. (master_seed,
    point, block) in the Monte Carlo engine, so they can run in any order or
    concurrently and still draw identical values. SeedSequence pads short
    keys with zeros: trailing zero indices leave the stream unchanged. It also
    splits a key of 2**32 or more into 32-bit words, which would alias another
    key tuple, so every key must lie in [0, 2**32).
    """
    key = (master_seed, *indices)
    if not all(0 <= index < 1 << 32 for index in key):
        raise ValueError(f"substream keys must lie in [0, 2**32), got {key}")
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(key)))
