"""Abstract storage devices: a finite state set plus a family of read partitions.

A device stores its partition family deduplicated and sorted by canonical
label tuple, so structurally equal devices compare equal regardless of the
order their partitions were supplied in.  Names are carried for display only
and are ignored by equality.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import chain, combinations, product as iproduct, repeat
from typing import Iterable

from . import config
from .errors import (
    EmptyPartitionSet,
    EmptyStateSpace,
    GroundMismatch,
    LimitExceeded,
    PreconditionMismatch,
)
from .partitions import GroundSet, Partition, _dense, product_ground

_GOLDEN_RATIO = (1 + math.sqrt(5)) / 2


def once_per_device(fn):
    """Keep fn(dev) in the immutable device's memo, keyed by fn; errors are not kept."""
    @functools.wraps(fn)
    def memoized(dev):
        if fn not in dev._memo:
            dev._memo[fn] = fn(dev)
        return dev._memo[fn]

    return memoized


class Device:
    __slots__ = ("states", "partitions", "name", "_hash", "_memo")

    def __init__(self, states: GroundSet, partitions: Iterable[Partition], name: str | None = None):
        parts = {}
        for p in partitions:
            if p.ground != states:
                raise GroundMismatch("partition ground set differs from device states")
            parts[p.labels] = p
        if not parts:
            raise EmptyPartitionSet("device must declare at least one partition")
        self.states = states
        self.partitions = tuple(parts[key] for key in sorted(parts))
        self.name = name
        self._hash = hash((states, tuple(p.labels for p in self.partitions)))
        self._memo: dict = {}

    # ------------------------------------------------------------------

    @property
    def num_states(self) -> int:
        return len(self.states)

    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    @once_per_device
    def meet_of_all(self) -> Partition:
        """Meet of the whole partition family, folded on labels until every state is apart.

        Reads sorted by labels come in runs that split the same early states,
        so the fold takes read i·s mod r, with s coprime to r near r/φ; the
        meet's first-occurrence labels do not depend on the order.
        """
        r = len(self.partitions)
        step = round(r / _GOLDEN_RATIO)
        while math.gcd(step, r) != 1:
            step += 1
        labels, k = self.partitions[0].labels, self.partitions[0].num_blocks
        for i in range(1, r):
            if k == len(labels):
                break
            labels, k = _dense(zip(labels, self.partitions[i * step % r].labels))
        return Partition(self.states, labels, k)

    def with_name(self, name: str | None) -> "Device":
        d = Device(self.states, self.partitions, name)
        return d

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Device)
            and self._hash == other._hash
            and self.states == other.states
            and self.partitions == other.partitions
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        tag = self.name or "device"
        return f"<{tag}: {self.num_states} states, {self.num_partitions} partitions>"

    # ------------------------------------------------------------------
    # serialization

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "states": list(self.states.elements),
            "partitions": [p.blocks_as_labels() for p in self.partitions],
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "Device":
        if not isinstance(raw, dict):
            raise ValueError("device document must be a JSON object")
        try:
            states = raw["states"]
            partitions = raw["partitions"]
        except KeyError as e:
            raise ValueError(f"device document missing key {e.args[0]!r}") from None
        name = raw.get("name")
        if name is not None and not isinstance(name, str):
            raise ValueError("device name must be a string or null")
        if not isinstance(states, list) or not all(isinstance(s, str) for s in states):
            raise ValueError("states must be a list of strings")
        if not states:
            raise EmptyStateSpace("device must declare at least one state")
        if not isinstance(partitions, list):
            raise ValueError("partitions must be a list of block lists")
        if not all(isinstance(blocks, list) and all(isinstance(b, list) for b in blocks)
                   for blocks in partitions):
            raise ValueError("each partition must be a list of block lists")
        if not all(map(isinstance, chain.from_iterable(chain.from_iterable(partitions)),
                       repeat(str))):
            raise ValueError("block labels must be strings")
        ground = GroundSet(states)
        parts = [Partition.from_blocks(ground, blocks) for blocks in partitions]
        return cls(ground, parts, name)


def validate(raw: dict) -> Device:
    """Parse and validate a raw device document."""
    return Device.from_dict(raw)


# ----------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class DeviceClass:
    perfect: bool
    trivial: bool
    regular: int | None
    binary: bool


def classify(dev: Device) -> DeviceClass:
    perfect = any(p.is_identity for p in dev.partitions)
    trivial = dev.num_partitions == 1 and dev.partitions[0].is_top
    counts = {p.num_blocks for p in dev.partitions}
    regular = counts.pop() if len(counts) == 1 else None
    return DeviceClass(perfect, trivial, regular, regular == 2)


# ----------------------------------------------------------------------
# named constructors


def make_perfect(m: int) -> Device:
    """The m-state device whose only partition is the identity."""
    if m < 1:
        raise EmptyStateSpace("need at least one state")
    if m > config.MAX_PRODUCT_STATES:
        raise LimitExceeded(f"m={m} exceeds cap {config.MAX_PRODUCT_STATES}")
    ground = GroundSet(str(i) for i in range(1, m + 1))
    return Device(ground, [Partition.identity(ground)], name=f"C{m}")


def make_projective(n: int) -> Device:
    """States are n-bit words; one partition per cell, reading that cell."""
    if n < 1:
        raise EmptyStateSpace("need at least one cell")
    if n > config.MAX_PROJECTIVE_DIMENSION:
        raise LimitExceeded(f"n={n} exceeds cap {config.MAX_PROJECTIVE_DIMENSION}")
    ground = GroundSet(format(i, f"0{n}b") for i in range(2 ** n))
    parts = [Partition.from_raw(ground, (s[c] for s in ground.elements)) for c in range(n)]
    return Device(ground, parts, name=f"P{n}")


def _rref_rows(n: int, k: int):
    """All k x n matrices over GF(2) in reduced row echelon form, as bit masks."""
    for pivots in combinations(range(n), k):
        pivset = set(pivots)
        free = [(i, c) for i in range(k) for c in range(pivots[i] + 1, n) if c not in pivset]
        base = [1 << (n - 1 - p) for p in pivots]
        for bits in iproduct((0, 1), repeat=len(free)):
            rows = list(base)
            for (i, c), b in zip(free, bits):
                if b:
                    rows[i] |= 1 << (n - 1 - c)
            yield rows


def gaussian_binomial(n: int, k: int) -> int:
    """Number of k-dimensional subspaces of an n-dimensional space over GF(2)."""
    num = den = 1
    for i in range(k):
        num *= 2 ** (n - i) - 1
        den *= 2 ** (k - i) - 1
    return num // den


def make_linear(n: int, k: int = 1) -> Device:
    """States are n-bit words; partitions are kernels of surjective linear maps to k bits.

    Two maps share a kernel iff they have the same row space, so the family is
    enumerated once per k-dimensional row space via reduced echelon bases.
    """
    if n < 1 or k < 1 or k > n:
        raise ValueError(f"need 1 <= k <= n, got n={n}, k={k}")
    if n > config.MAX_LINEAR_DIMENSION:
        raise LimitExceeded(f"n={n} exceeds cap {config.MAX_LINEAR_DIMENSION}")
    count = gaussian_binomial(n, k)
    if count > config.MAX_DEVICE_PARTITIONS:
        raise LimitExceeded(f"{count} partitions exceed cap {config.MAX_DEVICE_PARTITIONS}")
    ground = GroundSet(format(i, f"0{n}b") for i in range(2 ** n))
    parts = []
    for rows in _rref_rows(n, k):
        codes = [tuple((r & x).bit_count() & 1 for r in rows) for x in range(2 ** n)]
        parts.append(Partition.from_raw(ground, codes))
    name = f"L{n}" if k == 1 else f"L{n}_{k}"
    return Device(ground, parts, name=name)


# ----------------------------------------------------------------------
# combinators


def direct_product(a: Device, b: Device) -> Device:
    """Product device: paired states, one partition per pair of reads."""
    n = a.num_states * b.num_states
    if n > config.MAX_PRODUCT_STATES:
        raise LimitExceeded(f"product would have {n} states (cap {config.MAX_PRODUCT_STATES})")
    if a.num_partitions * b.num_partitions > config.MAX_DEVICE_PARTITIONS:
        raise LimitExceeded("product partition family exceeds cap")
    ground = product_ground(a.states, b.states)
    parts = [p.product(q, ground) for p in a.partitions for q in b.partitions]
    return Device(ground, parts)


def product_of(devices: Iterable[Device]) -> Device:
    devs = list(devices)
    if not devs:
        raise EmptyStateSpace("empty product")
    return functools.reduce(direct_product, devs)


def k_reads(dev: Device, k: int) -> Device:
    """Close the family under meets of up to k partitions.

    Meets are idempotent and associative, so closing level by level over
    subsets of size <= k is enough; the frontier empties once no new meet
    appears.
    """
    if k < 1:
        raise PreconditionMismatch("k must be at least 1")
    seen = dict.fromkeys(dev.partitions)
    frontier = list(seen)
    for _ in range(k - 1):
        if not frontier:
            break
        fresh = []
        for m in frontier:
            for p in dev.partitions:
                mp = m.meet(p)
                if mp not in seen:
                    seen[mp] = None
                    fresh.append(mp)
                    if len(seen) > config.MAX_KREAD_PARTITIONS:
                        raise LimitExceeded(
                            f"k-read closure exceeds {config.MAX_KREAD_PARTITIONS} partitions")
        frontier = fresh
    return Device(dev.states, seen)
