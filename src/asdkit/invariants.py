"""Invariants monotone under reducibility, and the search prescreen built on them.

capacity is the log of the largest block count any single read can produce;
sigma is the log of the state count after merging indistinguishable states;
the perfectness index is the least number of reads whose meet pins down the
state exactly (infinite when no number of reads suffices).
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import config
from .devices import Device, once_per_device
from .errors import LimitExceeded
from .minimization import minimize

INFINITE = math.inf


def capacity(dev: Device) -> float:
    """log2 of the largest number of blocks over the family."""
    return math.log2(max(p.num_blocks for p in dev.partitions))


def state_complexity(dev: Device) -> float:
    """log2 of the number of states that survive minimization."""
    return math.log2(dev.meet_of_all().num_blocks)


@once_per_device
def perfectness_index(dev: Device) -> int | float:
    """Least k such that some k reads together separate every state pair.

    Best-first (A*) search over the distinct meets of the family, keyed by
    reads taken k plus the least h with r^h >= the largest block, where r is
    the most blocks of any read.  h more reads split a block into at most r^h
    parts, so the bound never overestimates, and it drops by at most 1 per
    read; the first identity popped therefore has the least k (Hart, Nilsson
    & Raphael 1968).  Devices that are not state-minimal never reach it.
    """
    if any(p.is_identity for p in dev.partitions):
        return 1
    if not dev.meet_of_all().is_identity:
        return INFINITE
    r = max(p.num_blocks for p in dev.partitions)
    best: dict = {}
    heap: list = []
    tick = itertools.count()

    def push(m, k: int) -> None:
        if k < best.get(m, INFINITE):
            best[m] = k
            h, reach, big = 0, 1, max(m.block_sizes())
            while reach < big:
                h, reach = h + 1, reach * r
            heapq.heappush(heap, (k + h, -k, next(tick), m))

    for p in dev.partitions:
        push(p, 1)
    while True:
        _, k, _, m = heapq.heappop(heap)
        k = -k
        if k > best[m]:
            continue
        if m.is_identity:
            return k
        for p in dev.partitions:
            push(m.meet(p), k + 1)


def prescreen(src: Device, dst: Device) -> str | None:
    """Cheap necessary conditions for src <= dst; returns a fail reason or None.

    Block counts are compared as integers, never as float logs.  The
    perfectness screen only separates devices of equal minimized state count,
    so it runs on the minimized pair, where the index is always finite.
    """
    if max(p.num_blocks for p in src.partitions) > max(p.num_blocks for p in dst.partitions):
        return "capacity"
    if src.meet_of_all().num_blocks > dst.meet_of_all().num_blocks:
        return "sigma"
    sm = minimize(src).device
    dm = minimize(dst).device
    if sm.num_states == dm.num_states and perfectness_index(sm) < perfectness_index(dm):
        return "perfectness"
    return None


@dataclass(frozen=True)
class BoundReport:
    sigma: float
    index: int | float
    capacity: float
    holds: bool


def sigma_capacity_bound(dev: Device) -> BoundReport:
    """Check sigma <= index * capacity, exactly, via integer block counts."""
    idx = perfectness_index(dev)
    merged = dev.meet_of_all().num_blocks
    biggest = max(p.num_blocks for p in dev.partitions)
    holds = True if idx == INFINITE else merged <= biggest ** idx
    return BoundReport(math.log2(merged), idx, math.log2(biggest), holds)


def invariant_report(dev: Device) -> dict:
    """JSON-ready summary with integral logs emitted as ints."""

    def num(v: float):
        return int(v) if float(v).is_integer() else v

    idx = perfectness_index(dev)
    return {
        "capacity": num(capacity(dev)),
        "sigma": num(state_complexity(dev)),
        "perfectness_index": "inf" if idx == INFINITE else idx,
    }


# ----------------------------------------------------------------------
# pairwise polynomial signature


def _pair_chunk(q: int, r: int) -> int:
    """Reads per row chunk of _pair_counts: about 4M (read, read, block, block) entries."""
    return max(1, (1 << 22) // (q * r * r))


def _pair_counts_bytes(dev: Device) -> int:
    """Upper estimate of the bytes _pair_counts(dev) allocates at its peak.

    The int64 labels and the float32 one-hot matrix take 8 and 4 * r bytes per
    read and state, the eye and earlier masks r * r bytes each, and the two
    (q, q) int64 results 16 * q * q.  A chunk of ca reads has E = ca * q * r * r
    entries at most, and at the peak of the closure loop g, mf, af and the
    product af @ af hold them as float32 and m, adj, prev and the compared
    product as bool: 20 bytes per entry.  1 MiB covers the small arrays.
    """
    parts = dev.partitions
    q, n = len(parts), dev.num_states
    r = max(p.num_blocks for p in parts)
    ca = min(q, _pair_chunk(q, r))
    return (8 + 4 * r) * q * n + 20 * ca * q * r * r + 2 * r * r + 16 * q * q + (1 << 20)


@once_per_device
def _pair_counts(dev: Device) -> tuple[np.ndarray, np.ndarray]:
    """Block counts of meet and join for every ordered pair of reads.

    One-hot block matrices make the meet a single matrix product: entry
    (b, c) of the product counts states shared by block b and block c, so
    positive entries are the meet blocks and connected components of the
    induced block-overlap graph are the join blocks.  Both arrays are shared, read-only.
    Raises LimitExceeded before allocating when _pair_counts_bytes exceeds config.MAX_PAIR_BYTES.
    """
    if _pair_counts_bytes(dev) > config.MAX_PAIR_BYTES:
        raise LimitExceeded(f"pair counts of {dev.num_partitions} reads exceed the memory cap")
    parts = dev.partitions
    q = len(parts)
    n = dev.num_states
    r = max(p.num_blocks for p in parts)
    lab = np.array([p.labels for p in parts], dtype=np.int64)
    nb = np.array([p.num_blocks for p in parts], dtype=np.int64)
    one = np.zeros((q, r, n), dtype=np.float32)
    one[np.arange(q)[:, None], lab, np.arange(n)[None, :]] = 1.0
    flat = one.reshape(q * r, n)
    meets = np.empty((q, q), dtype=np.int64)
    joins = np.empty((q, q), dtype=np.int64)
    eye = np.eye(r, dtype=bool)
    earlier = np.tri(r, k=-1, dtype=bool)  # earlier[i, j] iff j < i
    chunk = _pair_chunk(q, r)
    for a0 in range(0, q, chunk):  # both counts are symmetric: rows a, columns b >= a0
        a1 = min(q, a0 + chunk)
        ca = a1 - a0
        g = one[a0:a1].reshape(ca * r, n) @ flat[a0 * r:].T
        m = (g.reshape(ca, r, q - a0, r) > 0).transpose(0, 2, 1, 3)  # (ca, q - a0, r_a, r_b)
        meets[a0:a1, a0:] = m.sum(axis=(2, 3))
        mf = m.astype(np.float32)
        adj = (mf @ mf.swapaxes(2, 3)) > 0  # blocks of a sharing a block of b
        adj |= eye
        while True:  # square to the transitive closure: reflexive with A @ A == A
            af = adj.astype(np.float32)
            adj, prev = (af @ af) > 0, adj
            if np.array_equal(adj, prev):
                break
        # each join block is counted once, at its lowest block of a
        lead = ~(adj & earlier).any(axis=3)  # (ca, q - a0, r)
        real = np.arange(r)[None, :] < nb[a0:a1, None]  # padding rows on the a axis
        joins[a0:a1, a0:] = (lead & real[:, None, :]).sum(axis=2)
    low = np.tril_indices(q, -1)
    meets[low], joins[low] = meets.T[low], joins.T[low]
    meets.flags.writeable = joins.flags.writeable = False
    return meets, joins


def _check_signature_bytes(dev: Device) -> None:
    """Raise LimitExceeded when dev's signature would exceed config.MAX_PAIR_BYTES.

    The estimate is the pair counts plus the sort's int64 block-count
    column, lexsort order and sorted column and its two bool masks: 26 bytes
    per pair of reads.
    """
    q = dev.num_partitions
    if _pair_counts_bytes(dev) + 26 * q * q > config.MAX_PAIR_BYTES:
        raise LimitExceeded(f"signature of {q} reads would take over "
                            f"{config.MAX_PAIR_BYTES >> 20} MiB")


@once_per_device
def poly_signature(dev: Device) -> tuple:
    """Multiset of per-pair block-count profiles; equal on equivalent minimal devices.

    A pair's profile is (|pi|, |pi meet rho|, |pi join rho|): the block
    counts of pi and of the two depth-2 polynomials on the pair.  The
    multiset is a sorted tuple of (profile, count) pairs, one per distinct
    profile.  Raises LimitExceeded as _check_signature_bytes does.
    """
    _check_signature_bytes(dev)
    q = dev.num_partitions
    meets, joins = _pair_counts(dev)
    nb = np.array([p.num_blocks for p in dev.partitions], dtype=np.int64)
    cols = (np.repeat(nb, q), meets.ravel(), joins.ravel())
    order = np.lexsort(cols[::-1])  # last key is primary: rows sorted as tuples
    changed = np.zeros(q * q - 1, dtype=bool)  # sorted row i + 1 differs from row i
    for c in cols:
        s = c[order]
        changed |= s[1:] != s[:-1]
        del s  # before the next column is gathered
    starts = np.r_[0, np.flatnonzero(changed) + 1]
    counts = np.diff(starts, append=q * q).tolist()
    return tuple(zip(zip(*(c[order[starts]].tolist() for c in cols)), counts))


def _signature_certificate(a: Device, b: Device) -> dict | None:
    """Least depth-2 profile whose multiplicities differ, or None.

    Computed on the minimized devices; a difference certifies
    non-equivalence independently of any search.  None also when a
    signature is too large to compute, so the size check comes first.

    Most answers are read off the block-count histograms.  In the profile
    (|pi|, |pi meet rho|, |pi join rho|), |pi meet rho| >= |pi| with equality
    iff pi <= rho.  A minimized device's reads form an antichain, so
    equality means rho = pi, and then |pi join rho| = |pi| as well.  Hence,
    with k the fewest blocks of any read on either side, no profile sorts
    below (k, k, k), and (k, k, k) counts the reads with k blocks.  When
    those counts differ it is the certificate; only otherwise are the count
    tables built and compared.
    """
    try:
        ma, mb = minimize(a).device, minimize(b).device
        _check_signature_bytes(ma)
        _check_signature_bytes(mb)
    except LimitExceeded:
        return None
    ha = Counter(p.num_blocks for p in ma.partitions)
    hb = Counter(p.num_blocks for p in mb.partitions)
    k = min(min(ha), min(hb))
    if ha[k] != hb[k]:
        sa, sb = Counter({(k, k, k): ha[k]}), Counter({(k, k, k): hb[k]})
    else:
        sa, sb = Counter(dict(poly_signature(ma))), Counter(dict(poly_signature(mb)))
    for profile in sorted(set(sa) | set(sb)):
        if sa[profile] != sb[profile]:
            return {
                "depth": 2,
                "profile": list(profile),
                "left_count": sa[profile],
                "right_count": sb[profile],
            }
    return None
