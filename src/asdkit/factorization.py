"""Direct-product structure of devices built from binary parts.

binary_product_reduce decides reducibility between two products of
non-perfect state-minimal binary devices by searching over maps from right
factors to left factors, so one product-sized question collapses to a
handful of factor-sized ones.
extract_index_partition recovers the same grouping from an explicit witness
by checking which left coordinate moves at every step of each right one.
factor_binary finds the binary factors of a device when they exist, with an
optional uniqueness audit, and factor_perfect splits a perfect device into
prime perfect parts.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter

import numpy as np

from . import config
from .devices import Device, classify, make_perfect, product_of
from .errors import (
    HypothesisViolation,
    LimitExceeded,
    NonUniqueTau,
    PreconditionMismatch,
)
from .invariants import _pair_counts
from .minimization import is_state_minimal, minimize, state_quotient
from .partitions import GroundSet, Partition
from .reduction import _inverse, decide_equivalence, find_reduction
from .witnesses import Reduction, verify_reduction

# An index partition groups the right-hand factors: entry i holds the
# 1-based positions of the Es that together simulate D_i.
IndexPartition = tuple[frozenset[int], ...]


def _check_factors(ds, es) -> tuple[list[Device], list[Device], list[int], list[int]]:
    """Both factor lists and their state counts, once every hypothesis holds:
    nonempty lists of binary, non-perfect, state-minimal devices whose
    state-count products agree."""
    ds, es = list(ds), list(es)
    if not ds or not es:
        raise HypothesisViolation("factor lists must be nonempty")
    for side, devs in (("Ds", ds), ("Es", es)):
        for k, d in enumerate(devs):
            cls = classify(d)
            if not cls.binary:
                raise HypothesisViolation(f"{side}[{k}] is not binary")
            if cls.perfect:
                raise HypothesisViolation(f"{side}[{k}] is perfect")
            if not is_state_minimal(d):
                raise HypothesisViolation(f"{side}[{k}] is not state-minimal")
    sd = [d.num_states for d in ds]
    se = [e.num_states for e in es]
    if math.prod(sd) != math.prod(se):
        raise HypothesisViolation("state-count products differ")
    return ds, es, sd, se


def _index_partition(tau: list[int], m: int) -> IndexPartition:
    """The groups of a map tau from right indices to left indices, 1-based."""
    return tuple(frozenset(j + 1 for j, t in enumerate(tau) if t == i) for i in range(m))


def binary_product_reduce(
    ds, es, *, budget: int = config.SEARCH_NODE_BUDGET
) -> IndexPartition | None:
    """Decide ×Ds <= ×Es by grouping the right factors, given that every
    listed device is binary, non-perfect and state-minimal and the state-count
    products agree.

    The reduction exists iff some map tau from right indices to left indices
    has D_i <= ×_{j : tau(j) = i} E_j for each i.  tau is built depth first,
    right factor j going to left factor 1 first; a branch is dropped once a
    group's state count stops dividing its left factor's, which is the
    sigma-additivity prune in exact integer form, and a complete tau needs
    every group to match its left factor's count, so no group is empty.
    Groups are settled by the generic solver and every sub-witness is
    re-verified.  Returns the lexicographically least valid tau as an index
    partition; None means no tau works, hence no reduction at all.
    """
    ds, es, sd, se = _check_factors(ds, es)
    m, n = len(ds), len(es)

    prods: dict[tuple[int, ...], Device] = {}
    settled: dict[tuple[int, tuple[int, ...]], bool] = {}

    def part_ok(i: int, grp: tuple[int, ...]) -> bool:
        key = (i, grp)
        if key not in settled:
            if grp not in prods:
                prods[grp] = product_of(es[j] for j in grp)
            red = find_reduction(ds[i], prods[grp], budget=budget, structural=False)
            if red is not None and not verify_reduction(ds[i], prods[grp], red):
                raise RuntimeError("solver returned an invalid sub-witness")
            settled[key] = red is not None
        return settled[key]

    groups: list[list[int]] = [[] for _ in range(m)]
    load = [1] * m  # state count of each group so far

    def walk(j: int) -> IndexPartition | None:
        if j == n:
            if load == sd and all(part_ok(i, tuple(g)) for i, g in enumerate(groups)):
                return tuple(frozenset(k + 1 for k in g) for g in groups)
            return None
        for i in range(m):
            if sd[i] % (load[i] * se[j]) == 0:
                load[i] *= se[j]
                groups[i].append(j)
                found = walk(j + 1)
                if found is not None:
                    return found
                load[i] //= se[j]
                groups[i].pop()
        return None

    return walk(0)


def _mixed_radix(sizes: list[int]) -> list[int]:
    # place weights for left-associated products: last factor varies fastest
    w = [1] * len(sizes)
    for k in range(len(sizes) - 2, -1, -1):
        w[k] = w[k + 1] * sizes[k + 1]
    return w


def extract_index_partition(red: Reduction, ds, es) -> IndexPartition:
    """Recover the index partition from a verified witness for ×Ds <= ×Es.

    A verified witness is a bijection: the product of state-minimal factors
    is state-minimal, so phi is injective, and the state counts are equal.
    For each right coordinate j, every step y -> y + w_j of its digit is
    pulled back through phi.  The two states differ, so some left coordinate
    moves; exactly one may, the same at every step, and that one is tau(j).
    Anything else raises NonUniqueTau, as does a witness that does not
    verify; a wrongly shaped one raises DomainMismatch from verify_reduction.
    No left factor is left unfed: the steps connect all of ×Es and phi^-1 is
    onto ×Ds, so a left coordinate that no tau(j) names would be constant,
    yet a non-perfect binary factor has at least 3 states.
    """
    ds, es, sd, se = _check_factors(ds, es)
    if not verify_reduction(product_of(ds), product_of(es), red):
        raise NonUniqueTau("witness does not verify")
    wd, we = _mixed_radix(sd), _mixed_radix(se)
    left = [[x // w % s for w, s in zip(wd, sd)] for x in _inverse(red.phi)]
    tau = []
    for j, (w, s) in enumerate(zip(we, se)):
        moved = {i for y, xs in enumerate(left) if y // w % s < s - 1
                 for i, (a, b) in enumerate(zip(xs, left[y + w])) if a != b}
        if len(moved) != 1:
            raise NonUniqueTau(f"steps of right coordinate {j + 1} move left coordinates "
                               f"{sorted(i + 1 for i in moved)}")
        tau.append(moved.pop())
    return _index_partition(tau, len(ds))


# ----------------------------------------------------------------------
# binary factorization


def _device_key(dev: Device):
    return (dev.num_states, dev.num_partitions, tuple(p.labels for p in dev.partitions))


@functools.lru_cache(maxsize=None)
def _binary_candidates(s: int) -> tuple[Device, ...]:
    """State-minimal binary devices with s states, one per equivalence class.

    Distinct 2-block partitions are pairwise incomparable, so every subset of
    them is an antichain; subsets are deduplicated by the least relabeling
    over all state permutations.  Used by the audit cross-check, so s stays
    small and full enumeration is affordable.
    """
    ground = GroundSet(str(i) for i in range(s))
    # one partition per subset holding state 0 (its complement names the same
    # partition); mask >= 1 keeps the other block nonempty
    two_blocks = [Partition.from_raw(ground, [0] + [(mask >> (i - 1)) & 1 for i in range(1, s)])
                  for mask in range(1, 2 ** (s - 1))]
    out = []
    seen = set()
    perms = list(itertools.permutations(range(s)))
    for r in range(1, len(two_blocks) + 1):
        for subset in itertools.combinations(two_blocks, r):
            meet = functools.reduce(Partition.meet, subset)
            if not meet.is_identity:
                continue
            key = min(
                tuple(
                    sorted(
                        Partition.from_raw(ground, (p.labels[perm[i]] for i in range(s))).labels
                        for p in subset
                    )
                )
                for perm in perms
            )
            if key in seen:
                continue
            seen.add(key)
            out.append(Device(ground, subset))
    return tuple(out)


def _restrict_to_first_join_block(dm: Device) -> tuple[int, Device] | None:
    """Split off the perfect part: returns (number of C_2 factors, the device
    restricted to one block of the family join), or None when the join shape
    already rules out a binary product.  The join is folded until it is top,
    and a one-block join returns dm itself."""
    v = dm.partitions[0]
    for p in dm.partitions[1:]:
        if v.is_top:
            break
        v = v.join(p)
    if v.is_top:
        return 0, dm
    pb = v.num_blocks
    ell = pb.bit_length() - 1
    if 2**ell != pb:
        return None
    if len(set(v.block_sizes())) > 1:
        return None
    keep = [x for x in range(dm.num_states) if v.labels[x] == 0]
    ground = GroundSet(dm.states.elements[x] for x in keep)
    parts = {Partition.from_raw(ground, (p.labels[x] for x in keep)) for p in dm.partitions}
    return ell, Device(ground, parts)


def _lifts(dev: Device) -> tuple[list[Partition], list[int]]:
    """The distinct 2-block joins of read pairs, and per read the bitmask of
    those joins it refines (bit k for the k-th join).

    Candidate pairs are those whose join count in _pair_counts is 2.  A pair
    whose reads both refine a known join is skipped: their join refines it
    and has its two blocks, so it is that join.  Every join computed is
    therefore new.  _pair_counts raises LimitExceeded when its tables would
    take more than config.MAX_PAIR_BYTES.
    """
    reads = dev.partitions
    joins = _pair_counts(dev)[1]
    lifts: list[Partition] = []
    hits = [0] * len(reads)
    rows, cols = np.nonzero(np.triu(joins == 2, 1))
    for a, b in zip(rows.tolist(), cols.tolist()):
        if hits[a] & hits[b]:
            continue
        theta = reads[a].join(reads[b])
        bit = 1 << len(lifts)
        lifts.append(theta)
        # a read refining theta joins reads[a] and reads[b] below theta, never to top
        for k in np.flatnonzero((joins[a] > 1) & (joins[b] > 1)).tolist():
            if reads[k].refines(theta):
                hits[k] |= bit
    return lifts, hits


def _extract_candidate_factors(dm: Device) -> list[Device] | None:
    """Propose binary factors for a state-minimal device.

    In a product of non-perfect binaries the join of two reads is a 2-block
    partition exactly when they agree in one coordinate, and that join is the
    lift of the shared factor read.  _lifts collects every such join, with
    one join per distinct lift, and so every lifted read.  The first read
    refines exactly one lift per factor, its anchor, and a lift belongs to
    the one anchor that no read refines together with it.  Each group's meet
    is the kernel of the projection onto that factor, and quotienting by it
    rebuilds the factor.  The proposal is only a candidate: the caller
    certifies equivalence.  Raises LimitExceeded as _lifts does.
    """
    stripped = _restrict_to_first_join_block(dm)
    if stripped is None:
        return None
    ell, core = stripped
    factors: list[Device] = []
    if core.num_states > 1:
        cls = classify(core)
        if cls.binary and not cls.perfect:
            factors = [core]
        else:
            lifts, hits = _lifts(core)
            if not lifts:
                return None
            # reads[0] refines one lift per factor; any other lift shares a
            # refining read with every anchor but its own factor's
            anchors = [a for a in range(len(lifts)) if hits[0] >> a & 1]
            groups: dict[int, list[Partition]] = {a: [] for a in anchors}
            for idx, theta in enumerate(lifts):
                own = [idx] if hits[0] >> idx & 1 else [
                    a for a in anchors if not any(h >> a & h >> idx & 1 for h in hits)
                ]
                if len(own) != 1:
                    return None
                groups[own[0]].append(theta)
            for members in groups.values():
                quot, _ = state_quotient(Device(core.states, members))  # its meet is mu
                fg = GroundSet(f"b{t}" for t in range(quot.num_states))
                factors.append(Device(fg, [Partition(fg, theta.labels, theta.num_blocks)
                                           for theta in quot.partitions]))
            factors.sort(key=_device_key)
    if math.prod(f.num_states for f in factors) * 2**ell != dm.num_states:
        return None
    return [make_perfect(2) for _ in range(ell)] + factors


def _splittings(n: int, cap: int):
    """Non-decreasing tuples of integers >= 2 and <= cap whose product is n."""

    def rec(rem: int, lo: int):
        if rem == 1:
            yield ()
            return
        for f in range(lo, min(rem, cap) + 1):
            if rem % f == 0:
                for rest in rec(rem // f, f):
                    yield (f,) + rest

    yield from rec(n, 2)


def _same_factor_multiset(f1: list[Device], f2: list[Device], budget: int) -> bool:
    if len(f1) != len(f2):
        return False
    unused = list(f2)
    for a in f1:
        for k, b in enumerate(unused):
            if a.num_states == b.num_states and decide_equivalence(a, b, budget=budget):
                del unused[k]
                break
        else:
            return False
    return True


def _read_profiles(factors: list[Device]) -> list[tuple[int, ...]]:
    """Sorted block-size multisets of the reads of product_of(factors), read
    off the factors: a product read's blocks are one block per factor read,
    of the product of their sizes."""
    profiles = [(1,)]
    for f in factors:
        sizes = [p.block_sizes() for p in f.partitions]
        profiles = [tuple(sorted(x * y for x in prof for y in s)) for prof in profiles for s in sizes]
    return sorted(profiles)


def _audit_uniqueness(dm: Device, primary: list[Device] | None, budget: int) -> None:
    """Cross-check uniqueness against the exhaustive candidate enumeration.

    Re-runs the search the direct way: every multiplicative splitting of the
    state count with parts up to the configured cap, every candidate combo
    per splitting, certified by the solver.  A product of candidates is
    minimal, so decide_equivalence compares its reads' block-size multisets
    with dm's before any search; the audit predicts those from the factors
    and skips a combo whose multisets differ without building its product.
    All factorizations found this way must match the primary one (and each
    other) up to factor order, and a factorization found when the probe
    found none raises RuntimeError too.  Splittings with a part above the
    cap are skipped, so the audit is only as wide as the enumeration it can
    afford.
    """
    found = [] if primary is None else [primary]
    want = sorted(p.size_multiset() for p in dm.partitions)
    for split in _splittings(dm.num_states, config.MAX_FACTOR_STATES):
        sized = sorted(Counter(split).items())
        pools = [
            itertools.combinations_with_replacement(_binary_candidates(s), cnt)
            for s, cnt in sized
        ]
        for chosen in itertools.product(*pools):
            combo = [f for grp in chosen for f in grp]
            if math.prod(f.num_partitions for f in combo) != dm.num_partitions:
                continue
            if _read_profiles(combo) != want:
                continue
            if decide_equivalence(dm, product_of(combo), budget=budget):
                found.append(combo)
    if primary is None and found:
        raise RuntimeError("uniqueness audit found a factorization the probe missed")
    for f1, f2 in itertools.combinations(found, 2):
        if not _same_factor_multiset(f1, f2, budget):
            raise RuntimeError("uniqueness audit found inequivalent factorizations")


def factor_binary(
    dev: Device, *, audit: bool = False, budget: int = config.SEARCH_NODE_BUDGET
) -> list[Device] | None:
    """Factor a device into binary devices, or report that none exist.

    The minimized device is probed for product structure (perfect part from
    the family join, non-perfect factors from 2-block joins of read pairs)
    and the proposal is certified by decide_equivalence, so a returned list
    is always a genuine factorization and None is trustworthy whenever the
    probe is exhaustive, which it is for true binary products.  With audit
    set, an independent enumeration over small candidate factors re-finds
    every factorization, and a uniqueness violation or a factorization the
    probe missed raises RuntimeError.  LimitExceeded is raised above
    config.MAX_CERTIFIED_STATES minimized states or config.MAX_PAIR_BYTES of
    pair counts.  A trivial one-state device factors as the empty product.
    """
    dm = minimize(dev).device
    n = dm.num_states
    if n > config.MAX_CERTIFIED_STATES:
        raise LimitExceeded(f"minimized device has {n} states (cap {config.MAX_CERTIFIED_STATES})")
    if n == 1:
        return []
    cand = _extract_candidate_factors(dm)
    result = None
    if cand is not None and decide_equivalence(dm, product_of(cand), budget=budget):
        result = cand
    if audit:
        _audit_uniqueness(dm, result, budget)
    return result


def factor_perfect(m: int) -> list[tuple[int, int]]:
    """Prime factorization of a perfect device's state count.

    Returns (prime, multiplicity) pairs in increasing prime order; for
    m <= config.MAX_CERTIFIED_STATES the claim C_m == ×C_p^a is certified by decide_equivalence.
    m above config.MAX_PRODUCT_STATES, where no C_m is built, raises LimitExceeded.
    """
    if m < 2:
        raise PreconditionMismatch("m must be at least 2")
    if m > config.MAX_PRODUCT_STATES:
        raise LimitExceeded(f"m={m} exceeds cap {config.MAX_PRODUCT_STATES}")
    out = []
    rest = m
    d = 2
    while d * d <= rest:
        if rest % d == 0:
            a = 0
            while rest % d == 0:
                rest //= d
                a += 1
            out.append((d, a))
        d += 1
    if rest > 1:
        out.append((rest, 1))
    if m <= config.MAX_CERTIFIED_STATES:
        parts = [make_perfect(p) for p, a in out for _ in range(a)]
        if decide_equivalence(make_perfect(m), product_of(parts)) is None:
            raise RuntimeError("perfect factorization failed certification")
    return out
