"""Reduction records: verification, composition, serialization."""

import random
from collections import Counter

import pytest

from asdkit.devices import Device, make_linear
from asdkit.errors import DomainMismatch
from asdkit.minimization import minimize
from asdkit.partitions import GroundSet, Partition
from asdkit.reduction import find_reduction
from asdkit.witnesses import (
    Reduction,
    compose,
    identity_reduction,
    reduction_from_dict,
    reduction_to_dict,
    verify_reduction,
)

from corpus import _pulled_refines, random_device, random_partition, reducible_pair


def test_shape_checks():
    l2 = make_linear(2)
    with pytest.raises(DomainMismatch):
        verify_reduction(l2, l2, Reduction((0, 1), (0, 1, 2)))
    with pytest.raises(DomainMismatch):
        verify_reduction(l2, l2, Reduction((0, 1, 2, 9), (0, 1, 2)))


def test_compose_chains_reductions():
    rng = random.Random(211)
    done = 0
    while done < 20:
        d, e = reducible_pair(rng)
        r1 = find_reduction(d, e)
        if r1 is None:
            continue
        res = minimize(e)
        r2 = res.to_min
        chained = compose(r1, r2)
        assert verify_reduction(d, res.device, chained)
        done += 1


def test_serialization_round_trip():
    rng = random.Random(223)
    done = 0
    while done < 20:
        d, e = reducible_pair(rng)
        red = find_reduction(d, e)
        if red is None:
            continue
        blob = reduction_to_dict(d, e, red)
        assert set(blob) == {"phi", "alpha"}
        assert all(isinstance(k, str) for k in blob["phi"])
        back = reduction_from_dict(d, e, blob)
        assert back == red
        assert verify_reduction(d, e, back)
        done += 1


def test_identity_reduction():
    rng = random.Random(227)
    for _ in range(20):
        d = random_device(rng)
        assert verify_reduction(d, d, identity_reduction(d))


def test_verify_reduction_matches_pullback_refinement():
    """The verifier agrees with Partition.pullback(...).refines on random witnesses.

    Half the sources are pulled back from the target along phi, some reads
    then coarsened, so valid and invalid witnesses both occur.
    """
    rng = random.Random(229)
    verdicts = []
    for _ in range(400):
        dst = random_device(rng, 5, 3)
        src = random_device(rng, 5, 3)
        phi = tuple(rng.randrange(dst.num_states) for _ in range(src.num_states))
        alpha = tuple(rng.randrange(dst.num_partitions) for _ in range(src.num_partitions))
        mapping = {s: dst.states.elements[t] for s, t in zip(src.states.elements, phi)}
        if rng.random() < 0.5:
            origin = {}  # labels -> (read, the target read it came from)
            for j in alpha:
                p = dst.partitions[j].pullback(mapping, src.states)
                if rng.random() < 0.3:
                    p = p.join(random_partition(rng, src.states))
                origin[p.labels] = (p, j)
            src = Device(src.states, [p for p, _ in origin.values()])
            alpha = tuple(origin[pi.labels][1] for pi in src.partitions)
        expect = all(dst.partitions[j].pullback(mapping, src.states).refines(pi)
                     for pi, j in zip(src.partitions, alpha))
        assert verify_reduction(src, dst, Reduction(phi, alpha)) == expect
        verdicts.append(expect)
    assert 50 < sum(verdicts) < 350


def _target_codes(rng, labels, kind) -> list[int]:
    """Raw codes on the source states for a target read of the given kind."""
    k = max(labels) + 1
    if kind == "equal":
        return list(labels)
    if kind == "finer":  # split blocks at random; never coarser
        return [2 * lab + rng.randrange(2) for lab in labels]
    if kind == "coarser" and k > 1:  # merge two blocks
        a, b = rng.sample(range(k), 2)
        return [a if lab == b else lab for lab in labels]
    perm = list(range(len(labels)))  # another read of the same block count
    rng.shuffle(perm)
    return [labels[x] for x in perm]


def test_identity_phi_verdicts_match_the_pullback_scan():
    """With phi the identity, the verifier agrees with _pulled_refines read by read.

    A target read with the source read's labels is accepted without a scan.
    Finer reads must be accepted, coarser ones rejected, reads of the same
    block count either way.  When the target has more states, no target
    read has the source's labels, so each goes through the scan.  A phi
    with two states swapped must scan even reads with equal labels.
    """
    rng = random.Random(233)
    seen = Counter()
    for _ in range(400):
        src = random_device(rng, 7, 4)
        n = src.num_states
        extra = rng.choice([0, 0, rng.randint(1, 3)])
        ground = GroundSet(list(src.states.elements) + [f"t{i}" for i in range(extra)])
        phi = list(range(n))
        if rng.random() < 0.2:
            x, y = rng.sample(range(n), 2)
            phi[x], phi[y] = phi[y], phi[x]
        phi = tuple(phi)
        identity = phi == tuple(range(n))
        kinds = [rng.choice(["equal", "finer", "coarser", "same count"]) for _ in src.partitions]
        rows = [_target_codes(rng, pi.labels, kind) + [rng.randrange(3) for _ in range(extra)]
                for pi, kind in zip(src.partitions, kinds)]
        reads = [Partition.from_raw(ground, row) for row in rows]
        dst = Device(ground, reads + [random_partition(rng, ground)])
        slot = {q.labels: j for j, q in enumerate(dst.partitions)}
        alpha = tuple(slot[q.labels] for q in reads)
        verdicts = []
        for pi, j, kind in zip(src.partitions, alpha, kinds):
            expect = _pulled_refines(dst.partitions[j].labels, phi, pi.labels, n)
            one = Device(src.states, [pi])
            assert verify_reduction(one, dst, Reduction(phi, (j,))) == expect
            if identity and kind != "same count":  # a one-block read has nothing to merge
                assert expect == (kind != "coarser" or pi.num_blocks == 1)
            seen[kind, extra > 0, identity, expect] += 1
            verdicts.append(expect)
        assert verify_reduction(src, dst, Reduction(phi, alpha)) == all(verdicts)
    for kind, verdict in (("equal", True), ("finer", True), ("coarser", False),
                          ("same count", True), ("same count", False)):
        for more_states in (False, True):
            assert seen[kind, more_states, True, verdict] > 5, (kind, more_states, verdict)
    assert seen["equal", False, False, False] > 5
