"""Reduction records: verification, composition, serialization."""

import random

import pytest

from asdkit.devices import Device, make_linear
from asdkit.errors import DomainMismatch
from asdkit.minimization import minimize
from asdkit.reduction import find_reduction
from asdkit.witnesses import (
    Reduction,
    compose,
    identity_reduction,
    reduction_from_dict,
    reduction_to_dict,
    verify_reduction,
)

from corpus import random_device, random_partition, reducible_pair


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
