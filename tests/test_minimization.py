"""State and partition minimality plus witnessed minimization."""

import math
import random

import pytest

from asdkit import minimization
from asdkit.devices import Device, direct_product, make_perfect, make_projective
from asdkit.graphs import graph_device
from asdkit.invariants import state_complexity
from asdkit.minimization import is_partition_minimal, is_state_minimal, minimize
from asdkit.partitions import GroundSet, Partition
from asdkit.witnesses import verify_reduction

from corpus import random_device, random_graph


def test_is_state_minimal_examples():
    assert is_state_minimal(make_projective(3))
    assert is_state_minimal(make_perfect(5))
    g = GroundSet("abc")
    stuck = Device(g, [Partition.from_blocks(g, [["a", "b"], ["c"]])])
    assert not is_state_minimal(stuck)


def test_is_partition_minimal_examples():
    assert is_partition_minimal(make_projective(2))  # 2-regular
    g = GroundSet("abc")
    chain = Device(g, [Partition.identity(g), Partition.top(g)])
    assert not is_partition_minimal(chain)
    assert is_partition_minimal(Device(g, [Partition.top(g)]))


def test_minimize_examples():
    p3 = make_projective(3)
    res = minimize(p3)
    assert res.device == p3  # name aside, nothing to do
    assert res.to_min.phi == tuple(range(8))
    g = GroundSet("abc")
    chain = Device(g, [Partition.identity(g), Partition.top(g)])
    res = minimize(chain)
    assert res.device.num_partitions == 1
    assert res.device.partitions[0].is_identity
    assert res.device.num_states == 3
    rng = random.Random(5)
    for _ in range(10):
        gd = graph_device(random_graph(rng, 4, 7))
        got = minimize(gd)
        assert got.device == gd


def test_minimize_random_devices():
    rng = random.Random(83)
    for _ in range(200):
        d = random_device(rng)
        res = minimize(d)
        dm = res.device
        assert is_state_minimal(dm)
        assert is_partition_minimal(dm)
        assert verify_reduction(d, dm, res.to_min)
        assert verify_reduction(dm, d, res.from_min)
        assert dm.num_states == d.meet_of_all().num_blocks
        assert math.isclose(math.log2(dm.num_states), state_complexity(d))
        again = minimize(dm)
        assert again.device == dm
        assert again.to_min.phi == tuple(range(dm.num_states))


def test_merged_states_keep_representative_labels():
    g = GroundSet(["u", "v", "w", "z"])
    # u and v are never separated; representative is the earlier label
    p = Partition.from_blocks(g, [["u", "v"], ["w"], ["z"]])
    q = Partition.from_blocks(g, [["u", "v", "w"], ["z"]])
    res = minimize(Device(g, [p, q]))
    assert res.device.states.elements == ("u", "w", "z")


def test_product_of_minimal_is_state_minimal():
    rng = random.Random(89)
    for _ in range(60):
        a = minimize(random_device(rng, 6, 4)).device
        b = minimize(random_device(rng, 6, 4)).device
        prod = direct_product(a, b)
        assert is_state_minimal(prod)


def test_minimize_is_deterministic():
    rng = random.Random(97)
    for _ in range(40):
        d = random_device(rng)
        r1 = minimize(d)
        r2 = minimize(Device(d.states, d.partitions, name=d.name))
        assert r1.device.to_dict() == r2.device.to_dict()
        assert r1.to_min.phi == r2.to_min.phi and r1.to_min.alpha == r2.to_min.alpha


def test_minimize_rejects_unverified_witness(monkeypatch):
    """The witness check is a real error, kept under python -O."""
    monkeypatch.setattr(minimization, "verify_reduction", lambda *args: False)
    with pytest.raises(RuntimeError, match="internal"):
        minimize(make_projective(2))
