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

from corpus import random_device, random_graph, with_coarsened_reads


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


def _device_with_merges_and_redundancy(rng) -> Device:
    """Random device with copied states and reads coarser than other reads."""
    n = rng.randint(2, 6)
    rows = [[rng.randrange(rng.randint(1, n)) for _ in range(n)] for _ in range(rng.randint(1, 4))]
    copies = [rng.randrange(n) for _ in range(rng.randint(0, 3))]
    rows = [row + [row[s] for s in copies] for row in rows]  # copies merge with their source
    for row in list(rows):
        for _ in range(rng.randint(0, 2)):  # coarsen by merging two labels
            a, b = rng.choice(row), rng.choice(row)
            row = [a if x == b else x for x in row]
            rows.append(row)
    order = list(range(len(rows[0])))
    rng.shuffle(order)
    ground = GroundSet(f"s{i}" for i in order)
    return Device(ground, [Partition.from_raw(ground, [row[i] for i in order]) for row in rows])


def _refines_raw(fine, coarse) -> bool:
    return all(coarse[x] == coarse[y]
               for x in range(len(fine)) for y in range(x) if fine[x] == fine[y])


def test_minimize_picks_least_valid_reads():
    """Both alphas pick the least valid index, as a scan over raw labels finds it."""
    rng = random.Random(131)
    merged = dropped = 0
    for _ in range(300):
        d = _device_with_merges_and_redundancy(rng)
        res = minimize(d)
        rows = [p.labels for p in d.partitions]
        sig = [tuple(row[x] for row in rows) for x in range(d.num_states)]
        reps = [x for x in range(d.num_states) if sig.index(sig[x]) == x]
        restricted = [[row[x] for x in reps] for row in rows]
        kept = [q.labels for q in res.device.partitions]
        assert res.from_min.phi == tuple(reps)
        assert res.to_min.alpha == tuple(
            min(k for k, q in enumerate(kept) if _refines_raw(q, r)) for r in restricted)
        assert res.from_min.alpha == tuple(
            min(i for i, r in enumerate(restricted) if _refines_raw(q, r) and _refines_raw(r, q))
            for q in kept)
        merged += len(reps) < d.num_states
        dropped += len(kept) < len(rows)
    assert merged > 50 and dropped > 50


def _equal_count_device(rng) -> Device:
    """Random reads that all have the same number of blocks, so none is redundant."""
    n = rng.randint(2, 7)
    k = rng.randint(1, n)
    ground = GroundSet(f"s{i}" for i in range(n))
    parts = []
    for _ in range(rng.randint(1, 6)):
        codes = list(range(k)) + [rng.randrange(k) for _ in range(n - k)]
        rng.shuffle(codes)
        parts.append(Partition.from_raw(ground, codes))
    return Device(ground, parts)


def test_redundant_indices_match_a_scan_of_all_pairs():
    """Scanning only the reads with more blocks finds every strictly coarser read.

    Coarsened families hold runs of reads with equal block counts between
    their finer and coarser reads; equal-count families have none to find.
    """
    rng = random.Random(139)
    found = equal_count = 0
    for _ in range(300):
        if rng.random() < 0.3:
            d = _equal_count_device(rng)
            equal_count += 1
        else:
            d = with_coarsened_reads(random_device(rng, 6, 2))
        rows = [p.labels for p in d.partitions]
        expect = {i for i, r in enumerate(rows)
                  if any(j != i and _refines_raw(q, r) for j, q in enumerate(rows))}
        assert minimization._redundant_indices(d.partitions) == expect
        found += bool(expect)
    assert found > 100 and equal_count > 50
