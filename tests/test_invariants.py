"""Order-preserving invariants, the prescreen, and signature certificates."""

import math
import random
import tracemalloc
from collections import Counter

import pytest

from asdkit import config, invariants
from asdkit.devices import (
    Device,
    direct_product,
    k_reads,
    make_linear,
    make_perfect,
    make_projective,
    product_of,
)
from asdkit.errors import LimitExceeded
from asdkit.invariants import (
    INFINITE,
    _pair_counts,
    _pair_counts_bytes,
    _signature_certificate,
    capacity,
    invariant_report,
    perfectness_index,
    poly_signature,
    prescreen,
    sigma_capacity_bound,
    state_complexity,
)
from asdkit.minimization import minimize
from asdkit.partitions import GroundSet, Partition
from asdkit.reduction import random_equivalent

from corpus import (
    perfectness_oracle,
    poly_signature_oracle,
    random_device,
    two_block_reads,
    with_coarsened_reads,
)

L2 = make_linear(2)
L3 = make_linear(3)
L4 = make_linear(4)


def test_capacity_examples():
    assert capacity(product_of([L2, L2, L2])) == 3.0
    assert capacity(direct_product(L3, L3)) == 2.0
    assert math.isclose(capacity(make_perfect(12)), math.log2(12))
    for n, k in [(2, 1), (3, 2), (4, 3)]:
        assert capacity(make_linear(n, k)) == float(k)


def test_capacity_additive():
    rng = random.Random(101)
    for _ in range(60):
        a = random_device(rng, 5, 4)
        b = random_device(rng, 5, 4)
        assert math.isclose(
            capacity(direct_product(a, b)), capacity(a) + capacity(b))


def test_state_complexity_examples():
    for n in (1, 2, 3):
        assert state_complexity(make_projective(n)) == float(n)
    from asdkit.devices import Device
    from asdkit.partitions import GroundSet, Partition
    g = GroundSet("abc")
    assert state_complexity(Device(g, [Partition.top(g)])) == 0.0
    rng = random.Random(103)
    for _ in range(60):
        a = random_device(rng, 5, 4)
        b = random_device(rng, 5, 4)
        assert math.isclose(
            state_complexity(direct_product(a, b)),
            state_complexity(a) + state_complexity(b))


def test_perfectness_index_examples():
    for n in (1, 2, 3, 4):
        assert perfectness_index(make_linear(n)) == n
    assert perfectness_index(direct_product(L4, L2)) == 4
    assert perfectness_index(direct_product(L3, L3)) == 3
    from asdkit.devices import Device
    from asdkit.partitions import GroundSet, Partition
    g = GroundSet("abc")
    merged = Device(g, [Partition.from_blocks(g, [["a", "b"], ["c"]])])
    assert perfectness_index(merged) is INFINITE


def test_perfectness_index_skips_an_entry_found_again_with_fewer_reads(monkeypatch):
    """On this 9-state device the search first reaches one meet as a meet
    of three reads and later as a meet of two.  The three-read heap entry
    is popped after the two-read one and skipped; the index matches the
    oracle."""
    rows = [(0, 0, 0, 0, 0, 0, 0, 1, 0), (0, 0, 0, 1, 0, 1, 0, 2, 2), (0, 0, 0, 1, 0, 1, 1, 1, 1),
            (0, 0, 0, 1, 1, 0, 0, 0, 0), (0, 1, 2, 1, 0, 1, 1, 1, 3)]
    g = GroundSet(str(x) for x in range(9))
    dev = Device(g, [Partition.from_raw(g, row) for row in rows])
    popped = []
    pop = invariants.heapq.heappop

    def spy(heap):
        entry = pop(heap)
        popped.append(entry[3])
        return entry

    monkeypatch.setattr(invariants.heapq, "heappop", spy)
    assert perfectness_index(dev) == perfectness_oracle(dev) == 4
    assert max(Counter(popped).values()) == 2


def test_prescreen_examples():
    l2cubed = product_of([L2, L2, L2])
    l3sq = direct_product(L3, L3)
    assert prescreen(l2cubed, l3sq) == "capacity"
    assert prescreen(l3sq, direct_product(L4, L2)) == "perfectness"
    assert prescreen(l3sq, l3sq) is None
    # sigma fires when capacity cannot
    assert prescreen(make_projective(3), make_projective(2)) == "sigma"


def test_prescreen_runs_the_perfectness_screen_above_128_reads():
    many = with_coarsened_reads(direct_product(L4, L2))
    assert many.num_partitions == 315
    assert minimize(many).device.num_partitions == 45
    assert prescreen(direct_product(L3, L3), many) == "perfectness"


def test_sigma_capacity_bound():
    for n in (1, 2, 3, 4):
        assert sigma_capacity_bound(make_linear(n)).holds
    assert sigma_capacity_bound(make_perfect(12)).holds
    rng = random.Random(107)
    for _ in range(200):
        assert sigma_capacity_bound(random_device(rng)).holds


def test_invariant_report_shape():
    rep = invariant_report(direct_product(L2, L2))
    assert rep == {"capacity": 2, "sigma": 4, "perfectness_index": 2}
    from asdkit.devices import Device
    from asdkit.partitions import GroundSet, Partition
    g = GroundSet("ab")
    rep = invariant_report(Device(g, [Partition.top(g)]))
    assert rep["perfectness_index"] == "inf"


def test_kread_capacity_bound():
    rng = random.Random(109)
    for _ in range(40):
        d = random_device(rng, 5, 3)
        for k in (1, 2, 3):
            assert capacity(k_reads(d, k)) <= k * capacity(d) + 1e-9


def test_invariants_stable_under_minimize_and_relabel():
    rng = random.Random(113)
    for _ in range(60):
        d = random_device(rng)
        dm = minimize(d).device
        assert math.isclose(capacity(d), capacity(dm))
        assert math.isclose(state_complexity(d), state_complexity(dm))
        e, _ = random_equivalent(dm, seed=rng.randrange(2**30))
        assert math.isclose(capacity(dm), capacity(e))
        assert math.isclose(state_complexity(dm), state_complexity(e))
        assert perfectness_index(dm) == perfectness_index(e)


def test_poly_signature():
    dm = minimize(direct_product(L2, L2)).device
    e, _ = random_equivalent(dm, seed=4242)
    assert poly_signature(dm) == poly_signature(e)
    big_a = minimize(product_of([L4, L3, L3])).device
    big_b = minimize(product_of([L4, L4, L2])).device
    assert poly_signature(big_a) != poly_signature(big_b)
    # single-read devices with matching block counts are indistinguishable
    assert poly_signature(make_perfect(3)) == poly_signature(
        random_equivalent(make_perfect(3), seed=1)[0])
    assert poly_signature(minimize(make_projective(5)).device) != poly_signature(
        minimize(direct_product(L2, L3)).device)
    with pytest.raises(TypeError):  # the depth is fixed at 2
        poly_signature(L2, depth=2)


def test_poly_signature_matches_the_pair_by_pair_oracle():
    """Profiles read off the pair counts equal (|p|, |p meet r|, |p join r|)
    counted on every ordered read pair with the oracles: 300 seeded devices."""
    rng = random.Random(11)
    for _ in range(300):
        dev = random_device(rng)
        assert poly_signature(dev) == poly_signature_oracle(dev)


def _assert_pair_counts_exact(dev):
    meets, joins = _pair_counts(dev)
    for a, pa in enumerate(dev.partitions):
        for b, pb in enumerate(dev.partitions):
            assert meets[a, b] == pa.meet(pb).num_blocks
            assert joins[a, b] == pa.join(pb).num_blocks


def test_pair_counts_join_of_70_blocks():
    from asdkit.devices import Device
    from asdkit.partitions import GroundSet, Partition
    g = GroundSet(str(i) for i in range(70))
    assert _pair_counts(Device(g, [Partition.identity(g)]))[1][0, 0] == 70


def test_pair_counts_join_of_130_and_57_blocks():
    from asdkit.devices import Device
    from asdkit.partitions import GroundSet, Partition
    g = GroundSet(str(i) for i in range(130))
    rng = random.Random(0)
    labels = list(range(57)) + [rng.randrange(57) for _ in range(73)]
    rng.shuffle(labels)
    dev = Device(g, [Partition.identity(g), Partition.from_raw(g, labels)])
    ident = next(a for a, pa in enumerate(dev.partitions) if pa.is_identity)
    assert _pair_counts(dev)[1][ident, 1 - ident] == 57
    _assert_pair_counts_exact(dev)


def test_pair_counts_match_lattice_operations():
    rng = random.Random(109)
    for _ in range(40):
        _assert_pair_counts_exact(random_device(rng))
    _assert_pair_counts_exact(minimize(direct_product(L3, L3)).device)


def test_pair_counts_across_chunk_boundaries():
    """Counts computed above the diagonal and mirrored below agree with the lattice."""
    from asdkit.devices import Device
    from asdkit.partitions import GroundSet, Partition
    rng = random.Random(300)
    g = GroundSet(f"s{i}" for i in range(40))
    dev = Device(g, [Partition.from_raw(g, [rng.randrange(8) for _ in range(40)])
                     for _ in range(300)])
    parts = dev.partitions
    q, r = len(parts), max(p.num_blocks for p in parts)
    chunk = (1 << 22) // (q * r * r)  # rows per chunk in _pair_counts
    assert chunk < q
    meets, joins = _pair_counts(dev)
    assert (meets == meets.T).all() and (joins == joins.T).all()
    pairs = [(a, a) for a in range(q)]
    pairs += [(a, b) for c in range(chunk, q, chunk) for a in range(c) for b in range(c, q)]
    for a, b in pairs:
        assert meets[a, b] == parts[a].meet(parts[b]).num_blocks
        assert joins[a, b] == parts[a].join(parts[b]).num_blocks


@pytest.mark.parametrize("reads, blocks, states", [(300, 3, 200), (3, 300, 600)])
def test_pair_counts_peak_within_its_estimate(reads, blocks, states):
    """_pair_counts_bytes bounds the traced peak of _pair_counts from above,
    with many reads of few blocks (one chunk of many reads) and with few
    reads of many blocks (one read per chunk), and stays within twice it."""
    from asdkit.devices import Device
    from asdkit.partitions import GroundSet, Partition
    rng = random.Random(reads)
    g = GroundSet(str(i) for i in range(states))
    parts = {}
    while len(parts) < reads:
        pt = Partition.from_raw(g, [rng.randrange(blocks) for _ in range(states)])
        parts[pt.labels] = pt
    dev = Device(g, parts.values())
    tracemalloc.start()
    try:
        _pair_counts(dev)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _pair_counts_bytes(dev) <= 2 * peak


def test_signature_peak_within_its_estimate():
    """The pair counts' estimate plus 26 bytes per pair of reads bounds the
    traced peak of a fresh depth-2 signature from above, and stays within
    twice it, both where the pair-count pass is the peak (300 two-block
    reads) and where the sort after it is (2,000 two-block reads, whose pair
    counts are chunked)."""
    for reads, sort_is_peak in ((300, False), (2000, True)):
        dev = two_block_reads(random.Random(5), reads)
        tracemalloc.start()
        try:
            poly_signature(dev)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak > _pair_counts_bytes(dev)) == sort_is_peak
        assert peak <= _pair_counts_bytes(dev) + 26 * reads ** 2 <= 2 * peak


def test_signature_refused_beyond_its_memory_bound(monkeypatch):
    """3,000 two-block reads on 16 states (a JSON file of a few hundred kB)
    would take about 440 MiB; the signature refuses before any pair count."""
    dev = two_block_reads(random.Random(6), 3000)
    assert _pair_counts_bytes(dev) + 26 * 3000 ** 2 > config.MAX_PAIR_BYTES

    def fail(_):
        raise AssertionError("_pair_counts ran")

    monkeypatch.setattr(invariants, "_pair_counts", fail)
    with pytest.raises(LimitExceeded):
        poly_signature(dev)


def test_certificate_read_off_the_histograms_without_pair_counts(monkeypatch):
    """Every minimized read of L4 x L3 and of L3 x L3 has 4 blocks: 105
    against 49 reads decide the certificate, and no pair count is built.  The
    size check still comes first, so an oversized side gives no certificate."""
    def fail(_):
        raise AssertionError("_pair_counts ran")

    monkeypatch.setattr(invariants, "_pair_counts", fail)
    assert _signature_certificate(direct_product(L4, L3), direct_product(L3, L3)) == {
        "depth": 2, "profile": [4, 4, 4], "left_count": 105, "right_count": 49}
    assert _signature_certificate(two_block_reads(random.Random(6), 3000), L3) is None


def test_certificate_past_equal_histograms():
    """One 2-block read on each minimized side: (2, 2, 2) counts agree, and the
    least differing profile comes from the count tables."""
    from asdkit.devices import Device
    from asdkit.partitions import GroundSet, Partition
    g5 = GroundSet(f"s{i}" for i in range(5))
    a = Device(g5, [Partition.from_blocks(g5, [["s0", "s3"], ["s1", "s2", "s4"]])])
    g4 = GroundSet(f"s{i}" for i in range(4))
    b = Device(g4, [Partition.from_blocks(g4, blocks) for blocks in (
        [["s0", "s1", "s2", "s3"]], [["s0", "s1", "s3"], ["s2"]],
        [["s0"], ["s1", "s2", "s3"]], [["s0"], ["s1", "s2"], ["s3"]])])
    assert _signature_certificate(a, b) == {
        "depth": 2, "profile": [2, 4, 1], "left_count": 0, "right_count": 1}


def test_memo_shares_results_and_skips_errors():
    """Memoized values are computed once per device; a raising call stores nothing."""
    from asdkit.devices import Device
    dev = minimize(direct_product(L2, L3)).device
    meets, joins = _pair_counts(dev)
    assert _pair_counts(dev)[0] is meets
    assert not meets.flags.writeable and not joins.flags.writeable
    with pytest.raises(ValueError):
        joins[0, 0] = 0
    assert poly_signature(dev) is poly_signature(dev)
    assert minimize(dev) is minimize(dev)
    copy = Device(dev.states, dev.partitions)
    assert copy == dev and minimize(copy) is not minimize(dev)
    big = two_block_reads(random.Random(6), 3000)  # refused before any pair count
    big.meet_of_all()
    keys = set(big._memo)
    for _ in range(2):
        with pytest.raises(LimitExceeded):
            poly_signature(big)
    assert set(big._memo) == keys
