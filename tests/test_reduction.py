"""Reduction search, equivalence decision, relabeling, and the guessing game."""

import itertools
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from asdkit import factorization, reduction
from asdkit.devices import (
    Device,
    classify,
    direct_product,
    k_reads,
    make_linear,
    make_perfect,
    make_projective,
    product_of,
)
from asdkit.errors import LimitExceeded, PreconditionMismatch, SearchBudgetExceeded
from asdkit.graphs import complete_graph, graph_device, make_graph
from asdkit.minimization import is_partition_minimal, is_state_minimal, minimize, state_quotient
from asdkit.partitions import GroundSet, Partition
from asdkit.reduction import (
    _search_bijection,
    _search_reduction,
    _search_reduction_bitmask,
    decide_equivalence,
    find_reduction,
    ip_nonequiv_sim,
    random_equivalent,
)
from asdkit.witnesses import Reduction, identity_reduction, verify_reduction

from corpus import (
    ac_fixpoint_oracle,
    least_bijection_oracle,
    least_reduction_oracle,
    mask_step_oracle,
    random_binary_device,
    random_device,
    random_graph,
    random_partition,
    random_small_pair,
    reducible_pair,
    regroup_oracle,
    twin_graph,
    with_twins,
)

L2 = make_linear(2)
L3 = make_linear(3)
L4 = make_linear(4)


def _two_read_device(blocks_a, blocks_b):
    g = GroundSet("0123")
    return Device(g, [Partition.from_blocks(g, blocks_a),
                      Partition.from_blocks(g, blocks_b)])


def test_verify_reduction_examples():
    d = make_linear(2)
    assert verify_reduction(d, d, identity_reduction(d))
    g = GroundSet("ab")
    triv = Device(g, [Partition.top(g)])
    any_map = Reduction((0, 0), (0,))
    assert verify_reduction(triv, d.with_name(None), Reduction((0, 0), (0,)))
    assert verify_reduction(triv, triv, any_map)
    # constant phi cannot carry a separating read
    const = Reduction((0,) * 4, (0, 0, 0))
    assert not verify_reduction(d, d, const)


def test_find_reduction_known_negatives():
    assert find_reduction(direct_product(L3, L3), product_of([L2, L2, L2])) is None
    assert find_reduction(direct_product(L3, L3), direct_product(L4, L2)) is None


def test_reduces_to_perfect_device_of_sigma_size():
    rng = random.Random(127)
    for _ in range(40):
        d = random_device(rng, 6, 4)
        target = make_perfect(d.meet_of_all().num_blocks)
        red = find_reduction(d, target)
        assert red is not None
        assert verify_reduction(d, target, red)


def test_agrees_with_brute_force_oracle():
    """Witness-exact agreement on small pairs, including the None side.

    The bitmask fallback is checked on the same pairs without the prescreen,
    so its own search decides every one of them, from the source's state
    quotient with the witness lifted back as find_reduction does.
    """
    rng = random.Random(131)
    agree = 0
    for _ in range(220):
        src, dst = random_small_pair(rng)
        expect = least_reduction_oracle(src, dst)
        got = find_reduction(src, dst)
        quot, meet = state_quotient(src)
        fallback = _search_reduction_bitmask(quot, dst, 10_000_000)
        if fallback is not None:
            fallback = Reduction(tuple(fallback.phi[c] for c in meet.labels), fallback.alpha)
        for red in (got, fallback):
            if expect is None:
                assert red is None
            else:
                assert red is not None
                assert (red.phi, red.alpha) == expect
                assert verify_reduction(src, dst, red)
        agree += 1
    assert agree == 220


def _random_pair(seed):
    rng = random.Random(seed)
    return random_device(rng, 8, 5), random_device(rng, 8, 5)


def _graph(edges):
    return graph_device(make_graph("abcdef", edges))


C6 = _graph([("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "f"), ("a", "f")])
TWO_TRIANGLES = _graph([("a", "b"), ("b", "c"), ("a", "c"), ("d", "e"), ("e", "f"), ("d", "f")])
# K_{2,2,2} has triangles but no 4-clique
OCTAHEDRON = _graph([e for e in itertools.combinations("abcdef", 2)
                     if e not in {("a", "d"), ("b", "e"), ("c", "f")}])
K4 = graph_device(complete_graph(4))
# the octahedron plus two vertices g and h making e, f, g, h a 4-clique
OCTAHEDRON_AND_K4 = graph_device(make_graph("abcdefgh", [
    e for e in itertools.combinations("abcdefgh", 2)
    if e not in {("a", "d"), ("b", "e"), ("c", "f")}
    and (set(e) <= set("abcdef") or set(e) <= set("efgh"))]))


def _relabel_search(dev, seed):
    m = minimize(dev).device
    other, _ = random_equivalent(m, seed)
    return lambda budget: _search_bijection(m, other, budget)


def _min_pair_search(a, b):
    am, bm = minimize(a).device, minimize(b).device
    return lambda budget: _search_bijection(am, bm, budget)


def _twin_search(src, dst, k, seed):
    """find_reduction from src with k of its states given twins, so from its state quotient."""
    twinned = with_twins(random.Random(seed), src, k)
    return lambda budget: find_reduction(twinned, dst, budget=budget, structural=False)


# (search, nodes needed to decide, decided yes); each search has a yes and a no
NODE_PINS = {
    "numpy L2xL3 -> L3xL2": (
        lambda b: _search_reduction(direct_product(L2, L3), direct_product(L3, L2), b),
        528, True),
    # K4's states are symmetric, so its images are searched in increasing order
    "numpy K4 -> octahedron": (
        lambda b: _search_reduction(K4, OCTAHEDRON, b), 45, False),
    "numpy K4 -> octahedron and K4": (
        lambda b: _search_reduction(K4, OCTAHEDRON_AND_K4, b), 92, True),
    "numpy random pair 9": (
        lambda b: _search_reduction(*_random_pair(9), b), 279, True),
    # the quotient of L2xL3 with 11 twins is L2xL3, so the count is the one above
    "twin source L2xL3 with 11 twins -> L3xL2": (
        _twin_search(direct_product(L2, L3), direct_product(L3, L2), 11, 11), 528, True),
    "twin source random pair 56 with 3 twins": (_twin_search(*_random_pair(56), 3, 56), 352, False),
    "bitmask random pair 9": (
        lambda b: _search_reduction_bitmask(*_random_pair(9), b), 1301, True),
    "bitmask K4 -> octahedron": (
        lambda b: _search_reduction_bitmask(K4, OCTAHEDRON, b), 942, False),
    "bitmask random pair 11": (
        lambda b: _search_reduction_bitmask(*_random_pair(11), b), 4088, False),
    "bijection P4 relabelled": (_relabel_search(make_projective(4), 0), 136, True),
    "bijection L2xL2 relabelled": (_relabel_search(direct_product(L2, L2), 0), 136, True),
    # states with unequal size profiles, so the profile filter prunes here
    "bijection random device 6 relabelled": (
        _relabel_search(random_device(random.Random(6), 8, 5), 6), 52, True),
    "bijection C6 vs two triangles": (_min_pair_search(C6, TWO_TRIANGLES), 114, False),
}


@pytest.mark.parametrize("name", sorted(NODE_PINS))
def test_search_node_counts_pinned(name):
    """Each search decides within exactly its pinned node count.

    A change to the search order or to its pruning shows up here as a
    different count, even where the verdict and witness stay the same.
    """
    search, nodes, yes = NODE_PINS[name]
    assert (search(nodes) is not None) == yes
    with pytest.raises(SearchBudgetExceeded):
        search(nodes - 1)


def test_swap_is_automorphism_on_each_branch(monkeypatch):
    """Rejected by the size rows before any read is rebuilt; rejected on a
    rebuilt read; accepted once every moved read is found; accepted with no
    read rebuilt when the swap moves no read."""
    rebuilt = []

    def dense(raw):
        rebuilt.append(raw)
        return reduction_dense(raw)

    reduction_dense = reduction._dense
    monkeypatch.setattr(reduction, "_dense", dense)
    path = graph_device(make_graph("abcd", [("a", "b"), ("b", "c"), ("c", "d")]))
    # over the reads ab, bc, cd, a lies in blocks of sizes 1, 2, 2 and b in 1, 1, 2
    assert not reduction._swap_is_automorphism(path, 0, 1) and not rebuilt
    # b and c lie in blocks of sizes 1, 1, 2 both, but the swap carries ab to ac;
    # bc holds both as singletons, so only ab is rebuilt before the answer
    assert not reduction._swap_is_automorphism(path, 1, 2) and len(rebuilt) == 1
    rebuilt.clear()
    # the swap carries the reads of edges 02, 03, 12, 13 onto each other
    assert reduction._swap_is_automorphism(K4, 0, 1) and len(rebuilt) == 4
    rebuilt.clear()
    g = GroundSet("0123")
    together_or_apart = Device(g, [Partition.from_blocks(g, [["0", "1"], ["2", "3"]]),
                                   Partition.identity(g)])
    assert reduction._swap_is_automorphism(together_or_apart, 0, 1) and not rebuilt


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["K4", "K5", "twins"]), st.integers(0, 2 ** 32 - 1))
def test_source_symmetry_keeps_the_least_witness(kind, seed):
    """The numpy step from a symmetric state-minimal source returns the least
    witness, or None, exactly as brute enumeration does: complete graphs,
    and graphs with two non-adjacent twin vertices at adjacent indices."""
    rng = random.Random(seed)
    # target sizes that keep the oracle's enumeration under a second
    src, hi = {"K4": (K4, 8), "K5": (graph_device(complete_graph(5)), 7),
               "twins": (graph_device(twin_graph(rng, 4, 5)), 7)}[kind]
    assert is_state_minimal(src)
    assert any(reduction._swap_is_automorphism(src, x - 1, x) for x in range(1, src.num_states))
    dst = graph_device(random_graph(rng, 4, hi, p=rng.choice((0.6, 0.8, 0.9))))
    red = _search_reduction(src, dst, 10_000_000)
    assert (None if red is None else (red.phi, red.alpha)) == least_reduction_oracle(src, dst)


def _nodes_to_decide(search) -> int:
    """Least budget within which search decides: doubled until it does, then bisected."""
    low, high = 0, 1
    while True:
        try:
            search(high)
            break
        except SearchBudgetExceeded:
            low, high = high, 2 * high
    while high - low > 1:
        mid = (low + high) // 2
        try:
            search(mid)
            high = mid
        except SearchBudgetExceeded:
            low = mid
    return high


def test_source_symmetry_only_prunes(monkeypatch):
    """With the automorphism test patched to say no, the same seeded searches
    give the same verdict and witness, and none decides in fewer nodes; some
    need more."""
    rng = random.Random(167)
    sources = [K4, graph_device(complete_graph(5))]
    sources += [graph_device(twin_graph(rng, 5, 7)) for _ in range(4)]
    pruned = 0
    for src in sources:
        for _ in range(3):
            dst = graph_device(random_graph(rng, 6, 9, p=rng.choice((0.6, 0.8))))

            def search(budget):
                red = _search_reduction(src, dst, budget)
                return None if red is None else (red.phi, red.alpha)

            fewest = _nodes_to_decide(search)
            witness = search(fewest)
            monkeypatch.setattr(reduction, "_swap_is_automorphism", lambda dev, y, x: False)
            assert search(10_000_000) == witness
            with pytest.raises(SearchBudgetExceeded):
                search(fewest - 1)
            try:
                search(fewest)
            except SearchBudgetExceeded:
                pruned += 1
            monkeypatch.undo()
    assert pruned >= 6


def test_numpy_step_decides_against_a_40000_state_target(monkeypatch):
    """The numpy step holds no table that grows with the square of the target.

    Its block ids are int32, numbered across the reads of each device, so
    40,000 states do not wrap at 32,767, and its memory guard, which counts
    own and cap at 4 bytes a block and the per-level frames, keeps such a
    target in the numpy step.  The pair-count pass would take gigabytes on
    this target, so pair propagation is skipped, also for a 2-read source.
    """
    def refuse(*args):
        pytest.fail("handed to the bitmask step")

    def small_pair_counts(dev):
        if dev.num_states > 1000:
            pytest.fail(f"pair counts taken on {dev.num_states} states")
        return pair_counts(dev)

    pair_counts = reduction._pair_counts
    monkeypatch.setattr(reduction, "_search_reduction_bitmask", refuse)
    monkeypatch.setattr(reduction, "_pair_counts", small_pair_counts)
    big = GroundSet(str(i) for i in range(40_000))
    dst = Device(big, [Partition.identity(big)])
    one, two = GroundSet(["x"]), GroundSet(["x", "y"])
    assert _search_reduction(Device(one, [Partition.top(one)]), dst, 10) == \
        Reduction((0,), (0,))
    assert _search_reduction(Device(two, [Partition.identity(two)]), dst, 10) == \
        Reduction((0, 1), (0,))
    dst2 = Device(big, [Partition.identity(big), Partition.top(big)])
    src2 = Device(two, [Partition.identity(two), Partition.top(two)])
    assert _search_reduction(src2, dst2, 10) == Reduction((0, 1), (0, 1))


def _refuse_bitmask(*args):
    pytest.fail("handed to the bitmask step")


def _many_read_device(reads, states, seed):
    """A device of `reads` distinct random reads of 2-4 blocks each."""
    rng = random.Random(seed)
    g = GroundSet(str(i) for i in range(states))
    parts = {}
    while len(parts) < reads:
        k = rng.randint(2, 4)
        pt = Partition.from_raw(g, [rng.randrange(k) for _ in range(states)])
        parts[pt.labels] = pt
    return Device(g, parts.values())


def test_pair_propagation_beyond_the_float32_bound(monkeypatch):
    """80 reads a side passes the 40M-entry bound of a float32 (p, p, q, q)
    tensor, but packed into 2-word rows it takes 8 MB, so _ac_narrow runs."""
    p = q = 80
    assert p * p * q * q > 40_000_000 and 17 * p * p * q * 2 <= 160_000_000
    shapes = []

    def spy(alive, allowb):
        shapes.append(allowb.shape)
        return ac_narrow(alive, allowb)

    ac_narrow = reduction._ac_narrow
    monkeypatch.setattr(reduction, "_ac_narrow", spy)
    monkeypatch.setattr(reduction, "_search_reduction_bitmask", _refuse_bitmask)
    dev = _many_read_device(80, 10, 1)
    red = _search_reduction(dev, dev, 1000)
    assert red is not None and verify_reduction(dev, dev, red)
    assert shapes and set(shapes) == {(2, p, p, q)}


def test_pair_propagation_skipped_beyond_the_packed_bound(monkeypatch):
    """150 reads a side packs into 3-word rows of 81 MB, with a round's
    temporaries over the 160 MB bound, so no pair counts are taken."""
    p = q = 150
    assert 17 * p * p * q * 3 > 160_000_000

    def refuse(dev):
        pytest.fail("pair counts taken above the packed bound")

    monkeypatch.setattr(reduction, "_pair_counts", refuse)
    monkeypatch.setattr(reduction, "_search_reduction_bitmask", _refuse_bitmask)
    dev = _many_read_device(150, 8, 2)
    red = _search_reduction(dev, dev, 1000)
    assert red is not None and verify_reduction(dev, dev, red)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.sampled_from([1, 7, 63, 64, 65, 130]),
       st.floats(0.5, 1.0), st.floats(0.5, 8.0), st.integers(0, 2 ** 32 - 1))
def test_packed_ac_narrow_matches_the_plain_fixpoint(p, q, live, partners, seed):
    """_ac_narrow on the packed tensor returns the plain arc-consistency fixpoint.

    q covers a word with padding bits (1, 7, 63), a full word (64) and rows of
    two and three words (65, 130).  Each candidate has about `partners`
    compatible candidates per row, so draws keep every candidate, prune some,
    or empty a row.
    """
    rng = np.random.default_rng(seed)
    alive = rng.random((p, q)) < live
    allow = rng.random((p, p, q, q)) < partners / q
    got = reduction._ac_narrow(alive, reduction._words(allow))
    assert (None if got is None else got.tolist()) == ac_fixpoint_oracle(alive.tolist(),
                                                                         allow.tolist())


@pytest.mark.parametrize("q", [1, 7, 8, 9, 63, 64, 65, 200])
def test_sep_column_matches_the_raw_label_oracle(q):
    """Every column of a device's block table gives every state t the bitmask
    of reads whose raw labels at t and s differ, bit k for the device's k-th
    read (the device sorts its reads).  q covers a partial byte, a full one,
    a byte and a bit, and the 64-read word boundaries."""
    rng = random.Random(q)
    n = 12
    ground = GroundSet(f"s{i}" for i in range(n))
    raw_of = {}
    while len(raw_of) < q:
        raw = [rng.randrange(rng.randint(1, n)) for _ in range(n)]
        raw_of.setdefault(Partition.from_raw(ground, raw).labels, raw)
    dev = Device(ground, [Partition.from_raw(ground, raw) for raw in raw_of.values()])
    raws = [raw_of[pi.labels] for pi in dev.partitions]
    assert len(raws) == q
    ids = reduction._block_table(dev)[0]
    for s in range(n):
        expect = [sum(1 << k for k, raw in enumerate(raws) if raw[t] != raw[s]) for t in range(n)]
        assert reduction._sep_column(ids, s) == expect


def test_bijection_search_builds_a_column_only_for_images_of_checked_states(monkeypatch):
    """On a relabelled L4xL3 (128 states, 105 reads) each target's separation
    column is built at most once, only once the target is the image of a
    block-least source state, and for fewer targets than there are states."""
    src = minimize(direct_product(L4, L3)).device
    dst, _ = random_equivalent(src, 1)
    least = {pi.labels.index(b) for pi in src.partitions for b in range(pi.num_blocks)}
    sep_column, backtrack = reduction._sep_column, reduction._backtrack
    assigned, built, from_least = set(), [], []

    def column_spy(ids, s):
        built.append(s)
        from_least.append(any((y, s) in assigned for y in least))
        return sep_column(ids, s)

    def backtrack_spy(nd, ne, root, extend, budget):
        def recorded(frame, x, t):
            child = extend(frame, x, t)
            if child is not None:
                assigned.add((x, t))
            return child
        return backtrack(nd, ne, root, recorded, budget)

    monkeypatch.setattr(reduction, "_sep_column", column_spy)
    monkeypatch.setattr(reduction, "_backtrack", backtrack_spy)
    phi, alpha = _search_bijection(src, dst, 10 ** 6)
    assert verify_reduction(src, dst, Reduction(phi, alpha))
    assert len(set(built)) == len(built) and all(from_least)
    assert 0 < len(built) < src.num_states


def _reads_shuffled(rng, dev):
    """A minimal device with dev's counts and block sizes, each read's states
    permuted on their own; None if 1,000 draws give no minimal one."""
    n = dev.num_states
    for _ in range(1000):
        shuffled = [[p.labels[y] for y in rng.sample(range(n), n)] for p in dev.partitions]
        other = Device(dev.states, [Partition.from_raw(dev.states, raw) for raw in shuffled])
        if (other.num_partitions == dev.num_partitions and is_state_minimal(other)
                and is_partition_minimal(other)):
            return other
    return None


@settings(max_examples=200, deadline=None)
@given(st.booleans(), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_mask_step_matches_the_pairwise_oracle(exact, related, seed):
    """Every child of the bitmask step equals the masks recomputed over all pairs.

    Along a random injective prefix, each unused target is tried at each
    depth and its child, None included, is compared with the oracle; the
    prefix then follows a surviving target, the relabelling's image when it
    survives.  Exact mode runs on minimal devices against a relabelled copy
    or an unrelated minimal device with the same counts and block sizes, as
    the bijection search does; the other mode on random pairs.
    """
    rng = random.Random(seed)
    guide = None
    if exact:
        ground = GroundSet(f"s{i}" for i in range(rng.randint(4, 8)))
        src = minimize(Device(ground, [random_partition(rng, ground)
                                       for _ in range(rng.randint(2, 4))])).device
        if related:
            dst, (fwd, _) = random_equivalent(src, seed)
            guide = fwd.phi
        else:
            dst = _reads_shuffled(rng, src)
            assume(dst is not None)
    else:
        src, dst = random_device(rng, 6, 4), random_device(rng, 8, 4)
    full = (1 << dst.num_partitions) - 1
    root = [full if related else rng.randrange(1, full + 1) for _ in src.partitions]
    extend = reduction._mask_step(src, dst, exact)
    cands, phi = root, []
    for x in range(src.num_states):
        unused = [t for t in range(dst.num_states) if t not in phi]
        alive = []
        for t in unused:
            child = extend(cands, x, t)
            assert child == mask_step_oracle(src, dst, root, phi + [t], exact), (x, t)
            if child is not None:
                alive.append(t)
        if not alive:
            break
        t = guide[x] if guide and guide[x] in alive else rng.choice(alive)
        cands = extend(cands, x, t)  # the step keeps the last target tried as x's image
        phi.append(t)


@settings(max_examples=100, deadline=None)
@given(st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_search_bijection_returns_the_least_bijection(related, seed):
    """_search_bijection returns the enumeration oracle's least (phi, alpha), or None.

    Minimal devices of up to 7 states meet a relabelled copy, where the least
    bijection need not be the relabelling, or an unrelated minimal device with
    the same counts and block sizes, so the search runs on both verdicts.
    """
    rng = random.Random(seed)
    ground = GroundSet(f"s{i}" for i in range(rng.randint(3, 7)))
    src = minimize(Device(ground, [random_partition(rng, ground)
                                   for _ in range(rng.randint(2, 4))])).device
    dst = random_equivalent(src, seed)[0] if related else _reads_shuffled(rng, src)
    assume(dst is not None)
    assert _search_bijection(src, dst, 10 ** 6) == least_bijection_oracle(src, dst)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 9), min_size=1, max_size=4), st.data())
def test_sizes_regroup_matches_every_assignment(a_sizes, data):
    """_sizes_regroup agrees with trying every assignment of items to groups.

    The items split the same total at random cuts, so that the grouping
    decides, or the split loses its last item or gains one.
    """
    total = sum(a_sizes)
    cuts = sorted(data.draw(st.sets(st.integers(1, total - 1), max_size=5))) if total > 1 else []
    items = [b - a for a, b in zip([0] + cuts, cuts + [total])]
    change = data.draw(st.sampled_from(["same", "same", "short", "surplus"]))
    if change == "short" and len(items) > 1:
        items.pop()
    elif change == "surplus":
        items.append(data.draw(st.integers(1, 3)))
    items = data.draw(st.permutations(items))
    assert reduction._sizes_regroup(tuple(a_sizes), tuple(items)) == \
        regroup_oracle(a_sizes, items)


def _guard_bytes(src, dst):
    """The numpy step's memory count: own and cap, 13 bytes a pair per level, 5 at the root."""
    p, q = src.num_partitions, dst.num_partitions
    blocks_d = sum(pi.num_blocks for pi in src.partitions)
    blocks_e = sum(rho.num_blocks for rho in dst.partitions)
    return 4 * (p * blocks_e + q * blocks_d) + p * q * (13 * src.num_states + 5)


@pytest.mark.parametrize("seed", range(5))
def test_block_table_numbers_blocks_across_reads_in_read_order(seed):
    """ids are each read's labels shifted by the blocks of the reads before
    it, sizes its block sizes in the same order; both are read-only int32
    arrays, built once per device."""
    dev = random_device(random.Random(seed), 12, 6)
    ids, sizes = reduction._block_table(dev)
    start = 0
    for i, pi in enumerate(dev.partitions):
        assert ids[:, i].tolist() == [start + b for b in pi.labels]
        assert sizes[start:start + pi.num_blocks].tolist() == list(pi.block_sizes())
        start += pi.num_blocks
    assert ids.shape == (dev.num_states, dev.num_partitions) and sizes.shape == (start,)
    assert ids.dtype == sizes.dtype == np.int32
    for arr in (ids, sizes):
        with pytest.raises(ValueError):
            arr[0] = 0
    again = reduction._block_table(dev)
    assert again[0] is ids and again[1] is sizes


def test_block_table_refuses_block_ids_past_int32():
    """2**31 blocks cannot all have int32 ids, so no array is built."""
    g = GroundSet("ab")
    dev = Device(g, [Partition(g, (0, 1), 2 ** 31)])
    tracemalloc.start()
    try:
        with pytest.raises(LimitExceeded):
            reduction._block_table(dev)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_flat_count_keeps_an_input_the_padded_count_routed_away(monkeypatch):
    """An identity read and 36 two-block reads on 11,000 states, as both sides.

    Padding own and cap to the most blocks of a read counts
    pq (4 (remax + rdmax) + 13 nd + 5) = 316,245,845 bytes, over 300 MiB, which
    sent this input to the bitmask step.  The flat count is 199,051,157, so
    the numpy step keeps it.  No input can move the other way: on each side
    the blocks of all reads number at most reads x most blocks of a read, so
    the flat count never exceeds the padded one.
    """
    states = 11_000
    g = GroundSet(str(i) for i in range(states))
    halves = [*range(1, 28), *(2 ** k for k in range(5, 14))]  # x // m % 2 has two blocks
    codes = [[x // m % 2 for x in range(states)] for m in halves]
    dev = Device(g, [Partition.identity(g)] + [Partition.from_raw(g, c) for c in codes])
    assert dev.num_partitions == 37 and is_state_minimal(dev)
    padded = 37 * 37 * (4 * (states + states) + 13 * states + 5)
    assert _guard_bytes(dev, dev) == 199_051_157 <= 300 * 2 ** 20 < padded == 316_245_845
    monkeypatch.setattr(reduction, "_search_reduction_bitmask", _refuse_bitmask)
    with pytest.raises(SearchBudgetExceeded):
        _search_reduction(dev, dev, 10)


def test_8868_state_identity_source_runs_the_numpy_step(monkeypatch):
    """The guard admits every input that per-level copies of own and cap did.

    Those counted pq N (2 remax + 4 rdmax + 10) bytes with N = nd + 1; one
    own and one cap with a trail count 4 (p sum nb_e + q sum nb_d) + pq (13 nd + 5)
    (_guard_bytes).  A side's blocks number at most its reads times its most
    blocks of a read, so this is at most pq (4 (remax + rdmax) + 13 nd + 5),
    which is pq ((2N - 4) remax + (4N - 4) rdmax - 3N + 8) >= pq (N + 4) less
    than the copies.  The copies put an 8,868-state identity over 300 MiB,
    into the bitmask step; the trail counts about 186 kB, so the numpy step
    meets the budget.
    """
    g = GroundSet(str(i) for i in range(8_868))
    dev = Device(g, [Partition.identity(g)])
    assert 8_869 * (2 * 8_868 + 4 * 8_868 + 10) > 300 * 2 ** 20 > _guard_bytes(dev, dev)
    monkeypatch.setattr(reduction, "_search_reduction_bitmask", _refuse_bitmask)
    with pytest.raises(SearchBudgetExceeded):
        _search_reduction(dev, dev, 10)


def _binary_reads_device(states):
    """A state-minimal device of 22 two-block reads: 16 bits of the state index and 6 more."""
    g = GroundSet(str(i) for i in range(states))
    codes = [[x >> k & 1 for x in range(states)] for k in range(16)]
    codes += [[x // m % 2 for x in range(states)] for m in (3, 5, 6, 7, 9, 10)]
    dev = Device(g, [Partition.from_raw(g, c) for c in codes])
    assert dev.num_partitions == 22 and is_state_minimal(dev)
    return dev


def test_memory_guard_routes_at_300_mib(monkeypatch):
    """22 two-block reads a side count 314,572,412 bytes at 49,994 states,
    just under 300 MiB, and 314,578,704 at 49,995, just over: the first
    stays in the numpy step, the second goes to the bitmask step."""
    class Handed(Exception):
        pass

    def handed(*args):
        raise Handed

    monkeypatch.setattr(reduction, "_search_reduction_bitmask", handed)
    under, over = _binary_reads_device(49_994), _binary_reads_device(49_995)
    assert _guard_bytes(under, under) <= 300 * 2 ** 20 < _guard_bytes(over, over)
    with pytest.raises(Handed):
        _search_reduction(over, over, 10)
    with pytest.raises(SearchBudgetExceeded):
        _search_reduction(under, under, 10)


def _identity_into_reads(states, reads, blocks, seed):
    """An identity source, and a target on as many states: the identity and random reads."""
    rng = random.Random(seed)
    g = GroundSet(str(i) for i in range(states))
    parts = {Partition.identity(g).labels: Partition.identity(g)}
    while len(parts) < reads:
        pt = Partition.from_raw(g, [rng.randrange(blocks) for _ in range(states)])
        parts[pt.labels] = pt
    return Device(g, [Partition.identity(g)]), Device(g, parts.values())


@pytest.mark.parametrize("states, reads, blocks", [(200, 200, 3), (300, 100, 300)])
def test_search_peak_within_twice_its_memory_count(states, reads, blocks):
    """With one source read, so no pair propagation, the traced peak of a
    search that reaches full depth is at least the guard's count and at most
    twice it: many few-block target reads (levels dominate), and target
    reads with up to 300 blocks (own and cap weigh more).  The rest is the
    block tables, 4 bytes a state per read, and about 1 KB of array headers
    per level, which the count leaves out."""
    src, dst = _identity_into_reads(states, reads, blocks, states)
    tracemalloc.start()
    try:
        red = _search_reduction(src, dst, 10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert red is not None and verify_reduction(src, dst, red)
    assert _guard_bytes(src, dst) <= peak <= 2 * _guard_bytes(src, dst)


def _nine_state_trio(seed):
    """A 9-state binary device that is no product, and two products of 3-state binaries."""
    rng = random.Random(seed)
    single = random_binary_device(rng, 9)
    return single, *(direct_product(random_binary_device(rng, 3), random_binary_device(rng, 3))
                     for _ in range(2))


def test_structural_refutation_only_refutes(monkeypatch):
    """Each way the structural refutation declines leaves the answer to the search.

    A source or target that is no product of two or more non-perfect
    binaries, or a budget hit inside a factorization, makes it return False,
    so find_reduction answers exactly as with structural=False.
    """
    calls = []
    factor_binary = factorization.factor_binary
    monkeypatch.setattr(factorization, "factor_binary",
                        lambda dev, **kw: calls.append(dev) or factor_binary(dev, **kw))
    single, prod, _ = _nine_state_trio(1)
    # a source with one binary factor; then a target that is perfect, so has no binary factors
    for src, dst, factored in ((single, prod, 1), (prod, make_perfect(9), 2)):
        calls.clear()
        assert not reduction._structural_refute(src, dst, 10 ** 6)
        assert len(calls) == factored
        assert find_reduction(src, dst) == find_reduction(src, dst, structural=False)

    _, a, b = _nine_state_trio(3)
    assert reduction._structural_refute(a, b, 10 ** 6)

    def over_budget(dev, **kw):
        raise SearchBudgetExceeded(1, 0)

    monkeypatch.setattr(factorization, "factor_binary", over_budget)
    assert not reduction._structural_refute(a, b, 10 ** 6)
    assert find_reduction(a, b) is None
    assert find_reduction(a, b, structural=False) is None


def test_structural_route_refutes_l4xl2_into_l3xl3(monkeypatch):
    """Both 64-state products factor with certified equivalences, and no
    index partition maps L4, L2 onto L3, L3, so no search is needed."""
    def refuse(*args):
        pytest.fail("handed to the search")

    monkeypatch.setattr(reduction, "_search_reduction", refuse)
    assert find_reduction(direct_product(L4, L2), direct_product(L3, L3)) is None


def test_product_composition_of_witnesses():
    """D<=D' and E<=E' lift to D x E <= D' x E' with the paired witness."""
    rng = random.Random(137)
    built = 0
    while built < 25:
        d, dp = reducible_pair(rng)
        e, ep = reducible_pair(rng)
        rd = find_reduction(d, dp)
        re_ = find_reduction(e, ep)
        if rd is None or re_ is None:
            continue
        src = direct_product(d, e)
        dst = direct_product(dp, ep)
        ne = e.num_states
        nep = ep.num_states
        phi = tuple(rd.phi[i] * nep + re_.phi[j]
                    for i in range(d.num_states) for j in range(ne))
        alpha = []
        for pr in src.partitions:
            # recover one (i, j) generating this product read
            hit = next(
                (i, j)
                for i, pi in enumerate(d.partitions)
                for j, pj in enumerate(e.partitions)
                if pi.product(pj, ground=src.states) == pr)
            img = dp.partitions[rd.alpha[hit[0]]].product(
                ep.partitions[re_.alpha[hit[1]]], ground=dst.states)
            alpha.append(dst.partitions.index(img))
        lifted = Reduction(phi, tuple(alpha))
        assert verify_reduction(src, dst, lifted)
        assert find_reduction(src, dst) is not None
        built += 1


def test_k_reads_reduction_lifts():
    """D <= D' carries over to D^(k) <= D'^(k) via the meet-lifted alpha."""
    rng = random.Random(139)
    built = 0
    while built < 15:
        d, dp = reducible_pair(rng)
        red = find_reduction(d, dp)
        if red is None or d.num_partitions < 2:
            continue
        for k in (2, 3):
            dk = k_reads(d, k)
            dpk = k_reads(dp, k)
            alpha = []
            for pm in dk.partitions:
                subset = next(
                    t for r in range(1, k + 1)
                    for t in itertools.combinations(range(d.num_partitions), r)
                    if _meet_of(d, t) == pm)
                img = _meet_of(dp, tuple(red.alpha[i] for i in subset))
                alpha.append(dpk.partitions.index(img))
            lifted = Reduction(red.phi, tuple(alpha))
            assert verify_reduction(dk, dpk, lifted)
        built += 1


def _meet_of(dev, idxs):
    m = dev.partitions[idxs[0]]
    for i in idxs[1:]:
        m = m.meet(dev.partitions[i])
    return m


def test_found_phi_injective_on_state_minimal_source():
    rng = random.Random(149)
    hits = 0
    while hits < 30:
        src, dst = random_small_pair(rng)
        if not is_state_minimal(src):
            continue
        red = find_reduction(src, dst)
        if red is None:
            continue
        assert len(set(red.phi)) == src.num_states
        hits += 1


def test_found_alpha_injective_on_regular_pairs():
    rng = random.Random(151)
    built = 0
    while built < 25:
        dst = random_binary_device(rng, rng.choice((3, 4)))
        n = rng.randint(2, 4)
        ground = GroundSet(f"t{i}" for i in range(n))
        phi = {s: dst.states.elements[rng.randrange(dst.num_states)]
               for s in ground.elements}
        # only two-block pullbacks keep the source binary
        pulls = [q.pullback(phi, ground) for q in dst.partitions]
        parts = list(dict.fromkeys(p for p in pulls if p.num_blocks == 2))
        if not parts:
            continue
        src = Device(ground, parts[:rng.randint(1, len(parts))])
        assert classify(src).binary and classify(dst).binary
        red = find_reduction(src, dst)
        assert red is not None
        assert len(set(red.alpha)) == src.num_partitions
        assert verify_reduction(src, dst, red)
        built += 1


def test_search_budget_is_an_error_not_a_no():
    with pytest.raises(SearchBudgetExceeded):
        find_reduction(L3, L3, budget=1)


def test_witnesses_deterministic():
    rng = random.Random(157)
    for _ in range(30):
        src, dst = random_small_pair(rng)
        a = find_reduction(src, dst)
        b = find_reduction(src, dst)
        if a is None:
            assert b is None
        else:
            assert (a.phi, a.alpha) == (b.phi, b.alpha)


def test_decide_equivalence_with_own_minimization():
    rng = random.Random(163)
    for _ in range(40):
        d = random_device(rng)
        res = minimize(d)
        wit = decide_equivalence(d, res.device)
        assert wit is not None
        fwd, bwd = wit
        assert verify_reduction(d, res.device, fwd)
        assert verify_reduction(res.device, d, bwd)


def test_decide_equivalence_with_relabeling():
    rng = random.Random(167)
    for _ in range(30):
        dm = minimize(random_device(rng, 6, 4)).device
        other, (fwd, bwd) = random_equivalent(dm, seed=rng.randrange(2**32))
        assert verify_reduction(dm, other, fwd)
        assert verify_reduction(other, dm, bwd)
        wit = decide_equivalence(dm, other)
        assert wit is not None


@pytest.mark.parametrize("left, right, seed, budget", [
    (L3, L3, 1, 1_000_000), (L3, L3, 2, 1_000_000), (L3, L3, 3, 1_000_000),
    (L2, L3, 1, 200_000), (L2, L3, 2, 200_000)])
def test_product_relabels_decide(left, right, seed, budget):
    """Relabelled products, where every state has the same size profile, decide within a second."""
    dm = minimize(direct_product(left, right)).device
    other, _ = random_equivalent(dm, seed)
    start = time.perf_counter()
    wit = decide_equivalence(dm, other, budget=budget)
    assert time.perf_counter() - start < 1.0
    assert wit is not None
    assert verify_reduction(dm, other, wit[0]) and verify_reduction(other, dm, wit[1])


def test_random_equivalent_is_deterministic():
    dm = minimize(direct_product(L2, L2)).device
    a, _ = random_equivalent(dm, seed=99)
    b, _ = random_equivalent(dm, seed=99)
    assert a.to_dict() == b.to_dict()
    c, _ = random_equivalent(dm, seed=100)
    assert c.num_states == a.num_states
    with pytest.raises(PreconditionMismatch):
        random_equivalent(_two_read_device([["0", "1", "2", "3"]],
                                           [["0"], ["1", "2", "3"]]), seed=1)


def test_equivalence_matches_mutual_reducibility():
    """decide_equivalence says yes exactly when the enumeration oracle finds a
    reduction each way; pairs of unrelated devices and relabelled copies."""
    rng = random.Random(173)
    for k in range(25):
        a = minimize(random_device(rng, 5, 3)).device
        b = minimize(random_device(rng, 5, 3)).device
        if k % 3 == 0:
            b, _ = random_equivalent(a, seed=k)
        wit = decide_equivalence(a, b)
        mutual = (least_reduction_oracle(a, b) is not None
                  and least_reduction_oracle(b, a) is not None)
        assert (wit is not None) == mutual
        if wit is not None:
            assert verify_reduction(a, b, wit[0]) and verify_reduction(b, a, wit[1])


def test_ip_sim_distinguishable_pair():
    d0 = _two_read_device([["0", "1"], ["2", "3"]], [["0", "2"], ["1", "3"]])
    d1 = _two_read_device([["0", "1"], ["2"], ["3"]], [["0"], ["1"], ["2", "3"]])
    out = ip_nonequiv_sim(d0, d1, trials=20, seed=7)
    assert out.accept_rate == 1
    assert out.trials == 20 and out.accepts == 20
    with pytest.raises(PreconditionMismatch):
        ip_nonequiv_sim(d0, d1, trials=0, seed=7)
    # equivalent pair: the prover can only guess
    out2 = ip_nonequiv_sim(d0, d0, trials=40, seed=11)
    assert 0.2 <= out2.accept_rate <= 0.8
