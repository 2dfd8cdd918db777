"""Binary-product reducibility, tau extraction, factorization, uniqueness."""

import itertools
import math
import random
import time
from collections import Counter

import pytest

from asdkit.devices import (
    Device,
    classify,
    direct_product,
    make_linear,
    make_perfect,
    make_projective,
    product_of,
)
from asdkit import config, factorization
from asdkit.errors import (
    DomainMismatch,
    HypothesisViolation,
    LimitExceeded,
    NonUniqueTau,
    PreconditionMismatch,
)
from asdkit.factorization import (
    _binary_candidates,
    _extract_candidate_factors,
    _lifts,
    _read_profiles,
    _restrict_to_first_join_block,
    _same_factor_multiset,
    _splittings,
    binary_product_reduce,
    extract_index_partition,
    factor_binary,
    factor_perfect,
)
from asdkit.minimization import minimize
from asdkit.partitions import GroundSet, Partition, product_ground
from asdkit.reduction import decide_equivalence, find_reduction, random_equivalent
from asdkit.witnesses import Reduction, identity_reduction

from corpus import (
    random_binary_device,
    random_device,
    refines_oracle,
    two_block_joins_oracle,
    with_coarsened_reads,
)

L2 = make_linear(2)
L3 = make_linear(3)
L4 = make_linear(4)


def _groups(res):
    return sorted(sorted(g) for g in res)


def test_binary_product_reduce_examples():
    assert binary_product_reduce([L3, L3], [L2, L2, L2]) is None
    assert _groups(binary_product_reduce([L4, L2], [L4, L2])) == [[1], [2]]
    assert _groups(binary_product_reduce([make_linear(5)], [L2, L3])) == [[1, 2]]


def test_binary_product_reduce_rejects_bad_inputs():
    with pytest.raises(HypothesisViolation):
        binary_product_reduce([make_perfect(2)], [L2])  # perfect factor
    with pytest.raises(HypothesisViolation):
        binary_product_reduce([make_perfect(4)], [L2])  # not binary
    with pytest.raises(HypothesisViolation):
        binary_product_reduce([L2], [L3])  # state products differ


def test_factor_lists_are_checked_before_any_search():
    with pytest.raises(HypothesisViolation, match="nonempty"):
        binary_product_reduce([], [L2])
    with pytest.raises(HypothesisViolation, match="nonempty"):
        extract_index_partition(identity_reduction(L2), [L2], [])
    g = GroundSet("abcd")
    merged = Device(g, [Partition.from_blocks(g, [["a", "b"], ["c", "d"]]),
                        Partition.from_blocks(g, [["a", "b", "c"], ["d"]])])
    with pytest.raises(HypothesisViolation, match=r"Es\[1\] is not state-minimal"):
        binary_product_reduce([L4], [L2, merged])
    with pytest.raises(HypothesisViolation, match="state-count products differ"):
        extract_index_partition(identity_reduction(L2), [L2], [L3])


def test_binary_product_reduce_more_blocks_than_factors():
    # m > n leaves no grouping at all
    assert binary_product_reduce([L2, L2, L2], [make_linear(6)]) is None


# the criterion-10 shapes: factor sizes per total state count
SHAPES = [(3,), (4,), (3, 3), (3, 4), (4, 3), (4, 4), (3, 3, 3), (3, 3, 4), (3, 4, 3),
          (4, 3, 3), (3, 4, 4), (4, 3, 4), (4, 4, 3), (4, 4, 4)]


def _least_tau_oracle(ds, es):
    """Index partition of the first map tau, in lexicographic order, whose
    every group passes the generic solver."""
    m, n = len(ds), len(es)
    verdicts = {}

    def ok(i, grp):
        if (i, grp) not in verdicts:
            sub = product_of(es[j] for j in grp)
            verdicts[i, grp] = find_reduction(ds[i], sub, structural=False) is not None
        return verdicts[i, grp]

    for tau in itertools.product(range(m), repeat=n):
        groups = [tuple(j for j in range(n) if tau[j] == i) for i in range(m)]
        if all(groups) and all(ok(i, grp) for i, grp in enumerate(groups)):
            return tuple(frozenset(j + 1 for j in grp) for grp in groups)
    return None


def _lifted_sum(a, b):
    """Binary device on the states of a x b whose reads are the lifts of the
    reads of a and of b; it reduces to a x b."""
    ground = product_ground(a.states, b.states)
    top_a, top_b = Partition.top(a.states), Partition.top(b.states)
    return Device(ground, [p.product(top_b, ground) for p in a.partitions]
                  + [top_a.product(q, ground) for q in b.partitions])


def _relabel(dev, rng):
    return random_equivalent(minimize(dev).device, rng.getrandbits(32))[0]


def test_binary_product_reduce_returns_least_tau():
    rng = random.Random(0x7A0)
    cases = []
    for shape in SHAPES:
        ds = [random_binary_device(rng, s) for s in shape]
        es = [random_binary_device(rng, s) for s in rng.sample(shape, len(shape))]
        cases.append((ds, es))
        # a shuffled relabelling of the left factors always reduces
        cases.append((ds, [_relabel(d, rng) for d in rng.sample(ds, len(ds))]))
    for s in (3, 4):
        # two equal-size, equivalent left factors: both matchings are valid
        d = random_binary_device(rng, s)
        cases.append(([d, _relabel(d, rng)], [_relabel(d, rng), d]))
        # fewer left factors than right ones, with two equal-size lifted sums
        a, b = random_binary_device(rng, 3), random_binary_device(rng, 3)
        es = [a, _relabel(b, rng), _relabel(a, rng), b]
        cases.append(([_lifted_sum(a, b), _lifted_sum(b, a)], es))
        cases.append(([_lifted_sum(a, b), random_binary_device(rng, 9)], es))
    # exactly two maps are valid, (1, 2, 2, 1) and (2, 1, 2, 1): the least
    # one sends the first right factor to the first left factor
    g = GroundSet("xyz")
    cuts = [Partition.from_blocks(g, [[x], [y for y in "xyz" if y != x]]) for x in "xyz"]
    three, two = Device(g, cuts), Device(g, cuts[:2])
    es = [three, _relabel(three, rng), two, L2]
    cases.append(([_lifted_sum(three, L2), _lifted_sum(two, three)], es))
    results = [binary_product_reduce(ds, es) for ds, es in cases]
    for (ds, es), got in zip(cases, results):
        assert got == _least_tau_oracle(ds, es), (ds, es)
    assert None in results
    assert any(len(ds) < len(es) and got for (ds, es), got in zip(cases, results))
    assert results[-1] == (frozenset({1, 4}), frozenset({2, 3}))


def test_extract_index_partition_identity():
    prod = product_of([L4, L2])
    red = identity_reduction(prod)
    assert _groups(extract_index_partition(red, [L4, L2], [L4, L2])) == [[1], [2]]


def test_extract_matches_search_result():
    ds = [make_linear(5)]
    es = [L2, L3]
    grouped = binary_product_reduce(ds, es)
    red = find_reduction(product_of(ds), product_of(es), structural=False)
    assert red is not None
    assert _groups(extract_index_partition(red, ds, es)) == _groups(grouped)


def test_extract_rejects_corrupted_phi():
    """Swapping states 0 and 1 of the identity on L4 x L2 fails verification,
    so extraction refuses before any coordinate step is read;
    test_extract_checks_every_coordinate_step covers the coordinate check."""
    prod = product_of([L4, L2])
    red = identity_reduction(prod)
    phi = list(red.phi)
    phi[0], phi[1] = phi[1], phi[0]
    with pytest.raises(NonUniqueTau, match="witness does not verify"):
        extract_index_partition(Reduction(tuple(phi), red.alpha), [L4, L2], [L4, L2])


def test_extract_checks_every_coordinate_step(monkeypatch):
    """Swapping states (00,001) and (00,010) of the identity on L2 x L3
    leaves every step at context 0 moving one left coordinate, but the step
    of right coordinate 1 from (00,001) moves both.  Verification is patched
    to accept, so the coordinate check alone must refuse."""
    monkeypatch.setattr(factorization, "verify_reduction", lambda *args: True)
    prod = product_of([L2, L3])
    assert prod.states.elements[1:3] == ("(00,001)", "(00,010)")
    ident = identity_reduction(prod)
    phi = list(ident.phi)
    phi[1], phi[2] = phi[2], phi[1]
    with pytest.raises(NonUniqueTau, match=r"right coordinate 1 move left coordinates \[1, 2\]"):
        extract_index_partition(Reduction(tuple(phi), ident.alpha), [L2, L3], [L2, L3])


def test_extract_rejects_a_non_injective_phi_as_unverified():
    """A well-shaped phi that merges two states fails verification, which
    is what keeps every later step on a bijection."""
    red = identity_reduction(product_of([L4, L2]))
    phi = (red.phi[1],) + red.phi[1:]
    assert len(set(phi)) < len(phi)
    with pytest.raises(NonUniqueTau, match="witness does not verify"):
        extract_index_partition(Reduction(phi, red.alpha), [L4, L2], [L4, L2])


def test_extract_rejects_a_misshaped_witness_with_domain_mismatch():
    with pytest.raises(DomainMismatch, match="phi has 3 entries for 4 states"):
        extract_index_partition(Reduction((0, 1, 2), (0, 1, 2)), [L2], [L2])


def test_factor_binary_recovers_known_product():
    p2 = make_projective(2)
    factors = factor_binary(direct_product(L2, p2))
    assert factors is not None and len(factors) == 2
    ok_order = (decide_equivalence(factors[0], L2) and
                decide_equivalence(factors[1], p2))
    ok_swapped = (decide_equivalence(factors[0], p2) and
                  decide_equivalence(factors[1], L2))
    assert ok_order or ok_swapped


def test_factor_binary_splits_off_perfect_part():
    dev = direct_product(make_perfect(2), L2)
    factors = factor_binary(dev)
    assert factors is not None and len(factors) == 2
    kinds = sorted(f.num_states for f in factors)
    assert kinds == [2, 4]
    small = next(f for f in factors if f.num_states == 2)
    assert classify(small).perfect
    big = next(f for f in factors if f.num_states == 4)
    assert decide_equivalence(big, L2) is not None


def test_factor_binary_certifies_l4xl2():
    """The certifying equivalence of a 64-state product decides."""
    factors = sorted(factor_binary(direct_product(L4, L2)), key=lambda f: f.num_states)
    assert [f.num_states for f in factors] == [4, 16]
    assert decide_equivalence(factors[0], L2) is not None
    assert decide_equivalence(factors[1], L4) is not None


def test_factor_binary_of_one_state_device_is_empty():
    assert factor_binary(make_perfect(1)) == []


def test_factor_binary_refuses_more_than_64_minimized_states():
    with pytest.raises(LimitExceeded, match="128 states"):
        factor_binary(product_of([L3, L4]))


def test_factor_binary_negatives():
    assert factor_binary(make_perfect(3)) is None
    # 6 = 2*3: no all-binary splitting exists
    assert factor_binary(make_perfect(6)) is None
    g5 = random_binary_device(random.Random(3), 4)
    assert factor_binary(direct_product(g5, make_perfect(3))) is None


def _labelled(*rows):
    ground = GroundSet(str(x) for x in range(len(rows[0])))
    return Device(ground, [Partition.from_raw(ground, row) for row in rows])


# minimal devices that the product probe rejects, one per way it can give up
PROBE_REJECTS = {
    # the family join has two blocks, of 4 states and 1
    "unequal join blocks": _labelled((0, 0, 1, 0, 2), (0, 1, 2, 2, 3)),
    # the join is one block, and the two reads join to it, so no 2-block lift exists
    "no 2-block lift": _labelled((0, 1, 1, 0, 2), (0, 1, 2, 1, 1)),
    # the first read refines no lift, so the one lift has no anchor
    "lift without one anchor": _labelled((0, 1, 0, 1, 0, 0), (0, 1, 1, 2, 3, 1), (0, 1, 2, 2, 1, 3)),
    # the one lift is its own anchor and gives a 2-state factor, but there are 7 states
    "factor sizes miss the state count": _labelled(
        (0, 0, 1, 2, 0, 2, 0), (0, 1, 1, 1, 1, 0, 1), (0, 1, 1, 2, 0, 2, 1), (0, 1, 1, 2, 3, 3, 0)),
}


@pytest.mark.parametrize("case", sorted(PROBE_REJECTS))
def test_factor_binary_rejects_what_the_probe_cannot_split(case):
    dev = PROBE_REJECTS[case]
    assert minimize(dev).device == dev
    assert _extract_candidate_factors(dev) is None
    assert factor_binary(dev, audit=True) is None


def test_factor_binary_round_trip_with_audit():
    rng = random.Random(179)
    for _ in range(8):
        parts = [random_binary_device(rng, rng.choice((3, 4)))
                 for _ in range(rng.randint(1, 3))]
        dev = product_of(parts)
        got = factor_binary(dev, audit=True)
        assert got is not None and len(got) == len(parts)
        remaining = list(parts)
        for f in got:
            hit = next(i for i, p in enumerate(remaining)
                       if decide_equivalence(f, p) is not None)
            remaining.pop(hit)
        assert not remaining


def test_same_factor_multiset_pairs_factors_up_to_equivalence():
    """Factor lists agree when their factors pair off by equivalence in any
    order; unequal lengths, or a factor whose only same-sized partner is
    inequivalent, make them differ."""
    relabelled, _ = random_equivalent(L3, 1)
    assert _same_factor_multiset([L2, L3], [relabelled, L2], 10 ** 5)
    assert not _same_factor_multiset([L2, L3], [L2], 10 ** 5)
    assert not _same_factor_multiset([L2, L3], [make_perfect(4), L3], 10 ** 5)


def test_linear_product_equivalence_iff_same_multiset():
    """Products of L_k agree exactly when the index multisets agree."""
    multisets = [m for r in range(1, 4)
                 for m in itertools.combinations_with_replacement(range(2, 7), r)
                 if sum(m) <= 6]
    devices = {m: product_of([make_linear(k) for k in m]) for m in multisets}
    for a in multisets:
        for b in multisets:
            lhs = devices[a]
            # vary the factor order on the right to exercise commutativity
            rhs = product_of([make_linear(k) for k in reversed(b)])
            same = decide_equivalence(lhs, rhs) is not None
            assert same == (a == b), (a, b)


def test_factor_perfect():
    assert factor_perfect(12) == [(2, 2), (3, 1)]
    assert factor_perfect(7) == [(7, 1)]
    assert factor_perfect(2) == [(2, 1)]
    assert factor_perfect(64) == [(2, 6)]
    assert factor_perfect(360) == [(2, 3), (3, 2), (5, 1)]
    assert factor_perfect(4096) == [(2, 12)]
    with pytest.raises(PreconditionMismatch):
        factor_perfect(1)


def test_factor_perfect_is_capped_before_it_divides():
    """10^20 + 39 is prime, so trial division would run to 10^10; above
    config.MAX_PRODUCT_STATES no perfect device is built, and the cap
    raises first."""
    start = time.perf_counter()
    with pytest.raises(LimitExceeded, match="exceeds cap 4096"):
        factor_perfect(10 ** 20 + 39)
    with pytest.raises(LimitExceeded):
        factor_perfect(config.MAX_PRODUCT_STATES + 1)
    assert time.perf_counter() - start < 1


def test_factor_binary_result_is_certified():
    # the returned list multiplies back to the device, up to equivalence
    rng = random.Random(181)
    for _ in range(5):
        parts = [random_binary_device(rng, 3) for _ in range(2)]
        dev = product_of(parts)
        got = factor_binary(dev)
        assert got is not None
        assert decide_equivalence(minimize(dev).device, product_of(got)) is not None


def _criterion_11_products():
    """The 50 products of acceptance criterion 11: one to three random
    binaries of 3 or 4 states each."""
    rng = random.Random(0xC11)
    return [product_of([random_binary_device(rng, rng.choice((3, 4)))
                        for _ in range(rng.randint(1, 3))]) for _ in range(50)]


def test_lifts_match_the_all_pairs_oracle():
    """_lifts finds exactly the distinct 2-block joins of read pairs, and each
    read's bitmask names the joins it refines, on random devices, on copies
    with every read's pairwise coarsenings added, and on the criterion-11
    products."""
    rng = random.Random(0x11F7)
    randoms = [random_device(rng) for _ in range(300)]
    products = _criterion_11_products()
    small = [d for d in products if d.num_states <= 16]
    devs = randoms + [with_coarsened_reads(d) for d in randoms[:100] + small] + products
    found = 0
    for dev in devs:
        lifts, hits = _lifts(dev)
        assert sorted(theta.labels for theta in lifts) == two_block_joins_oracle(dev)
        assert hits == [sum(refines_oracle(r, theta) << k for k, theta in enumerate(lifts))
                        for r in dev.partitions]
        found += len(lifts)
    assert found > len(devs)


def test_one_join_block_keeps_the_device():
    """A family join of one block leaves no perfect part to split off, and
    the device itself is the core."""
    dm = minimize(direct_product(L3, L2)).device
    assert _restrict_to_first_join_block(dm) == (0, dm)
    assert _restrict_to_first_join_block(dm)[1] is dm


def _audit_combos():
    """Every candidate combo the audit can form: one per splitting of 2 to 64
    states into parts of at most MAX_FACTOR_STATES, per multiset of candidates."""
    for n in range(2, config.MAX_CERTIFIED_STATES + 1):
        for split in _splittings(n, config.MAX_FACTOR_STATES):
            pools = [itertools.combinations_with_replacement(_binary_candidates(s), cnt)
                     for s, cnt in sorted(Counter(split).items())]
            for chosen in itertools.product(*pools):
                yield [f for grp in chosen for f in grp]


def test_read_profiles_predict_the_minimized_product():
    """The audit skips a combo on profiles predicted from its factors, which is
    exact only if they are those of the minimized product: checked on every
    combo of up to 36 states and a seeded sample of the larger ones."""
    combos = list(_audit_combos())
    assert len(combos) == 1753
    small = [c for c in combos if math.prod(f.num_states for f in c) <= 36]
    large = [c for c in combos if math.prod(f.num_states for f in c) > 36]
    for combo in small + random.Random(0x9F).sample(large, 150):
        dm = minimize(product_of(combo)).device
        assert _read_profiles(combo) == sorted(p.size_multiset() for p in dm.partitions)


def test_audit_raises_when_the_probe_misses_a_factorization(monkeypatch):
    """A probe that finds nothing where the enumeration finds a factorization
    is a failed audit, not a None."""
    dev = _criterion_11_products()[0]
    monkeypatch.setattr(factorization, "_extract_candidate_factors", lambda dm: None)
    assert factor_binary(dev) is None
    with pytest.raises(RuntimeError, match="probe missed"):
        factor_binary(dev, audit=True)


def test_lift_discovery_refused_beyond_the_pair_memory_bound(monkeypatch):
    """Over config.MAX_PAIR_BYTES the probe raises, with no all-pairs
    fallback; find_reduction still answers, as the generic search.  That
    _pair_counts refuses before allocating is tests/test_limits.py's case."""
    monkeypatch.setattr(config, "MAX_PAIR_BYTES", 1 << 20)
    rng = random.Random(0x3A9)
    answers = []
    for _ in range(6):
        src = product_of([random_binary_device(rng, 3) for _ in range(2)])
        dst = product_of([random_binary_device(rng, 3) for _ in range(2)])
        with pytest.raises(LimitExceeded, match="pair counts"):
            factor_binary(src)
        red = find_reduction(src, dst)
        assert red == find_reduction(src, dst, structural=False)
        answers.append(red is None)
    assert True in answers and False in answers
