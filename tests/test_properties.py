"""Property tests for the values each device memoizes: meet, minimization,
perfectness index, pair counts and polynomial signature; the index is also
checked against an exhaustive oracle and the product rule, and the meet, the
depth-2 signature and the minimized reads against the lattice operations.
The signature certificate is checked against a pair-by-pair oracle, and the
lattice laws and every two-variable polynomial up to depth 4 against the
meet, join and refinement oracles.  Reduction and equivalence verdicts are
checked to ignore the state order, minimizing a product to agree with the
product of the minimized factors, and the binary factors factor_binary
returns to multiply back to its input.  Label blocks and the least state of
each meet class are checked against oracles on devices with twin states and
on identity meets; composed witnesses, and witnesses for A x C <= B x C built
factor-wise from one for A <= B, are checked to verify.  A witness that
permutes the factors of a product of binaries is checked to verify and to
yield that permutation's index partition."""

import functools
import itertools
import math
import random
from collections import Counter

from hypothesis import given, settings, strategies as st

from asdkit.devices import Device, direct_product, make_perfect, product_of
from asdkit.factorization import extract_index_partition, factor_binary
from asdkit.invariants import (
    _pair_counts,
    _signature_certificate,
    perfectness_index,
    poly_signature,
)
from asdkit.minimization import minimize, state_quotient
from asdkit.partitions import GroundSet, Partition, eval_poly
from asdkit.reduction import decide_equivalence, find_reduction, random_equivalent
from asdkit.witnesses import Reduction, compose, verify_reduction

from corpus import (
    eval_poly_oracle,
    join_oracle,
    label_blocks_oracle,
    least_states_oracle,
    meet_oracle,
    perfectness_oracle,
    product_oracle,
    random_binary_device,
    reducible_pair,
    refines_oracle,
    signature_certificate_oracle,
    two_variable_polys,
    with_twins,
)

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def devices(draw) -> Device:
    """Up to 6 states and 4 reads, with merged states and redundant reads allowed."""
    n = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                         min_size=1, max_size=4))
    ground = GroundSet(f"s{i}" for i in range(n))
    return Device(ground, [Partition.from_raw(ground, row) for row in rows])


@SETTINGS
@given(devices(), st.integers(0, 2 ** 30))
def test_relabelling_keeps_memoized_invariants(dev, seed):
    m = minimize(dev).device
    e, _ = random_equivalent(m, seed)
    assert perfectness_index(e) == perfectness_index(m)
    assert poly_signature(e) == poly_signature(m)
    em = minimize(e).device
    assert (em.num_states, em.num_partitions) == (m.num_states, m.num_partitions)


def _memoized_values(dev: Device) -> tuple:
    res = minimize(dev)
    meets, joins = _pair_counts(dev)
    return (dev.meet_of_all(), res.device, res.to_min, res.from_min, perfectness_index(dev),
            meets.tolist(), joins.tolist(), poly_signature(dev))


@SETTINGS
@given(devices())
def test_memoized_values_match_a_fresh_copy(dev):
    first = _memoized_values(dev)
    assert _memoized_values(dev) == first
    copy = Device(dev.states, dev.partitions)
    assert not copy._memo
    assert _memoized_values(copy) == first


@SETTINGS
@given(devices())
def test_perfectness_index_matches_the_oracle(dev):
    assert perfectness_index(dev) == perfectness_oracle(dev)


@SETTINGS
@given(devices(), devices())
def test_perfectness_index_of_a_product_is_the_larger_index(a, b):
    # a meet of product reads is the product of the factor meets; both sides
    # minimized have at most 6 states, so the product has at most 36
    am, bm = minimize(a).device, minimize(b).device
    ab = direct_product(am, bm)
    assert perfectness_index(ab) == max(perfectness_index(am), perfectness_index(bm))


@SETTINGS
@given(devices())
def test_depth_two_signature_matches_the_lattice_operations(dev):
    expected = Counter((a.num_blocks, a.meet(b).num_blocks, a.join(b).num_blocks)
                       for a in dev.partitions for b in dev.partitions)
    assert poly_signature(dev) == tuple(sorted(expected.items()))


@st.composite
def partition_pairs(draw) -> tuple[Partition, Partition]:
    n = draw(st.integers(1, 6))
    ground = GroundSet(f"s{i}" for i in range(n))
    row = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    return Partition.from_raw(ground, draw(row)), Partition.from_raw(ground, draw(row))


@SETTINGS
@given(partition_pairs())
def test_eval_poly_matches_the_oracle_up_to_depth_four(pair):
    for e in two_variable_polys(4):
        assert eval_poly(e, pair).labels == eval_poly_oracle(e, pair)


@SETTINGS
@given(devices(), devices(), st.integers(0, 2 ** 30))
def test_minimizing_a_product_is_the_product_of_the_minimized_factors(a, b, seed):
    """Metamorphic: minimize(A x B) is equivalent to minimize(A) x minimize(B),
    and a relabelled copy of it keeps its signature."""
    whole = minimize(direct_product(a, b)).device
    factors = direct_product(minimize(a).device, minimize(b).device)
    assert decide_equivalence(whole, factors) is not None
    e, _ = random_equivalent(whole, seed)
    assert poly_signature(e) == poly_signature(whole)


@SETTINGS
@given(devices())
def test_meet_of_all_matches_a_fold_over_every_read(dev):
    assert dev.meet_of_all() == functools.reduce(Partition.meet, dev.partitions)


@SETTINGS
@given(devices())
def test_minimized_reads_are_canonical(dev):
    m = minimize(dev).device
    for p in m.partitions:
        c = Partition.from_raw(m.states, p.labels)
        assert (c.labels, c.num_blocks) == (p.labels, p.num_blocks)


@st.composite
def equal_histogram_pairs(draw) -> tuple[Device, Device]:
    """Two devices whose reads all have the same k blocks, q of them a side
    unless some coincide.  Reads with equal block counts form an antichain,
    and merging twin states keeps every read's block count, so whenever both
    sides keep q distinct reads their minimized histograms agree and the
    certificate needs the full count tables."""
    k, q = draw(st.integers(1, 4)), draw(st.integers(1, 4))

    def side() -> Device:
        n = draw(st.integers(k, 6))
        ground = GroundSet(f"s{i}" for i in range(n))
        reads = []
        for _ in range(q):
            row = list(range(k)) + draw(st.lists(st.integers(0, k - 1), min_size=n - k,
                                                 max_size=n - k))
            perm = draw(st.permutations(range(n)))
            reads.append(Partition.from_raw(ground, [row[x] for x in perm]))
        return Device(ground, reads)

    return side(), side()


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.tuples(devices(), devices()), equal_histogram_pairs()))
def test_signature_certificate_matches_the_oracle(pair):
    assert _signature_certificate(*pair) == signature_certificate_oracle(*pair)


@st.composite
def partition_triples(draw) -> tuple[Partition, Partition, Partition]:
    """Three partitions of one ground set of up to 7 states."""
    n = draw(st.integers(1, 7))
    ground = GroundSet(f"s{i}" for i in range(n))
    rows = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                         min_size=3, max_size=3))
    return tuple(Partition.from_raw(ground, row) for row in rows)


def _meet(p: Partition, q: Partition) -> Partition:
    m = p.meet(q)
    assert m.labels == meet_oracle(p, q)
    return m


def _join(p: Partition, q: Partition) -> Partition:
    j = p.join(q)
    assert j.labels == join_oracle(p, q)
    return j


@SETTINGS
@given(partition_triples())
def test_lattice_laws_hold_on_oracle_checked_operations(triple):
    p, q, r = triple
    for op in (_meet, _join):
        assert op(p, q) == op(q, p)
        assert op(op(p, q), r) == op(p, op(q, r))
        assert op(p, p) == p
    assert _meet(p, _join(p, q)) == p
    assert _join(p, _meet(p, q)) == p
    assert p.refines(q) == refines_oracle(p, q) == (_meet(p, q) == p) == (_join(p, q) == q)


def _permuted(dev: Device, perm) -> Device:
    """dev with its states listed in the order perm, renamed by position."""
    ground = GroundSet(f"s{i}" for i in range(dev.num_states))
    return Device(ground, [Partition.from_raw(ground, [p.labels[x] for x in perm])
                           for p in dev.partitions])


@st.composite
def permuted_pairs(draw) -> tuple[Device, Device, Device, Device]:
    """(a, b, a permuted, b permuted)."""
    a, b = draw(devices()), draw(devices())
    pa = _permuted(a, draw(st.permutations(range(a.num_states))))
    pb = _permuted(b, draw(st.permutations(range(b.num_states))))
    return a, b, pa, pb


@SETTINGS
@given(permuted_pairs())
def test_state_order_changes_no_verdict(case):
    a, b, pa, pb = case
    assert find_reduction(a, pa) is not None and decide_equivalence(a, pa) is not None
    reducible = find_reduction(a, b) is not None
    for src, dst in ((pa, b), (a, pb), (pa, pb)):
        red = find_reduction(src, dst)
        assert (red is not None) == reducible
        assert red is None or verify_reduction(src, dst, red)
    equivalent = decide_equivalence(a, b) is not None
    assert (decide_equivalence(pa, b) is not None) == equivalent
    assert (decide_equivalence(a, pb) is not None) == equivalent


@st.composite
def binary_products(draw) -> Device:
    """Product of one to three random binaries of 3 or 4 states, times C2 when
    that keeps it within 64 states, with its states in a drawn order."""
    rng = random.Random(draw(st.integers(0, 2 ** 30)))
    parts = [random_binary_device(rng, draw(st.sampled_from((3, 4))))
             for _ in range(draw(st.integers(1, 3)))]
    if math.prod(p.num_states for p in parts) <= 32 and draw(st.booleans()):
        parts.append(make_perfect(2))
    dev = product_of(parts)
    return _permuted(dev, draw(st.permutations(range(dev.num_states))))


@SETTINGS
@given(binary_products(), devices())
def test_factor_binary_round_trips(prod, dev):
    """The returned factors multiply back to a device equivalent to the input:
    always on a product of binaries, and on any small device it factors (the
    empty product when the device minimizes to one state)."""
    got = factor_binary(prod)
    assert got is not None and decide_equivalence(product_of(got), prod) is not None
    got = factor_binary(dev)
    if got == []:
        assert minimize(dev).device.num_states == 1
    elif got is not None:
        assert decide_equivalence(product_of(got), dev) is not None


@st.composite
def twinned_devices(draw) -> Device:
    """A drawn device with up to one twin per state, each placed after its original."""
    dev = draw(devices())
    rng = random.Random(draw(st.integers(0, 2 ** 30)))
    return with_twins(rng, dev, draw(st.integers(0, dev.num_states)))


@st.composite
def identity_meets(draw) -> Device:
    """A product of two minimized devices, so no two states agree on every
    read, with its states in a drawn order."""
    dev = direct_product(minimize(draw(devices())).device, minimize(draw(devices())).device)
    return _permuted(dev, draw(st.permutations(range(dev.num_states))))


@SETTINGS
@given(st.one_of(twinned_devices(), identity_meets()))
def test_label_blocks_and_least_states_match_the_oracles(dev):
    for p in dev.partitions + (dev.meet_of_all(),):
        assert p.blocks_as_labels() == label_blocks_oracle(p)
    least = least_states_oracle(dev)
    quot, _ = state_quotient(dev)
    assert quot.states.elements == tuple(dev.states.elements[x] for x in least)
    assert minimize(dev).from_min.phi == tuple(least)


@SETTINGS
@given(devices(), devices(), st.integers(0, 2 ** 30))
def test_composed_witnesses_verify(d, c, seed):
    """Metamorphic: D <= DxC by x -> (x, first state of C), each read paired
    with C's first read.  Composed with DxC's minimization witnesses and a
    relabelling of its minimum, every prefix of the chain verifies."""
    dc = direct_product(d, c)
    slot = {p.labels: j for j, p in enumerate(dc.partitions)}
    red = Reduction(tuple(x * c.num_states for x in range(d.num_states)),
                    tuple(slot[product_oracle(p, c.partitions[0])] for p in d.partitions))
    assert verify_reduction(d, dc, red)
    res = minimize(dc)
    relabel, (fwd, back) = random_equivalent(res.device, seed)
    for dst, step in ((res.device, res.to_min), (relabel, fwd), (res.device, back),
                      (dc, res.from_min)):
        red = compose(red, step)
        assert verify_reduction(d, dst, red)


@SETTINGS
@given(st.integers(0, 2 ** 30), devices())
def test_reduction_lifts_to_products_factor_wise(seed, c):
    """Metamorphic: from a witness for A <= B, phi(x, z) = (phi(x), z) in
    row-major order, with each read pi x rho sent to alpha(pi) x rho, is a
    witness for A x C <= B x C.  Devices sort their reads, so each product
    read is found by its label tuple."""
    a, b = reducible_pair(random.Random(seed))
    red = find_reduction(a, b)
    assert red is not None and verify_reduction(a, b, red)
    ac, bc = direct_product(a, c), direct_product(b, c)
    slot_ac = {p.labels: j for j, p in enumerate(ac.partitions)}
    slot_bc = {p.labels: j for j, p in enumerate(bc.partitions)}
    alpha = [None] * ac.num_partitions
    for pi, j in zip(a.partitions, red.alpha):
        for rho in c.partitions:
            alpha[slot_ac[product_oracle(pi, rho)]] = slot_bc[product_oracle(b.partitions[j], rho)]
    n = c.num_states
    phi = tuple(red.phi[x] * n + z for x in range(a.num_states) for z in range(n))
    assert verify_reduction(ac, bc, Reduction(phi, tuple(alpha)))


@SETTINGS
@given(st.integers(0, 2 ** 30), st.integers(2, 3).flatmap(lambda k: st.permutations(range(k))))
def test_factor_permuting_witness_yields_its_index_partition(seed, sigma):
    """Known answer: with Es the Ds taken in the order sigma, the witness
    sending digits x to y with y_j = x_sigma(j) verifies, each read going to
    the target read with its pushed-forward labels, and right coordinate j
    is fed by left coordinate sigma(j) alone."""
    rng = random.Random(seed)
    ds = [random_binary_device(rng, rng.choice((3, 4))) for _ in sigma]
    es = [ds[i] for i in sigma]
    src, dst = product_of(ds), product_of(es)
    index = {y: t for t, y in enumerate(itertools.product(*(range(e.num_states) for e in es)))}
    phi = tuple(index[tuple(x[i] for i in sigma)]
                for x in itertools.product(*(range(d.num_states) for d in ds)))
    slot = {p.labels: j for j, p in enumerate(dst.partitions)}
    alpha = []
    for p in src.partitions:
        pushed = [0] * dst.num_states
        for x, t in enumerate(phi):
            pushed[t] = p.labels[x]
        alpha.append(slot[Partition.from_raw(dst.states, pushed).labels])
    red = Reduction(phi, tuple(alpha))
    assert verify_reduction(src, dst, red)
    assert extract_index_partition(red, ds, es) == tuple(
        frozenset(j + 1 for j, i in enumerate(sigma) if i == k) for k in range(len(sigma)))
