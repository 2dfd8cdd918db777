"""Partition algebra: canonical form, lattice ops, products, polynomials."""

import random

import pytest

from asdkit.errors import (
    ArityError,
    CoverageError,
    EmptyStateSpace,
    GroundMismatch,
    OverlapError,
    UnknownLabel,
)
from asdkit.partitions import (
    GroundSet,
    Join,
    Meet,
    Partition,
    Var,
    canonicalize,
    eval_poly,
    pair_label,
    product_ground,
)

from corpus import (
    block_list_error_oracle,
    join_oracle,
    meet_oracle,
    random_partition,
    refines_oracle,
)

ABC = GroundSet("abc")
G4 = GroundSet("1234")


def test_canonicalize_examples():
    assert canonicalize(ABC, [["b"], ["a"], ["c"]]).blocks_as_labels() == [
        ["a"], ["b"], ["c"]]
    assert canonicalize(ABC, [["c", "a"], ["b"]]).blocks_as_labels() == [
        ["a", "c"], ["b"]]
    # empty blocks are dropped and leave no gap in the labels
    empty = canonicalize(ABC, [[], ["c", "a"], [], ["b"], []])
    assert (empty.labels, empty.num_blocks) == ((0, 1, 0), 2)
    with pytest.raises(OverlapError):
        canonicalize(GroundSet("ab"), [["a"], ["a", "b"]])
    with pytest.raises(CoverageError):
        canonicalize(ABC, [["a", "b"]])
    with pytest.raises(UnknownLabel):
        canonicalize(ABC, [["a", "b"], ["z"]])
    with pytest.raises(CoverageError):
        Partition.from_raw(ABC, [0, 1])
    with pytest.raises(EmptyStateSpace):
        GroundSet([])


@pytest.mark.parametrize("blocks, error, message", [
    ([["a", "z"], ["b", "c"]], UnknownLabel, "label 'z' not in ground set"),
    ([["a", "b"], ["c", "b"]], OverlapError, "label 'b' appears in more than one block"),
    ([["a", "b", "a"], ["c"]], OverlapError, "label 'a' appears in more than one block"),
    ([["a", "c"]], CoverageError, "label 'b' missing from every block"),
    # the first bad label in document order is named, whichever kind it is
    ([["a", "b", "a", "z"], ["c"]], OverlapError, "label 'a' appears in more than one block"),
    ([["a", "b"], ["b", "z"], ["c"]], OverlapError, "label 'b' appears in more than one block"),
    ([["a", "z", "a"], ["b", "c"]], UnknownLabel, "label 'z' not in ground set"),
    ([["a", "b"], ["a"], ["z"]], OverlapError, "label 'a' appears in more than one block"),
])
def test_from_blocks_names_the_first_bad_label(blocks, error, message):
    with pytest.raises(error) as raised:
        Partition.from_blocks(ABC, blocks)
    assert type(raised.value) is error and str(raised.value) == message


def test_one_shot_blocks_name_their_first_bad_label():
    """Each block is read once, so a one-shot block is checked with the labels it gave."""
    with pytest.raises(UnknownLabel) as raised:
        canonicalize(ABC, [iter(["a", "z", "b"]), ["c"]])
    assert type(raised.value) is UnknownLabel and str(raised.value) == "label 'z' not in ground set"
    blocks = [["c", "a"], [], ["b"]]
    one_shot = canonicalize(ABC, (iter(block) for block in blocks))
    assert one_shot == canonicalize(ABC, blocks) and one_shot.labels == (0, 1, 0)


def test_list_blocks_are_read_in_place_and_others_copied():
    """List blocks are not copied and not changed; tuples and one-shot iterators are
    read once each, and the first bad label in document order is still named."""
    rng = random.Random(22)
    outcomes = set()
    for _ in range(300):
        g = GroundSet(f"s{i}" for i in range(rng.randint(1, 5)))
        blocks = [[lab] for lab in g.elements] + [[rng.choice(["z", "s0", "s1"])]]
        rng.shuffle(blocks)
        blocks = blocks[:rng.randint(1, len(blocks))]
        snapshot = [list(block) for block in blocks]
        given = [rng.choice([list, tuple, iter])(block) if rng.random() < 0.5 else block
                 for block in blocks]
        expect = block_list_error_oracle(list(g.elements), snapshot)
        if expect is None:
            assert Partition.from_blocks(g, given) == Partition.from_blocks(g, snapshot)
        else:
            with pytest.raises(Exception) as error:
                Partition.from_blocks(g, given)
            assert (type(error.value).__name__, str(error.value)) == expect
        assert blocks == snapshot
        outcomes.add(expect and expect[0])
    assert outcomes == {None, "UnknownLabel", "OverlapError", "CoverageError"}


def _scrambled_blocks(rng, ground: GroundSet, codes) -> list[list[str]]:
    """The blocks of `codes` in random order, each shuffled, with empty blocks mixed in."""
    by_code: dict = {}
    for lab, code in zip(ground.elements, codes):
        by_code.setdefault(code, []).append(lab)
    blocks = list(by_code.values()) + [[] for _ in range(rng.randint(0, 2))]
    rng.shuffle(blocks)
    for block in blocks:
        rng.shuffle(block)
    return blocks


def test_from_blocks_and_product_agree_with_from_raw():
    rng = random.Random(20)
    for _ in range(300):
        n = rng.randint(1, 9)
        g = GroundSet(f"s{i}" for i in range(n))
        shape = rng.choice(["one block", "identity", "random"])
        if shape == "one block":
            codes = [7] * n
        elif shape == "identity":
            codes = rng.sample(range(n), n)
        else:
            codes = [rng.randrange(rng.randint(1, n)) for _ in range(n)]
        expect = Partition.from_raw(g, codes)
        blocks = _scrambled_blocks(rng, g, codes)
        for given in (blocks, (iter(block) for block in blocks)):
            p = Partition.from_blocks(g, given)
            assert p == expect and (p.labels, p.num_blocks) == (expect.labels, expect.num_blocks)

    grounds = [GroundSet(f"{c}{i}" for i in range(n)) for c, n in zip("xyz", (1, 3, 5))]
    for _ in range(200):
        p, q, r = (random_partition(rng, rng.choice(grounds)) for _ in range(3))
        pq = p.product(q)
        k2 = q.num_blocks
        assert pq == Partition.from_raw(pq.ground, (a * k2 + b for a in p.labels for b in q.labels))
        assert pq.num_blocks == p.num_blocks * k2
        pqr = pq.product(r)
        triples = [(a, b, c) for a in p.labels for b in q.labels for c in r.labels]
        assert pqr == Partition.from_raw(pqr.ground, triples)
        assert pqr == p.product(q.product(r), pqr.ground)


def test_from_blocks_errors_match_a_document_order_scan():
    rng = random.Random(21)
    raised = set()
    for _ in range(400):
        g = GroundSet(f"s{i}" for i in range(rng.randint(1, 6)))
        blocks = _scrambled_blocks(rng, g, [rng.randrange(3) for _ in g])
        for _ in range(rng.randint(1, 3)):
            b = rng.randrange(len(blocks))
            labels = [lab for block in blocks for lab in block]
            kind = rng.choice(["unknown", "repeat", "drop"] if labels else ["unknown"])
            if kind == "unknown":
                blocks[b].insert(rng.randint(0, len(blocks[b])), rng.choice(["z", "s9", "", "S0"]))
            elif kind == "repeat":  # into its own block or another one
                blocks[b].insert(rng.randint(0, len(blocks[b])), rng.choice(labels))
            else:
                b = rng.choice([j for j, block in enumerate(blocks) if block])
                del blocks[b][rng.randrange(len(blocks[b]))]
        expect = block_list_error_oracle(list(g.elements), blocks)
        for given in (blocks, (iter(block) for block in blocks)):
            if expect is None:
                Partition.from_blocks(g, given)
                continue
            with pytest.raises(Exception) as error:
                Partition.from_blocks(g, given)
            assert (type(error.value).__name__, str(error.value)) == expect
            raised.add(expect[0])
    assert raised == {"UnknownLabel", "OverlapError", "CoverageError"}


def test_ground_set_protocols_and_reprs():
    assert "b" in ABC and "z" not in ABC
    assert list(ABC) == ["a", "b", "c"]
    assert repr(ABC) == "GroundSet(['a', 'b', 'c'])"
    assert repr(Partition.from_blocks(ABC, [["b"], ["c", "a"]])) == "Partition[a,c|b]"


def test_canonicalize_idempotent():
    rng = random.Random(11)
    for _ in range(200):
        p = random_partition(rng, G4)
        q = canonicalize(G4, p.blocks_as_labels())
        assert q == p
        assert q.labels == p.labels


def test_refines_examples():
    assert Partition.identity(ABC).refines(Partition.top(ABC))
    p = Partition.from_blocks(G4, [["1", "2"], ["3"], ["4"]])
    q = Partition.from_blocks(G4, [["1", "3"], ["2"], ["4"]])
    assert not p.refines(q)
    assert not q.refines(p)
    assert p.refines(p)


def test_ground_mismatch_rejected():
    with pytest.raises(GroundMismatch):
        Partition.identity(ABC).meet(Partition.identity(G4))
    with pytest.raises(GroundMismatch):
        Partition.identity(ABC).refines(Partition.top(G4))


def test_equal_ground_sets_compare_equal_without_being_shared():
    """Equality is by elements: an equal but distinct ground set passes the
    same-ground check, a reordered or different one does not."""
    twin = GroundSet("1234")
    assert twin is not G4 and twin == G4 and not twin != G4 and G4 == G4
    assert Partition.identity(twin).refines(Partition.identity(G4))
    assert GroundSet("2134") != G4 and GroundSet("123") != G4 and G4 != "1234"
    with pytest.raises(GroundMismatch):
        Partition.identity(GroundSet("2134")).meet(Partition.identity(G4))


def test_meet_examples():
    p = Partition.from_blocks(G4, [["1", "2"], ["3", "4"]])
    q = Partition.from_blocks(G4, [["1", "3"], ["2", "4"]])
    assert p.meet(q).is_identity
    assert p.meet(Partition.top(G4)) == p
    assert p.meet(p) == p


def test_join_examples():
    p = Partition.from_blocks(G4, [["1", "2"], ["3", "4"]])
    q = Partition.from_blocks(G4, [["2", "3"], ["1"], ["4"]])
    assert p.join(q).is_top
    assert p.join(Partition.identity(G4)) == p
    # crosswise pairing also chains everything together
    r = Partition.from_blocks(G4, [["1", "3"], ["2", "4"]])
    expect = join_oracle(p, r)
    assert p.join(r).labels == expect
    assert p.join(r).is_top


def test_meet_join_against_oracles():
    rng = random.Random(23)
    g = GroundSet(f"s{i}" for i in range(7))
    for _ in range(300):
        p, q = random_partition(rng, g), random_partition(rng, g)
        assert p.meet(q).labels == meet_oracle(p, q)
        assert p.join(q).labels == join_oracle(p, q)
        assert p.refines(q) == refines_oracle(p, q)


def test_product_examples():
    ab = GroundSet("ab")
    xy = GroundSet("xy")
    p = Partition.identity(ab).product(Partition.top(xy))
    assert p.blocks_as_labels() == [["(a,x)", "(a,y)"], ["(b,x)", "(b,y)"]]
    assert Partition.identity(ab).product(Partition.identity(xy)).is_identity
    assert Partition.top(ab).product(Partition.top(xy)).is_top
    assert p.ground.elements == ("(a,x)", "(a,y)", "(b,x)", "(b,y)")
    assert pair_label("a", "x") == "(a,x)"


def test_product_block_count():
    rng = random.Random(37)
    g1 = GroundSet("abc")
    g2 = GroundSet("wxyz")
    for _ in range(100):
        p, q = random_partition(rng, g1), random_partition(rng, g2)
        assert p.product(q).num_blocks == p.num_blocks * q.num_blocks


def test_pullback_examples():
    bits = GroundSet(["00", "01", "10", "11"])
    two = GroundSet("01")
    pi = Partition.identity(two)
    parity = {"00": "0", "01": "1", "10": "1", "11": "0"}
    assert pi.pullback(parity, bits).blocks_as_labels() == [
        ["00", "11"], ["01", "10"]]
    # constant map collapses everything
    assert pi.pullback(lambda x: "0", bits).is_top
    const = Partition.from_blocks(two, [["0", "1"]])
    assert const.pullback(parity, bits).is_top
    p = Partition.from_blocks(G4, [["1", "2"], ["3", "4"]])
    assert p.pullback(lambda x: x, G4) == p
    with pytest.raises(UnknownLabel):
        pi.pullback({"00": "7", "01": "0", "10": "0", "11": "0"}, bits)
    with pytest.raises(UnknownLabel, match="'11'"):
        pi.pullback({"00": "0", "01": "1", "10": "1"}, bits)


def test_kernel_examples():
    bits = GroundSet(["00", "01", "10", "11"])
    assert Partition.kernel(G4, lambda x: x).is_identity
    assert Partition.kernel(G4, lambda x: "k").is_top
    first = Partition.kernel(bits, lambda w: w[0])
    assert first.blocks_as_labels() == [["00", "01"], ["10", "11"]]


def test_eval_poly_examples():
    p = Partition.from_blocks(G4, [["1", "2"], ["3", "4"]])
    q = Partition.from_blocks(G4, [["1", "3"], ["2", "4"]])
    assert eval_poly(Var(1), [p, q]) == p
    assert eval_poly(Meet(Var(1), Var(2)), [p, q]).is_identity
    # absorption: (x1 v x2) ^ x1 = x1
    absorb = Meet(Join(Var(1), Var(2)), Var(1))
    rng = random.Random(41)
    for _ in range(100):
        a, b = random_partition(rng, G4), random_partition(rng, G4)
        assert eval_poly(absorb, [a, b]) == a


def test_eval_poly_errors():
    p = Partition.identity(G4)
    with pytest.raises(ArityError):
        eval_poly(Meet(Var(1), Var(2)), [p])
    with pytest.raises(GroundMismatch):
        eval_poly(Meet(Var(1), Var(2)), [p, Partition.identity(ABC)])
    with pytest.raises(TypeError):
        eval_poly("x1", [p])


def test_lattice_laws():
    """Meet/join laws on random partitions over grounds up to 8."""
    rng = random.Random(977)
    for trial in range(250):
        g = GroundSet(f"e{i}" for i in range(rng.randint(2, 8)))
        p = random_partition(rng, g)
        q = random_partition(rng, g)
        r = random_partition(rng, g)
        assert p.meet(q) == q.meet(p)
        assert p.join(q) == q.join(p)
        assert p.meet(q).meet(r) == p.meet(q.meet(r))
        assert p.join(q).join(r) == p.join(q.join(r))
        assert p.meet(p) == p and p.join(p) == p
        assert p.meet(p.join(q)) == p
        assert p.join(p.meet(q)) == p
        # order facts
        assert Partition.identity(g).refines(p)
        assert p.refines(Partition.top(g))
        assert p.meet(q).refines(p) and p.refines(p.join(q))
        if p.refines(q) and q.refines(p):
            assert p == q
        if p.refines(q) and q.refines(r):
            assert p.refines(r)
        # refines is meet-definable
        assert p.refines(q) == (p.meet(q) == p)


def test_product_refinement_componentwise():
    """pi x pi' refines rho x rho' exactly when both components refine."""
    rng = random.Random(1009)
    g1 = GroundSet("abc")
    g2 = GroundSet("xyzw")
    for _ in range(250):
        p, r = random_partition(rng, g1), random_partition(rng, g1)
        p2, r2 = random_partition(rng, g2), random_partition(rng, g2)
        lhs = p.product(p2).refines(r.product(r2))
        assert lhs == (p.refines(r) and p2.refines(r2))


def test_product_distributes_over_meet_join():
    rng = random.Random(1013)
    g1 = GroundSet("abc")
    g2 = GroundSet("xyzw")
    for _ in range(250):
        p, r = random_partition(rng, g1), random_partition(rng, g1)
        p2, r2 = random_partition(rng, g2), random_partition(rng, g2)
        assert p.product(p2).meet(r.product(r2)) == p.meet(r).product(p2.meet(r2))
        assert p.product(p2).join(r.product(r2)) == p.join(r).product(p2.join(r2))


def test_pullback_homomorphism():
    """Pullback commutes with meet and join; kernel composes."""
    rng = random.Random(1019)
    src = GroundSet(f"x{i}" for i in range(6))
    dst = GroundSet(f"y{i}" for i in range(4))
    for _ in range(250):
        phi = {s: f"y{rng.randrange(4)}" for s in src.elements}
        p, q = random_partition(rng, dst), random_partition(rng, dst)
        assert p.meet(q).pullback(phi, src) == p.pullback(phi, src).meet(
            q.pullback(phi, src))
        jp = p.join(q).pullback(phi, src)
        jr = p.pullback(phi, src).join(q.pullback(phi, src))
        assert jr.refines(jp)
        if set(phi.values()) == set(dst.elements):
            # join commutes on the nose when the map is onto
            assert jp == jr
        # kernel(f o phi) = pullback(kernel(f), phi)
        f = {t: rng.randrange(3) for t in dst.elements}
        lhs = Partition.kernel(src, lambda s: f[phi[s]])
        rhs = Partition.kernel(dst, lambda t: f[t]).pullback(phi, src)
        assert lhs == rhs


def test_product_ground_size_guard():
    with pytest.raises(GroundMismatch):
        Partition.identity(ABC).product(Partition.identity(ABC), ground=G4)
    assert len(product_ground(ABC, G4)) == 12
