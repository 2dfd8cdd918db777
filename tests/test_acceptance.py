"""One test per numbered acceptance criterion; each prints PASS or FAIL.

Run under pytest (add -s to see the lines) or directly:
python3 tests/test_acceptance.py
"""

import functools
import itertools
import json
import random

from asdkit import cli
from asdkit.devices import Device, make_linear, make_perfect, product_of
from asdkit.factorization import (
    binary_product_reduce,
    extract_index_partition,
    factor_binary,
    factor_perfect,
)
from asdkit.graphs import brute_clique, clique_via_reduction, gi_via_equivalence, make_graph
from asdkit.invariants import capacity, perfectness_index, sigma_capacity_bound
from asdkit.minimization import is_partition_minimal, is_state_minimal, minimize
from asdkit.partitions import GroundSet, Partition
from asdkit.reduction import (
    decide_equivalence,
    find_reduction,
    ip_nonequiv_sim,
    random_equivalent,
)
from asdkit.witnesses import verify_reduction

from corpus import (
    least_reduction_oracle,
    random_binary_device,
    random_device,
    random_graph,
    random_partition,
    random_small_pair,
)


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def run(*a, **kw):
            try:
                fn(*a, **kw)
            except BaseException:
                print(f"criterion {num:02d} {desc}: FAIL")
                raise
            print(f"criterion {num:02d} {desc}: PASS")
        return run
    return deco


def _gen_files(tmp_path):
    def path(name):
        return str(tmp_path / name)

    for argv in (
        ["gen", "lnk", "2", "-o", path("l2.json")],
        ["gen", "lnk", "3", "-o", path("l3.json")],
        ["gen", "lnk", "4", "-o", path("l4.json")],
        ["product", path("l3.json"), path("l3.json"), "-o", path("l3xl3.json")],
        ["product", path("l4.json"), path("l2.json"), "-o", path("l4xl2.json")],
        ["product", path("l2.json"), path("l2.json"), "-o", path("t.json")],
        ["product", path("t.json"), path("l2.json"), "-o", path("l2cubed.json")],
    ):
        assert cli.main(argv) == 0
    return path


@criterion(1, "capacity separation")
def test_criterion_01(tmp_path, capsys):
    assert capacity(product_of([make_linear(2)] * 3)) == 3.0
    assert capacity(product_of([make_linear(3)] * 2)) == 2.0
    path = _gen_files(tmp_path)
    capsys.readouterr()
    assert cli.main(["reduce", path("l2cubed.json"), path("l3xl3.json")]) == 1
    assert json.loads(capsys.readouterr().out) == {"reason": "capacity"}


@criterion(2, "perfectness-index separation")
def test_criterion_02(tmp_path, capsys):
    assert perfectness_index(product_of([make_linear(4), make_linear(2)])) == 4
    assert perfectness_index(product_of([make_linear(3)] * 2)) == 3
    path = _gen_files(tmp_path)
    capsys.readouterr()
    assert cli.main(["reduce", path("l3xl3.json"), path("l4xl2.json")]) == 1
    assert json.loads(capsys.readouterr().out) == {"reason": "perfectness"}


@criterion(3, "direct-product separations")
def test_criterion_03(tmp_path, capsys):
    path = _gen_files(tmp_path)
    for argv in (
        ["product", path("l4.json"), path("l3.json"), "-o", path("u.json")],
        ["product", path("u.json"), path("l3.json"), "-o", path("l4l3l3.json")],
        ["product", path("l4.json"), path("l4.json"), "-o", path("v.json")],
        ["product", path("v.json"), path("l2.json"), "-o", path("l4l4l2.json")],
    ):
        assert cli.main(argv) == 0
    capsys.readouterr()
    assert cli.main(["reduce", path("l3xl3.json"), path("l2cubed.json")]) == 1
    assert json.loads(capsys.readouterr().out) == {"reason": "no φ exists"}
    assert cli.main(["equiv", path("l4l3l3.json"), path("l4l4l2.json")]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["reason"] == "signature"
    assert out["certificate"] == {"depth": 2, "profile": [8, 8, 8],
                                  "left_count": 735, "right_count": 675}


@criterion(4, "perfectness index of linear devices")
def test_criterion_04():
    for n in (1, 2, 3, 4):
        assert perfectness_index(make_linear(n)) == n


@criterion(5, "sigma bounded by reads times capacity")
def test_criterion_05():
    rng = random.Random(0xC5)
    violations = sum(
        not sigma_capacity_bound(random_device(rng, 8, 6)).holds
        for _ in range(500))
    assert violations == 0


@criterion(6, "minimization soundness")
def test_criterion_06():
    rng = random.Random(0xC6)
    for _ in range(500):
        d = random_device(rng, 8, 6)
        res = minimize(d)
        dm = res.device
        assert verify_reduction(d, dm, res.to_min)
        assert verify_reduction(dm, d, res.from_min)
        assert dm.num_states == d.meet_of_all().num_blocks
        assert is_state_minimal(dm) and is_partition_minimal(dm)
        again = minimize(dm)
        assert json.dumps(again.device.to_dict()) == json.dumps(dm.to_dict())


@criterion(7, "solver agrees with brute-force enumeration")
def test_criterion_07():
    rng = random.Random(0xC7)
    disagreements = 0
    for _ in range(220):
        src, dst = random_small_pair(rng)
        expect = least_reduction_oracle(src, dst)
        got = find_reduction(src, dst)
        if (got is None) != (expect is None):
            disagreements += 1
            continue
        if got is not None:
            assert (got.phi, got.alpha) == expect
            assert verify_reduction(src, dst, got)
    assert disagreements == 0


@criterion(8, "clique encoding matches the oracle")
def test_criterion_08():
    rng = random.Random(0xC8)
    corpus = [random_graph(rng, 4, 7, p=rng.choice((0.4, 0.6, 0.8)),
                           connected=True)
              for _ in range(100)]
    for g in corpus:
        for k in (4, 5):
            found, emb = clique_via_reduction(g, k)
            assert found == brute_clique(g, k)
            if found:
                verts = list(emb.values())
                assert len(set(verts)) == k
                assert all(g.has_edge(u, v)
                           for i, u in enumerate(verts) for v in verts[i + 1:])


@criterion(9, "isomorphism encoding both directions")
def test_criterion_09():
    rng = random.Random(0xC9)
    for _ in range(50):
        g = random_graph(rng, 4, 7)
        names = [f"m{i}" for i in range(g.num_vertices)]
        rng.shuffle(names)
        ren = dict(zip(g.vertices, names))
        h = make_graph(sorted(names), [(ren[u], ren[v]) for u, v in g.edges])
        same, iso = gi_via_equivalence(g, h)
        assert same
        assert len(set(iso.values())) == g.num_vertices
        assert all(h.has_edge(iso[u], iso[v]) for u, v in g.edges)
    made = 0
    while made < 50:
        g = random_graph(rng, 4, 7)
        h = random_graph(rng, g.num_vertices, g.num_vertices)
        if sorted(g.degree(v) for v in g.vertices) == sorted(
                h.degree(v) for v in h.vertices):
            continue
        same, _ = gi_via_equivalence(g, h)
        assert not same
        made += 1


SHAPES = {
    3: [(3,)], 4: [(4,)], 9: [(3, 3)], 12: [(3, 4), (4, 3)], 16: [(4, 4)],
    27: [(3, 3, 3)], 36: [(3, 3, 4), (3, 4, 3), (4, 3, 3)],
    48: [(3, 4, 4), (4, 3, 4), (4, 4, 3)], 64: [(4, 4, 4)],
}


def _grouping_verifies(ds, es, groups):
    for i, group in enumerate(groups):
        sub = product_of([es[j - 1] for j in sorted(group)])
        red = find_reduction(ds[i], sub, structural=False)
        if red is None or not verify_reduction(ds[i], sub, red):
            return False
    return True


@criterion(10, "binary-product criterion agrees with the generic solver")
def test_criterion_10():
    rng = random.Random(0xC10)
    for _ in range(100):
        total = rng.choice(list(SHAPES))
        ds = [random_binary_device(rng, s) for s in rng.choice(SHAPES[total])]
        es = [random_binary_device(rng, s) for s in rng.choice(SHAPES[total])]
        grouped = binary_product_reduce(ds, es)
        generic = find_reduction(product_of(ds), product_of(es),
                                 structural=False)
        assert (grouped is None) == (generic is None)
        if grouped is None:
            continue
        # each grouping block carries its own verified sub-reduction
        assert _grouping_verifies(ds, es, grouped)
        # the generic witness induces a grouping that certifies the same
        # reduction; with equivalent factors in play it may differ from the
        # lex-first one, but it must itself verify factor-wise
        extracted = extract_index_partition(generic, ds, es)
        assert len(extracted) == len(grouped)
        if extracted != grouped:
            assert _grouping_verifies(ds, es, extracted)


@criterion(11, "binary factorization round trip with uniqueness audit")
def test_criterion_11():
    rng = random.Random(0xC11)
    for _ in range(50):
        parts = [random_binary_device(rng, rng.choice((3, 4)))
                 for _ in range(rng.randint(1, 3))]
        got = factor_binary(product_of(parts), audit=True)
        assert got is not None and len(got) == len(parts)
        remaining = list(parts)
        for f in got:
            hit = next(i for i, p in enumerate(remaining)
                       if decide_equivalence(f, p) is not None)
            remaining.pop(hit)
        assert not remaining


@criterion(12, "partition product laws")
def test_criterion_12():
    rng = random.Random(0xC12)
    for _ in range(1000):
        g1 = GroundSet(f"a{i}" for i in range(rng.randint(2, 6)))
        g2 = GroundSet(f"b{i}" for i in range(rng.randint(2, 6)))
        p, r = random_partition(rng, g1), random_partition(rng, g1)
        p2, r2 = random_partition(rng, g2), random_partition(rng, g2)
        assert p.product(p2).meet(r.product(r2)) == p.meet(r).product(p2.meet(r2))
        assert p.product(p2).join(r.product(r2)) == p.join(r).product(p2.join(r2))
        assert p.product(p2).refines(r.product(r2)) == (
            p.refines(r) and p2.refines(r2))


@criterion(13, "guessing-game accept rates")
def test_criterion_13():
    g = GroundSet("0123")
    d0 = Device(g, [Partition.from_blocks(g, [["0", "1"], ["2", "3"]]),
                    Partition.from_blocks(g, [["0", "2"], ["1", "3"]])])
    d1 = Device(g, [Partition.from_blocks(g, [["0"], ["1"], ["2", "3"]]),
                    Partition.from_blocks(g, [["0", "1"], ["2"], ["3"]])])
    out = ip_nonequiv_sim(d0, d1, trials=100, seed=20260823)
    assert out.accept_rate == 1
    twin, _ = random_equivalent(d0, seed=5)
    out = ip_nonequiv_sim(d0, twin, trials=200, seed=20260823)
    assert 0.38 <= out.accept_rate <= 0.62


@criterion(14, "perfect-device prime factorization")
def test_criterion_14():
    assert factor_perfect(12) == [(2, 2), (3, 1)]
    rebuilt = product_of([make_perfect(2), make_perfect(2), make_perfect(3)])
    assert decide_equivalence(make_perfect(12), rebuilt) is not None


if __name__ == "__main__":
    import sys

    import pytest

    sys.exit(pytest.main([__file__, "-q", "-s"]))
