"""Graph devices and the clique / isomorphism encodings."""

import random

import pytest

from asdkit.errors import (
    GraphError,
    IsolatedVertex,
    LimitExceeded,
    PreconditionMismatch,
    TooFewVertices,
)
from asdkit.graphs import (
    Graph,
    brute_clique,
    clique_via_reduction,
    complete_graph,
    gi_via_equivalence,
    graph_device,
    make_graph,
)
from asdkit.minimization import is_partition_minimal, is_state_minimal

from corpus import clique_oracle, isomorphic_oracle, random_graph, turan_graph


def _path4():
    return make_graph("abcd", [("a", "b"), ("b", "c"), ("c", "d")])


def test_graph_validation():
    g = make_graph("abcd", [("b", "a"), ("c", "d")])
    assert g.has_edge("a", "b") and g.has_edge("b", "a")
    assert not g.has_edge("a", "c")
    assert g.degree("a") == 1
    with pytest.raises(GraphError):
        make_graph("abc", [("a", "a")])
    with pytest.raises(GraphError):
        make_graph("abc", [("a", "z")])
    with pytest.raises(GraphError):
        make_graph("aabc", [("a", "b")])
    with pytest.raises(GraphError):
        Graph.from_dict({"vertices": list("abcd"),
                         "edges": [["a", "b"], ["b", "a"]]})
    with pytest.raises(GraphError, match="sorted"):
        Graph(("a", "b"), frozenset({("b", "a")}))


def test_graph_serialization_round_trip():
    g = make_graph("abcd", [("c", "d"), ("a", "b")])
    d = g.to_dict()
    assert d["edges"] == [["a", "b"], ["c", "d"]]
    assert Graph.from_dict(d) == g


def test_complete_graph():
    assert len(complete_graph(4).edges) == 6
    assert len(complete_graph(5).edges) == 10
    with pytest.raises(TooFewVertices):
        complete_graph(3)


def test_graph_device_examples():
    dk4 = graph_device(complete_graph(4))
    assert dk4.num_states == 4 and dk4.num_partitions == 6
    assert all(p.size_multiset() == (1, 1, 2) for p in dk4.partitions)
    assert graph_device(_path4()).num_partitions == 3
    with pytest.raises(TooFewVertices):
        graph_device(make_graph("abc", [("a", "b"), ("b", "c"), ("a", "c")]))
    with pytest.raises(IsolatedVertex):
        graph_device(make_graph("abcd", [("a", "b"), ("b", "c")]))


def test_graph_device_is_minimal():
    rng = random.Random(191)
    for _ in range(40):
        d = graph_device(random_graph(rng, 4, 8))
        assert is_state_minimal(d)
        assert is_partition_minimal(d)


def test_brute_clique():
    assert brute_clique(complete_graph(5), 4)
    assert brute_clique(_path4(), 0)
    star = make_graph("abcd", [("a", "b"), ("a", "c"), ("a", "d")])
    assert not brute_clique(star, 3)
    with pytest.raises(PreconditionMismatch):
        brute_clique(star, -1)
    with pytest.raises(LimitExceeded):
        brute_clique(complete_graph(17), 4)


def test_clique_via_reduction_examples():
    found, emb = clique_via_reduction(complete_graph(5), 4)
    assert found and len(set(emb.values())) == 4
    # 4-cycle with a pendant: no K_4 anywhere
    g = make_graph("abcde", [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d"),
                             ("d", "e")])
    found, emb = clique_via_reduction(g, 4)
    assert not found and emb is None
    with pytest.raises(TooFewVertices):
        clique_via_reduction(g, 3)


def test_clique_matches_oracle():
    rng = random.Random(193)
    for _ in range(50):
        g = random_graph(rng, 4, 8, p=rng.choice((0.4, 0.6, 0.8)))
        for k in (4, 5):
            found, emb = clique_via_reduction(g, k)
            assert found == clique_oracle(g, k)
            assert found == brute_clique(g, k)
            if found:
                # the embedding is a clique in the raw graph
                verts = list(emb.values())
                assert len(set(verts)) == k
                assert all(g.has_edge(u, v)
                           for i, u in enumerate(verts)
                           for v in verts[i + 1:])


def test_turan_graphs_have_no_larger_clique():
    """T(n, r) has r parts as equal as possible and clique number r, checked
    by enumeration on T(8, 3) and T(9, 4); the encoding then says "no" for
    K5 into T(20, 4) and K6 into T(20, 5), where enumeration is out of reach."""
    for n, r in ((8, 3), (9, 4)):
        g = turan_graph(n, r)
        sizes = [n // r + (i < n % r) for i in range(r)]
        assert len(g.edges) == n * (n - 1) // 2 - sum(m * (m - 1) // 2 for m in sizes)
        assert clique_oracle(g, r) and not clique_oracle(g, r + 1)
        assert clique_via_reduction(g, r + 1) == (False, None)
    assert clique_via_reduction(turan_graph(9, 4), 4)[0]
    for n, r in ((20, 4), (20, 5)):
        assert clique_via_reduction(turan_graph(n, r), r + 1, budget=500_000) == (False, None)


def test_gi_examples():
    g = _path4()
    relab = make_graph("wxyz", [("w", "x"), ("x", "y"), ("y", "z")])
    same, iso = gi_via_equivalence(g, relab)
    assert same
    assert sorted(iso) == list("abcd")
    assert all(relab.has_edge(iso[u], iso[v]) for u, v in g.edges)
    cyc = make_graph("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
    same, iso = gi_via_equivalence(complete_graph(4), cyc)
    assert not same and iso is None


def test_gi_matches_oracle():
    rng = random.Random(197)
    for _ in range(30):
        g = random_graph(rng, 4, 6)
        h = random_graph(rng, 4, 6)
        same, iso = gi_via_equivalence(g, h)
        assert same == isomorphic_oracle(g, h)
        if same:
            assert all(h.has_edge(iso[u], iso[v]) for u, v in g.edges)
            assert len(set(iso.values())) == g.num_vertices


def test_gi_on_shuffled_copies():
    rng = random.Random(199)
    for _ in range(20):
        g = random_graph(rng, 4, 7)
        names = [f"m{i}" for i in range(g.num_vertices)]
        rng.shuffle(names)
        ren = dict(zip(g.vertices, names))
        h = make_graph(sorted(names), [(ren[u], ren[v]) for u, v in g.edges])
        same, iso = gi_via_equivalence(g, h)
        assert same
        assert all(h.has_edge(iso[u], iso[v]) for u, v in g.edges)
