"""Graph devices and the encodings of clique and graph isomorphism.

A graph becomes a device whose states are the vertices and whose reads are
the edge partitions {u}, {v}, everything else.  Containment of a complete
graph's device then matches containment of a k-clique, and device
equivalence matches graph isomorphism, so the solver doubles as a (wildly
impractical, deliberately so) clique finder and isomorphism tester.  Every
extracted witness is re-verified against the raw graph, never trusted from
the solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import config
from .devices import Device
from .errors import GraphError, IsolatedVertex, LimitExceeded, PreconditionMismatch, TooFewVertices
from .partitions import GroundSet, Partition
from .reduction import decide_equivalence, find_reduction


@dataclass(frozen=True)
class Graph:
    vertices: tuple[str, ...]
    edges: frozenset[tuple[str, str]]  # endpoints sorted within each pair

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise GraphError("duplicate vertex labels")
        declared = set(self.vertices)
        for e in self.edges:
            u, v = e
            if u == v:
                raise GraphError(f"self-loop at {u!r}")
            if u > v:
                raise GraphError("edge endpoints must be stored sorted")
            if u not in declared or v not in declared:
                raise GraphError(f"edge {e!r} uses undeclared vertices")

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    def degree(self, v: str) -> int:
        return sum(1 for e in self.edges if v in e)

    def has_edge(self, u: str, v: str) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def to_dict(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "edges": sorted(list(e) for e in self.edges),
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "Graph":
        if not isinstance(raw, dict):
            raise GraphError("graph document must be a JSON object")
        verts = raw.get("vertices")
        edges = raw.get("edges")
        if not isinstance(verts, list) or not all(isinstance(v, str) for v in verts):
            raise GraphError("'vertices' must be a list of strings")
        if not isinstance(edges, list):
            raise GraphError("'edges' must be a list of pairs")
        seen = set()
        for e in edges:
            if not isinstance(e, list) or len(e) != 2 or not all(isinstance(x, str) for x in e):
                raise GraphError(f"malformed edge {e!r}")
            key = (min(e), max(e))
            if key in seen:
                raise GraphError(f"duplicate edge {e!r}")
            seen.add(key)
        return cls(tuple(verts), frozenset(seen))


def make_graph(vertices, edges) -> Graph:
    """Build a graph from any iterable of vertices and endpoint pairs."""
    return Graph(
        tuple(vertices),
        frozenset((min(u, v), max(u, v)) for u, v in edges),
    )


def complete_graph(k: int) -> Graph:
    if k < 4:
        raise TooFewVertices(f"complete graph needs k >= 4, got {k}")
    verts = [f"v{i}" for i in range(1, k + 1)]
    return make_graph(verts, combinations(verts, 2))


def graph_device(g: Graph) -> Device:
    """Device with one 3-block read per edge: the two endpoints and the rest.

    Defined only for graphs with at least four vertices and no isolated
    vertex; under those hypotheses the device is minimal, so reductions out
    of it have injective state maps.
    """
    if g.num_vertices < 4:
        raise TooFewVertices(f"graph device needs at least 4 vertices, got {g.num_vertices}")
    if not g.edges:
        raise GraphError("graph device needs at least one edge")
    isolated = [v for v in g.vertices if g.degree(v) == 0]
    if isolated:
        raise IsolatedVertex(f"isolated vertices {isolated} not allowed")
    ground = GroundSet(g.vertices)
    parts = []
    for u, v in sorted(g.edges):
        parts.append(Partition.from_raw(ground, (0 if x == u else 1 if x == v else 2 for x in g.vertices)))
    return Device(ground, parts, name=f"graph:{g.num_vertices}v{len(g.edges)}e")


def brute_clique(g: Graph, k: int) -> bool:
    """Exhaustive k-subset clique test, the oracle the encoding is checked against."""
    if k < 0:
        raise PreconditionMismatch("clique size cannot be negative")
    if g.num_vertices > config.MAX_BRUTE_VERTICES:
        raise LimitExceeded(
            f"{g.num_vertices} vertices exceed the exhaustive cap {config.MAX_BRUTE_VERTICES}")
    if k == 0:
        return True
    for subset in combinations(g.vertices, k):
        if all(g.has_edge(u, v) for u, v in combinations(subset, 2)):
            return True
    return False


def clique_via_reduction(g: Graph, k: int, **solver_kw) -> tuple[bool, dict[str, str] | None]:
    """Decide whether g contains a k-clique by reducing the K_k device to g's.

    Returns (answer, embedding); the embedding maps clique vertices to
    distinct pairwise-adjacent vertices of g and is re-checked against the
    raw graph, independent of the solver.
    """
    if k < 4:
        raise TooFewVertices(f"encoding needs k >= 4, got {k}")
    kk = complete_graph(k)
    red = find_reduction(graph_device(kk), graph_device(g), **solver_kw)
    if red is None:
        return False, None
    image = [g.vertices[t] for t in red.phi]
    if len(set(image)) != k or not all(
        g.has_edge(u, v) for u, v in combinations(image, 2)
    ):
        raise RuntimeError("solver witness does not span a clique")
    return True, {kv: gv for kv, gv in zip(kk.vertices, image)}


def gi_via_equivalence(g: Graph, h: Graph, **solver_kw) -> tuple[bool, dict[str, str] | None]:
    """Decide graph isomorphism through device equivalence.

    Returns (answer, isomorphism); the vertex bijection is re-checked
    edge-by-edge on the raw graphs.
    """
    dg, dh = graph_device(g), graph_device(h)
    eq = decide_equivalence(dg, dh, **solver_kw)
    if eq is None:
        return False, None
    fwd, _ = eq
    iso = {g.vertices[x]: h.vertices[t] for x, t in enumerate(fwd.phi)}
    if len(set(iso.values())) != h.num_vertices or len(g.edges) != len(h.edges):
        raise RuntimeError("solver witness is not a vertex bijection")
    for u, v in g.edges:
        if not h.has_edge(iso[u], iso[v]):
            raise RuntimeError("solver witness does not preserve edges")
    return True, iso
