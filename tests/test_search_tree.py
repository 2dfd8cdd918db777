"""The reduction search tree on state-minimal sources, pinned by a digest.

Every call of the narrowing step that _backtrack drives is hashed with its
state, its target and the child's candidates, over a fixed seeded set of
searches.  A change that keeps verdicts and witnesses but explores, orders or
prunes differently changes the digest.  One meant to shrink the tree, such
as symmetry pruning, re-pins it and says why; one that must not change it,
such as trail undo or refutation logging, keeps it.  The ten K4 searches
have a symmetric source, so their images are tried in increasing order:
that took the count from 4,312 calls to 2,724.
"""

import hashlib
import random

from asdkit import reduction
from asdkit.devices import direct_product, make_linear
from asdkit.errors import SearchBudgetExceeded
from asdkit.graphs import complete_graph, graph_device
from asdkit.invariants import prescreen
from asdkit.minimization import is_state_minimal

from corpus import random_binary_device, random_device, random_graph

BUDGET = 20_000


def _searches():
    """(source, target) pairs with state-minimal sources, in a fixed order."""
    rng = random.Random(2024)
    pairs = [(direct_product(make_linear(2), make_linear(3)),
              direct_product(make_linear(3), make_linear(2)))]
    for _ in range(12):
        a, b = rng.choice((3, 4)), rng.choice((3, 4))
        src = direct_product(random_binary_device(rng, a), random_binary_device(rng, b))
        dst = direct_product(random_binary_device(rng, b), random_binary_device(rng, a))
        pairs.append((src, dst))
    k4 = graph_device(complete_graph(4))
    for _ in range(10):
        pairs.append((k4, graph_device(random_graph(rng, 7, 9, p=0.5))))
    # random pairs that the prescreen leaves to the search
    while len(pairs) < 47:
        src, dst = random_device(rng, 8, 5), random_device(rng, 9, 5)
        if is_state_minimal(src) and prescreen(src, dst) is None:
            pairs.append((src, dst))
    return pairs


def test_search_tree_digest_on_state_minimal_sources(monkeypatch):
    digest = hashlib.sha256()
    calls = 0
    backtrack = reduction._backtrack

    def traced(nd, ne, root, extend, *rest, **kw):
        def hashed(frame, x, t):
            nonlocal calls
            child = extend(frame, x, t)
            calls += 1
            # every search here runs the numpy step, whose frame starts with the candidate matrix
            digest.update(repr((x, t, None if child is None else child[0].tobytes())).encode())
            return child
        return backtrack(nd, ne, root, hashed, *rest, **kw)

    monkeypatch.setattr(reduction, "_backtrack", traced)
    for src, dst in _searches():
        try:
            red = reduction.find_reduction(src, dst, budget=BUDGET, structural=False)
            verdict = None if red is None else (red.phi, red.alpha)
        except SearchBudgetExceeded:
            verdict = "budget"
        digest.update(repr(verdict).encode())
    assert (calls, digest.hexdigest()) == (
        2724, "5a1bd8d854af323b4374666a57e74f28c9f3dd12124a4b1d7aa9e5ce5d719366")
