"""Every internal consistency check raises when the call it guards lies.

Each case patches one call so that a search, a certificate or a witness
comes back wrong, and expects the RuntimeError of the check behind it."""

import pytest

from asdkit import factorization, graphs, reduction
from asdkit.devices import make_linear
from asdkit.graphs import clique_via_reduction, gi_via_equivalence, make_graph
from asdkit.witnesses import Reduction

L2 = make_linear(2)  # 4 states, 3 reads of two 2-state blocks each
PATH = make_graph("abcd", ["ab", "bc", "cd"])


def _rejects(*args):
    return False


def _keeps_every_candidate(src, dst, exact):
    return lambda cands, x, t: cands


CASES = {
    "bitmask search": (reduction, "verify_reduction", _rejects,
                       lambda: reduction._search_reduction_bitmask(L2, L2, 1000),
                       "search produced an invalid witness"),
    "numpy search": (reduction, "verify_reduction", _rejects,
                     lambda: reduction.find_reduction(L2, L2, structural=False),
                     "search produced an invalid witness"),
    "equivalence": (reduction, "verify_reduction", _rejects,
                    lambda: reduction.decide_equivalence(L2, L2),
                    "composed equivalence witness failed verification"),
    "relabelling": (reduction, "verify_reduction", _rejects,
                    lambda: reduction.random_equivalent(L2, 0),
                    "relabeling witness failed verification"),
    "bijection leaf": (reduction, "_mask_step", _keeps_every_candidate,
                       lambda: reduction.decide_equivalence(L2, L2),
                       "exact match left a non-singleton candidate"),
    "sub-witness": (factorization, "verify_reduction", _rejects,
                    lambda: factorization.binary_product_reduce([L2], [L2]),
                    "solver returned an invalid sub-witness"),
    "uniqueness audit": (factorization, "_same_factor_multiset", lambda *args: False,
                         lambda: factorization.factor_binary(L2, audit=True),
                         "uniqueness audit found inequivalent factorizations"),
    "perfect certificate": (factorization, "decide_equivalence", lambda *args, **kw: None,
                            lambda: factorization.factor_perfect(12),
                            "perfect factorization failed certification"),
    "clique embedding": (graphs, "find_reduction",
                         lambda *args, **kw: Reduction((0, 0, 0, 0), (0,) * 6),
                         lambda: clique_via_reduction(PATH, 4),
                         "solver witness does not span a clique"),
    "vertex bijection": (graphs, "decide_equivalence",
                         lambda *args, **kw: (Reduction((0, 0, 0, 0), (0, 0, 0)), None),
                         lambda: gi_via_equivalence(PATH, PATH),
                         "solver witness is not a vertex bijection"),
    # a and b swap places, so the edge b-c lands on a-c, which PATH lacks
    "edge preservation": (graphs, "decide_equivalence",
                          lambda *args, **kw: (Reduction((1, 0, 2, 3), (0, 1, 2)), None),
                          lambda: gi_via_equivalence(PATH, PATH),
                          "solver witness does not preserve edges"),
}


@pytest.mark.parametrize("module, name, fake, call, message", CASES.values(), ids=CASES)
def test_internal_check_raises(monkeypatch, module, name, fake, call, message):
    monkeypatch.setattr(module, name, fake)
    with pytest.raises(RuntimeError, match=message):
        call()
