"""Every check of a shared limit reads it from config when it runs.

config.MAX_PAIR_BYTES caps the pair-count tables: _pair_counts refuses by
itself, the depth-2 signature checks its own estimate, and the reduction
search skips pair propagation.  config.MAX_CERTIFIED_STATES caps
factor_binary, factor_perfect's certification and the CLI's "certified"
key.  One patch of config must reach each of them."""

import json
import random
import tracemalloc

import pytest

from asdkit import cli, config, factorization, reduction
from asdkit.devices import Device, direct_product, make_linear
from asdkit.errors import LimitExceeded
from asdkit.factorization import factor_binary, factor_perfect
from asdkit.invariants import _pair_counts, poly_signature
from asdkit.minimization import minimize
from asdkit.partitions import GroundSet, Partition
from asdkit.reduction import _search_reduction

from corpus import random_binary_device

L2, L3 = make_linear(2), make_linear(3)


@pytest.fixture
def pair_cap_1mib(monkeypatch):
    monkeypatch.setattr(config, "MAX_PAIR_BYTES", 1 << 20)


@pytest.fixture
def certified_cap_8(monkeypatch):
    monkeypatch.setattr(config, "MAX_CERTIFIED_STATES", 8)


def test_pair_counts_refuse_before_allocating(pair_cap_1mib):
    """200 reads of 2-4 blocks on 100 states: the one-hot matrix alone would
    take over 160 KB, yet the refused call peaks under 64 KiB."""
    rng = random.Random(0x200)
    g = GroundSet(str(i) for i in range(100))
    parts = {}
    while len(parts) < 200:
        k = rng.randint(2, 4)
        pt = Partition.from_raw(g, [rng.randrange(k) for _ in range(100)])
        parts[pt.labels] = pt
    dev = Device(g, parts.values())
    tracemalloc.start()
    try:
        with pytest.raises(LimitExceeded, match="pair counts of 200 reads exceed the memory cap"):
            _pair_counts(dev)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_factor_probe_refused_by_the_pair_cap(pair_cap_1mib):
    dev = direct_product(random_binary_device(random.Random(1), 3),
                         random_binary_device(random.Random(2), 3))
    with pytest.raises(LimitExceeded, match="pair counts"):
        factor_binary(dev)


def test_signature_refused_by_the_pair_cap(pair_cap_1mib):
    with pytest.raises(LimitExceeded, match="over 1 MiB"):
        poly_signature(minimize(direct_product(L3, L2)).device)


def test_search_skips_pair_propagation_under_the_pair_cap(monkeypatch):
    """L2 x L3 -> L3 x L2 narrows by pair propagation at the default cap;
    under a 1 MiB cap the search never propagates and finds the same witness."""
    src = minimize(direct_product(L2, L3)).device
    dst = minimize(direct_product(L3, L2)).device
    narrowed = []
    ac_narrow = reduction._ac_narrow

    def spy(alive, allowb):
        narrowed.append(1)
        return ac_narrow(alive, allowb)

    monkeypatch.setattr(reduction, "_ac_narrow", spy)
    want = _search_reduction(src, dst, 20_000)
    assert want is not None and narrowed

    def refuse(alive, allowb):
        pytest.fail("pair propagation ran over the cap")

    monkeypatch.setattr(reduction, "_ac_narrow", refuse)
    monkeypatch.setattr(config, "MAX_PAIR_BYTES", 1 << 20)
    assert _search_reduction(src, dst, 20_000) == want


def test_factor_binary_refused_by_the_certified_cap(certified_cap_8):
    with pytest.raises(LimitExceeded, match=r"32 states \(cap 8\)"):
        factor_binary(direct_product(L2, L3))


def test_factor_perfect_skips_certification_over_the_certified_cap(certified_cap_8, monkeypatch):
    def refuse(*args, **kw):
        pytest.fail("factor_perfect certified 12 states over a cap of 8")

    monkeypatch.setattr(factorization, "decide_equivalence", refuse)
    assert factor_perfect(12) == [(2, 2), (3, 1)]


def test_cli_reports_uncertified_over_the_certified_cap(certified_cap_8, capsys):
    assert cli.main(["factor-perfect", "12"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"m": 12, "factors": [[2, 2], [3, 1]], "certified": False}
