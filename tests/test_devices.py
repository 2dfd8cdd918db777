"""Device construction, classification, named families, products, D^(k)."""

import json
import random
import tracemalloc

import pytest

from asdkit import config, devices
from asdkit.devices import (
    Device,
    classify,
    direct_product,
    gaussian_binomial,
    k_reads,
    make_linear,
    make_perfect,
    make_projective,
    product_of,
    validate,
)
from asdkit.errors import (
    EmptyPartitionSet,
    EmptyStateSpace,
    GroundMismatch,
    LimitExceeded,
    PreconditionMismatch,
    UnknownLabel,
)
from asdkit.partitions import GroundSet, Partition

from corpus import random_device, two_block_reads


def test_validate_examples():
    d = validate({"states": ["s"], "partitions": [[["s"]]]})
    cls = classify(d)
    assert cls.perfect and cls.trivial
    # duplicates collapse: set semantics
    two = validate({
        "states": ["a", "b"],
        "partitions": [[["a"], ["b"]], [["b"], ["a"]]],
    })
    assert two.num_partitions == 1
    with pytest.raises(UnknownLabel):
        validate({"states": ["a"], "partitions": [[["z"]]]})
    with pytest.raises(EmptyStateSpace):
        validate({"states": [], "partitions": []})
    with pytest.raises(EmptyPartitionSet):
        validate({"states": ["a"], "partitions": []})
    with pytest.raises(GroundMismatch):
        Device(GroundSet("ab"), [Partition.identity(GroundSet("abc"))])


@pytest.mark.parametrize("bad", [7, None, ["b"], {"b": "b"}])
def test_label_type_check_comes_before_label_lookup(bad):
    """A non-string label in the last read wins over an unknown state in an earlier one."""
    raw = {"states": ["a", "b"], "partitions": [[["z"], ["a", "b"]], [["a"], [bad]]]}
    with pytest.raises(ValueError) as raised:
        validate(raw)
    assert type(raised.value) is ValueError
    assert str(raised.value) == "block labels must be strings"
    with pytest.raises(UnknownLabel):
        validate(dict(raw, partitions=raw["partitions"][:1]))


def test_str_subclass_labels_are_accepted():
    class Tag(str):
        pass

    tagged = validate({"states": ["a", "b"], "partitions": [[[Tag("b")], [Tag("a")]]]})
    assert tagged == validate({"states": ["a", "b"], "partitions": [[["a"], ["b"]]]})


def test_classify_named_devices():
    c4 = classify(make_perfect(4))
    assert c4.perfect and c4.regular == 4 and not c4.binary
    p3 = classify(make_projective(3))
    assert p3.binary and not p3.perfect
    g = GroundSet("ab")
    t = classify(Device(g, [Partition.top(g)]))
    assert t.trivial and not t.perfect


def test_make_perfect():
    c1 = make_perfect(1)
    assert c1.num_states == 1 and c1.num_partitions == 1
    c4 = make_perfect(4)
    assert c4.num_states == 4
    assert c4.partitions[0].is_identity
    with pytest.raises(EmptyStateSpace):
        make_perfect(0)


def test_make_perfect_is_capped_before_it_builds_states():
    cap = config.MAX_PRODUCT_STATES
    assert make_perfect(cap).num_states == cap
    tracemalloc.start()
    try:
        with pytest.raises(LimitExceeded):
            make_perfect(cap + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_make_projective():
    p1 = make_projective(1)
    assert p1.num_states == 2 and classify(p1).perfect
    p3 = make_projective(3)
    assert p3.num_states == 8 and p3.num_partitions == 3
    assert classify(p3).binary
    p2 = make_projective(2)
    first = Partition.from_blocks(p2.states, [["00", "01"], ["10", "11"]])
    assert first in p2.partitions
    with pytest.raises(LimitExceeded):
        make_projective(64)


def test_make_linear_small():
    l2 = make_linear(2)
    assert l2.num_states == 4 and l2.num_partitions == 3
    assert classify(l2).binary
    # the three kernels: x1, x2, x1 xor x2
    g = l2.states
    expect = {
        Partition.from_blocks(g, [["00", "01"], ["10", "11"]]),
        Partition.from_blocks(g, [["00", "10"], ["01", "11"]]),
        Partition.from_blocks(g, [["00", "11"], ["01", "10"]]),
    }
    assert set(l2.partitions) == expect
    l32 = make_linear(3, 2)
    assert l32.num_states == 8 and l32.num_partitions == 7
    assert classify(l32).regular == 4
    assert classify(make_linear(1)).perfect


def test_linear_partition_counts_match_subspace_count():
    # number of rank-k row spaces in F_2^n
    for n in range(1, 5):
        for k in range(1, n + 1):
            assert make_linear(n, k).num_partitions == gaussian_binomial(n, k)
    assert gaussian_binomial(4, 2) == 35


def test_direct_product():
    l2 = make_linear(2)
    one = make_perfect(1).with_name(None)
    prod = direct_product(l2, one)
    assert prod.num_states == 4 and prod.num_partitions == 3
    c6 = direct_product(make_perfect(2), make_perfect(3))
    assert classify(c6).perfect and c6.num_states == 6
    big = direct_product(l2, l2)
    assert big.num_states == 16 and big.num_partitions == 9
    assert all(p.num_blocks == 4 for p in big.partitions)
    assert big.states.elements[0] == "(00,00)"
    with pytest.raises(LimitExceeded):
        direct_product(make_perfect(100), make_perfect(100))


def test_size_caps():
    with pytest.raises(LimitExceeded, match="n=9"):
        make_linear(9)
    # F_2^8 has 200,787 four-dimensional subspaces
    with pytest.raises(LimitExceeded, match="200787 partitions"):
        make_linear(8, 4)
    # 4,096 states is within the state cap; 651 x 651 reads is not
    l62 = make_linear(6, 2)
    with pytest.raises(LimitExceeded, match="partition family"):
        direct_product(l62, l62)
    with pytest.raises(EmptyStateSpace):
        product_of([])


def test_k_reads_cap_is_read_at_call_time(monkeypatch):
    l3 = make_linear(3)
    assert k_reads(l3, 2).num_partitions == 14
    monkeypatch.setattr(config, "MAX_KREAD_PARTITIONS", 13)
    with pytest.raises(LimitExceeded, match="exceeds 13 partitions"):
        k_reads(l3, 2)


def test_k_reads_stops_at_the_cap_within_a_level(monkeypatch):
    """300 two-block reads have more than 20,000 distinct pairwise meets; the
    closure raises on the meet that passes the cap, not after all 90,000."""
    dev = two_block_reads(random.Random(7), 300)
    calls = []
    meet = Partition.meet
    monkeypatch.setattr(Partition, "meet", lambda p, other: calls.append(1) or meet(p, other))
    with pytest.raises(LimitExceeded):
        k_reads(dev, 2)
    assert len(calls) < 300 * 300


def test_product_perfect_iff_both_perfect():
    rng = random.Random(61)
    for _ in range(60):
        a = random_device(rng, 4, 3)
        b = random_device(rng, 4, 3)
        ab = direct_product(a, b)
        assert classify(ab).perfect == (classify(a).perfect and classify(b).perfect)


def test_k_reads():
    l2 = make_linear(2)
    assert k_reads(l2, 1) == l2
    l2_2 = k_reads(l2, 2)
    assert classify(l2_2).perfect
    p3 = make_projective(3)
    assert not classify(k_reads(p3, 2)).perfect
    assert classify(k_reads(p3, 3)).perfect
    with pytest.raises(PreconditionMismatch):
        k_reads(l2, 0)


def test_k_reads_monotone():
    rng = random.Random(67)
    for _ in range(40):
        d = random_device(rng, 5, 4)
        prev = set(k_reads(d, 1).partitions)
        for k in (2, 3):
            cur = set(k_reads(d, k).partitions)
            assert prev <= cur
            prev = cur
        # some k makes it perfect iff the meet of all reads is id
        full = k_reads(d, d.num_partitions)
        assert classify(full).perfect == d.meet_of_all().is_identity


def test_meet_of_all_stops_after_few_reads_of_a_sorted_family(monkeypatch):
    """Reads sorted by labels come in runs that split the same early states.
    The strided fold separates the 1,024 states of L4xL3xL3, with its states
    shuffled, after at most four reads more than the first; the fold in
    sorted order took 151."""
    folds = []

    def dense(raw):
        folds.append(None)
        return dense_of(raw)

    dense_of = devices._dense
    monkeypatch.setattr(devices, "_dense", dense)
    doc = product_of([make_linear(4), make_linear(3), make_linear(3)]).to_dict()
    random.Random(0).shuffle(doc["states"])
    assert Device.from_dict(doc).meet_of_all().is_identity and len(folds) <= 4


def test_serialization_round_trip():
    rng = random.Random(71)
    for _ in range(50):
        d = random_device(rng, 6, 4).with_name("rt")
        blob = json.dumps(d.to_dict())
        back = Device.from_dict(json.loads(blob))
        assert back == d
        assert back.to_dict() == d.to_dict()
    # canonical order is emitted regardless of input order
    raw = {
        "states": ["a", "b", "c"],
        "partitions": [[["c"], ["a", "b"]], [["a"], ["b", "c"]]],
    }
    d1 = validate(raw)
    raw["partitions"].reverse()
    d2 = validate(raw)
    assert d1.to_dict() == d2.to_dict()


def test_device_hash_and_repr():
    ground = GroundSet("abc")
    reads = [Partition.from_blocks(ground, [["a"], ["b", "c"]]),
             Partition.from_blocks(ground, [["a", "b"], ["c"]])]
    d1 = Device(ground, reads, "pair")
    d2 = Device(ground, reads[::-1])
    assert d1 == d2 and hash(d1) == hash(d2) and len({d1, d2}) == 1
    assert repr(d1) == "<pair: 3 states, 2 partitions>"
    assert repr(d2) == "<device: 3 states, 2 partitions>"


def test_product_of_flattens_left_associatively():
    c2 = make_perfect(2)
    triple = product_of([c2, c2, c2])
    assert triple.num_states == 8
    assert triple.states.elements[0] == "(1,1,1)"
    assert triple == direct_product(direct_product(c2, c2), c2)
