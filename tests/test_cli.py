"""End-to-end command tests: exit codes, golden output, witness round trips."""

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from asdkit import cli, factorization, invariants, minimization
from asdkit.devices import Device, direct_product, make_linear, product_of
from asdkit.graphs import graph_device, make_graph
from asdkit.reduction import find_reduction
from asdkit.witnesses import reduction_to_dict

from corpus import two_block_reads, with_coarsened_reads

INVARIANTS_L4XL2 = """\
{
  "capacity": 2,
  "sigma": 6,
  "perfectness_index": 4
}
"""


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Device and graph files shared by the command tests."""
    root = tmp_path_factory.mktemp("cliwork")

    def path(name):
        return str(root / name)

    def run(argv):
        assert cli.main(argv) == 0

    run(["gen", "cm", "3", "-o", path("c3.json")])
    run(["gen", "lnk", "2", "-o", path("l2.json")])
    run(["gen", "lnk", "3", "-o", path("l3.json")])
    run(["gen", "lnk", "4", "-o", path("l4.json")])
    run(["gen", "pn", "2", "-o", path("p2.json")])
    run(["product", path("l3.json"), path("l3.json"), "-o", path("l3xl3.json")])
    run(["product", path("l4.json"), path("l2.json"), "-o", path("l4xl2.json")])
    run(["product", path("l2.json"), path("l2.json"), "-o", path("l2sq.json")])
    run(["product", path("l2sq.json"), path("l2.json"), "-o", path("l2cubed.json")])
    run(["product", path("l2.json"), path("p2.json"), "-o", path("l2xp2.json")])

    k5 = {"vertices": [f"v{i}" for i in range(1, 6)],
          "edges": [[f"v{i}", f"v{j}"] for i in range(1, 6)
                    for j in range(i + 1, 6)]}
    (root / "k5.json").write_text(json.dumps(k5))
    path4 = {"vertices": ["a", "b", "c", "d"],
             "edges": [["a", "b"], ["b", "c"], ["c", "d"]]}
    (root / "path4.json").write_text(json.dumps(path4))
    path4r = {"vertices": ["w", "x", "y", "z"],
              "edges": [["w", "x"], ["x", "y"], ["y", "z"]]}
    (root / "path4r.json").write_text(json.dumps(path4r))
    cyc4 = {"vertices": ["a", "b", "c", "d"],
            "edges": [["a", "b"], ["a", "d"], ["b", "c"], ["c", "d"]]}
    (root / "cyc4.json").write_text(json.dumps(cyc4))
    k4 = {"vertices": ["a", "b", "c", "d"],
          "edges": [["a", "b"], ["a", "c"], ["a", "d"], ["b", "c"],
                    ["b", "d"], ["c", "d"]]}
    (root / "k4.json").write_text(json.dumps(k4))

    # same shape, inequivalent: block-count patterns differ
    d0 = {"states": ["0", "1", "2", "3"],
          "partitions": [[["0", "1"], ["2", "3"]], [["0", "2"], ["1", "3"]]]}
    d1 = {"states": ["0", "1", "2", "3"],
          "partitions": [[["0"], ["1"], ["2", "3"]], [["0", "1"], ["2"], ["3"]]]}
    (root / "d0.json").write_text(json.dumps(d0))
    (root / "d1.json").write_text(json.dumps(d1))

    # an equivalent copy of l2xp2 with its states listed in reverse
    with open(path("l2xp2.json"), encoding="utf-8") as fh:
        rev = json.load(fh)
    rev["states"].reverse()
    (root / "l2xp2rev.json").write_text(json.dumps(rev))
    # C6 and two triangles: inequivalent devices with equal depth-2 signatures
    cycle = [["a", "b"], ["b", "c"], ["c", "d"], ["d", "e"], ["e", "f"], ["a", "f"]]
    triangles = [["a", "b"], ["b", "c"], ["a", "c"], ["d", "e"], ["e", "f"], ["d", "f"]]
    for name, edges in (("c6", cycle), ("2k3", triangles)):
        (root / f"{name}.json").write_text(json.dumps({"vertices": list("abcdef"),
                                                       "edges": edges}))
        run(["gen", "graph-device", path(f"{name}.json"), "-o", path(f"{name}dev.json")])
    src, dst = (Device.from_dict(json.loads((root / f).read_text()))
                for f in ("l2.json", "l2sq.json"))
    (root / "wit.json").write_text(json.dumps(
        reduction_to_dict(src, dst, find_reduction(src, dst))))
    states = json.loads((root / "l2.json").read_text())["states"]
    bogus = {"phi": {s: states[0] for s in states}, "alpha": [0, 0, 0]}
    (root / "bogus.json").write_text(json.dumps(bogus))
    return path


def test_gen_show_round_trip(files, capsys):
    assert cli.main(["show", files("l2.json")]) == 0
    shown = capsys.readouterr().out
    with open(files("l2.json"), encoding="utf-8") as fh:
        assert shown == fh.read()
    dev = json.loads(shown)
    assert len(dev["states"]) == 4 and len(dev["partitions"]) == 3


def test_gen_lnk_with_rank(files, capsys):
    assert cli.main(["gen", "lnk", "3", "2"]) == 0
    dev = json.loads(capsys.readouterr().out)
    assert len(dev["states"]) == 8 and len(dev["partitions"]) == 7


def test_invariants_golden(files, capsys):
    assert cli.main(["invariants", files("l4xl2.json")]) == 0
    assert capsys.readouterr().out == INVARIANTS_L4XL2


def test_reduce_reason_capacity(files, capsys):
    code = cli.main(["reduce", files("l2cubed.json"), files("l3xl3.json")])
    assert code == 1
    assert json.loads(capsys.readouterr().out) == {"reason": "capacity"}


def test_reduce_reason_perfectness(files, capsys):
    code = cli.main(["reduce", files("l3xl3.json"), files("l4xl2.json")])
    assert code == 1
    assert json.loads(capsys.readouterr().out) == {"reason": "perfectness"}


def test_reduce_reason_perfectness_above_128_reads(files, capsys, tmp_path):
    many = with_coarsened_reads(direct_product(make_linear(4), make_linear(2)))
    assert many.num_partitions == 315
    (tmp_path / "many.json").write_text(json.dumps(many.to_dict()))
    code = cli.main(["reduce", files("l3xl3.json"), str(tmp_path / "many.json")])
    assert code == 1
    assert json.loads(capsys.readouterr().out) == {"reason": "perfectness"}


def test_invariants_of_a_1024_state_product(files, capsys, tmp_path):
    l4xl3 = str(tmp_path / "l4xl3.json")
    big = str(tmp_path / "l4xl3xl3.json")
    assert cli.main(["product", files("l4.json"), files("l3.json"), "-o", l4xl3]) == 0
    assert cli.main(["product", l4xl3, files("l3.json"), "-o", big]) == 0
    assert cli.main(["invariants", big]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "capacity": 3, "sigma": 10, "perfectness_index": 4}


def test_reduce_no_phi(files, capsys):
    code = cli.main(["reduce", files("l3xl3.json"), files("l2cubed.json")])
    assert code == 1
    assert json.loads(capsys.readouterr().out) == {"reason": "no φ exists"}


def test_reduce_no_phi_between_equal_sized_products(files, capsys):
    """L4xL2 and L3xL3 both have 64 states and pass the prescreen; their
    certified factorizations settle the no at once."""
    code = cli.main(["reduce", files("l4xl2.json"), files("l3xl3.json")])
    assert code == 1
    assert json.loads(capsys.readouterr().out) == {"reason": "no φ exists"}


# a small pool, so strings repeat across keys and items and the emitter's memo is hit;
# it holds what the encoder escapes, non-ASCII text and a lone surrogate
_POOL = st.sampled_from(["", "a", "s0", '"', "\\", 'a"\\b', "\n\t\x00\x1f\x7f", "é ü 中文",
                         "\U0001f600", "\ud800", "(s0,s1)"])
_STRINGS = _POOL | st.text()
_NON_STRINGS = st.none() | st.booleans() | st.integers() | st.floats()
_SCALARS = _NON_STRINGS | _STRINGS
_DOCUMENTS = st.recursive(
    _SCALARS,
    lambda kids: (st.lists(kids, max_size=4) | st.lists(_STRINGS, max_size=6)
                  # strings first, so the memo holds them when a non-string ends the fast path
                  | st.tuples(st.lists(_POOL, min_size=1, max_size=4), _NON_STRINGS,
                              st.lists(kids, max_size=2)).map(lambda t: t[0] + [t[1]] + t[2])
                  | st.dictionaries(_STRINGS, kids, max_size=4)),
    max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(_DOCUMENTS)
def test_emit_writes_the_bytes_of_json_dumps(doc):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(doc, None)
    assert out.getvalue() == json.dumps(doc, ensure_ascii=False, indent=2) + "\n"


def test_reduce_witness_verifies(files, capsys, tmp_path):
    assert cli.main(["reduce", files("l2.json"), files("l2sq.json")]) == 0
    blob = capsys.readouterr().out
    wit = tmp_path / "wit.json"
    wit.write_text(blob)
    assert set(json.loads(blob)) == {"phi", "alpha"}
    code = cli.main(["verify", files("l2.json"), files("l2sq.json"), str(wit)])
    assert code == 0
    assert json.loads(capsys.readouterr().out) == {"valid": True}


def test_verify_rejects_wrong_witness(files, capsys, tmp_path):
    with open(files("l2.json"), encoding="utf-8") as fh:
        states = json.load(fh)["states"]
    bogus = {"phi": {s: states[0] for s in states}, "alpha": [0, 0, 0]}
    wit = tmp_path / "bad.json"
    wit.write_text(json.dumps(bogus))
    code = cli.main(["verify", files("l2.json"), files("l2.json"), str(wit)])
    assert code == 1
    assert json.loads(capsys.readouterr().out) == {"valid": False}


def test_reduce_deterministic(files, capsys):
    assert cli.main(["reduce", files("l2.json"), files("l2sq.json")]) == 0
    first = capsys.readouterr().out
    assert cli.main(["reduce", files("l2.json"), files("l2sq.json")]) == 0
    assert capsys.readouterr().out == first


def test_equiv_yes_with_witnesses(files, capsys, tmp_path):
    assert cli.main(["minimize", files("l2.json")]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"device", "to_min", "from_min"}
    mindev = tmp_path / "l2min.json"
    mindev.write_text(json.dumps(out["device"]))
    assert cli.main(["equiv", files("l2.json"), str(mindev)]) == 0
    eq = json.loads(capsys.readouterr().out)
    assert set(eq) == {"forward", "backward"}
    fwd = tmp_path / "fwd.json"
    fwd.write_text(json.dumps(eq["forward"]))
    assert cli.main(["verify", files("l2.json"), str(mindev), str(fwd)]) == 0
    capsys.readouterr()


def test_equiv_no_with_certificate(files, capsys):
    code = cli.main(["equiv", files("d0.json"), files("d1.json")])
    assert code == 1
    out = json.loads(capsys.readouterr().out)
    assert out["reason"] == "signature"
    cert = out["certificate"]
    assert cert["depth"] == 2
    assert cert["left_count"] != cert["right_count"]


def test_kreads_reaches_identity(files, capsys):
    assert cli.main(["kreads", files("l2.json"), "2"]) == 0
    dev = json.loads(capsys.readouterr().out)
    singletons = [[s] for s in dev["states"]]
    assert singletons in dev["partitions"]


def test_factor_command(files, capsys):
    assert cli.main(["factor", files("l2xp2.json"), "--audit"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["factors"]) == 2
    assert out["audit"] == "consistent"
    assert cli.main(["factor", files("c3.json")]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out == {"reason": "not a product of binary devices", "audit": "skipped"}


def test_internal_error_exits_2_not_1(files, monkeypatch, capsys):
    """With a blind probe the audit finds the factorization the probe missed
    and raises RuntimeError: exit 2 with the error on stderr, not the exit 1
    of a no."""
    monkeypatch.setattr(factorization, "_extract_candidate_factors", lambda dm: None)
    assert cli.main(["factor", files("l2sq.json"), "--audit"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: uniqueness audit found a factorization the probe missed\n"


def test_factor_perfect_command(files, capsys):
    assert cli.main(["factor-perfect", "12"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"m": 12, "factors": [[2, 2], [3, 1]], "certified": True}


def test_clique_commands(files, capsys):
    assert cli.main(["clique", files("k5.json"), "4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(set(out["embedding"].values())) == 4
    assert cli.main(["clique", files("path4.json"), "4"]) == 1
    assert json.loads(capsys.readouterr().out) == {"reason": "no 4-clique"}


def test_gi_commands(files, capsys):
    assert cli.main(["gi", files("path4.json"), files("path4r.json")]) == 0
    out = json.loads(capsys.readouterr().out)
    assert sorted(out["isomorphism"]) == ["a", "b", "c", "d"]
    assert cli.main(["gi", files("k4.json"), files("cyc4.json")]) == 1
    assert json.loads(capsys.readouterr().out) == {"reason": "not isomorphic"}


def test_ip_demo_deterministic(files, capsys):
    argv = ["ip-demo", files("d0.json"), files("d1.json"),
            "--trials", "10", "--seed", "3"]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    out = json.loads(first)
    assert out == {"trials": 10, "accepts": 10, "accept_rate": [1, 1]}
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == first


def test_errors_exit_two(files, capsys, tmp_path):
    edgeless, twins = str(tmp_path / "edgeless.json"), str(tmp_path / "twins.json")
    Path(edgeless).write_text(json.dumps({"vertices": list("abcd"), "edges": []}))
    # a and b lie in one block of every read, so the device is not minimal
    Path(twins).write_text(json.dumps({"states": ["a", "b", "c"],
                                       "partitions": [[["a", "b"], ["c"]]]}))
    for argv in (["show", files("nope.json")],
                 ["gen", "cm", "0"],
                 ["gen", "cm", "4097"],  # one state over config.MAX_PRODUCT_STATES
                 ["factor-perfect", "100000000000000000039"],  # a 21-digit prime, over the cap
                 ["gen", "pn", "0"],
                 ["gen", "lnk", "2", "3"],
                 ["gen", "graph-device", edgeless],
                 # surplus parameters
                 ["gen", "cm", "3", "99"],
                 ["gen", "pn", "2", "2"],
                 ["gen", "lnk", "2", "1", "7"],
                 ["gen", "graph-device", files("k5.json"), files("k5.json")],
                 ["ip-demo", twins, twins, "--trials", "1", "--seed", "0"],
                 # both minimal, with 2 and 3 reads
                 ["ip-demo", files("d0.json"), files("l2.json"), "--trials", "1", "--seed", "0"]):
        assert cli.main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: "), argv
    with pytest.raises(SystemExit) as info:
        cli.main(["not-a-command"])
    assert info.value.code == 2


TWO_STATES = {"states": ["a", "b"], "partitions": [[["a"], ["b"]]]}
EDGE = {"vertices": ["a", "b"], "edges": [["a", "b"]]}
# (command, the documents passed to it in order)
MALFORMED = {
    "partition-not-a-list": ("reduce", [{"states": ["a", "b"], "partitions": [5]}, TWO_STATES]),
    "block-is-a-string": ("show", [{"states": ["a", "b"], "partitions": [["ab"]]}]),
    "mixed-block-kinds": ("show", [{"states": ["a", "b"], "partitions": [[["a"], "b"]]}]),
    "edge-endpoint-not-a-string": ("gi", [{"vertices": ["a", "b"], "edges": [[1, "a"]]}, EDGE]),
    "phi-target-not-a-string": ("verify", [TWO_STATES, TWO_STATES,
                                           {"phi": {"a": ["a"], "b": "b"}, "alpha": [0]}]),
    "state-is-a-list": ("show", [{"states": [["a"], "b"], "partitions": [[[["a"]], ["b"]]]}]),
    "state-is-a-number": ("show", [{"states": [1, "b"], "partitions": [[[1], ["b"]]]}]),
    "block-label-null": ("show", [{"states": ["None", "b"], "partitions": [[[None], ["b"]]]}]),
    "alpha-is-a-boolean": ("verify", [TWO_STATES, TWO_STATES,
                                      {"phi": {"a": "a", "b": "b"}, "alpha": [False]}]),
    "alpha-wrong-length": ("verify", [TWO_STATES, TWO_STATES,
                                      {"phi": {"a": "a", "b": "b"}, "alpha": [0, 0]}]),
    "alpha-out-of-range": ("verify", [TWO_STATES, TWO_STATES,
                                      {"phi": {"a": "a", "b": "b"}, "alpha": [1]}]),
    "witness-not-an-object": ("verify", [TWO_STATES, TWO_STATES, ["a", "b"]]),
    "phi-not-an-object": ("verify", [TWO_STATES, TWO_STATES, {"phi": ["a", "b"], "alpha": [0]}]),
    "phi-not-total": ("verify", [TWO_STATES, TWO_STATES, {"phi": {"a": "a"}, "alpha": [0]}]),
    "phi-unknown-state": ("verify", [TWO_STATES, TWO_STATES,
                                     {"phi": {"a": "a", "b": "b", "c": "a"}, "alpha": [0]}]),
    "device-not-an-object": ("show", [["a", "b"]]),
    "device-name-not-a-string": ("show", [dict(TWO_STATES, name=5)]),
    "partitions-not-a-list": ("show", [{"states": ["a", "b"], "partitions": 5}]),
    "duplicate-state": ("show", [{"states": ["a", "a"], "partitions": [[["a"]]]}]),
    "graph-not-an-object": ("gi", [["a", "b"], EDGE]),
    "vertices-not-strings": ("gi", [{"vertices": [1, 2], "edges": []}, EDGE]),
    "edges-not-a-list": ("gi", [{"vertices": ["a", "b"], "edges": 5}, EDGE]),
}


def _write_documents(root, docs):
    paths = []
    for k, doc in enumerate(docs):
        path = root / f"doc{k}.json"
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    return paths


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_document_exits_two(case, tmp_path, capsys):
    command, docs = MALFORMED[case]
    assert cli.main([command, *_write_documents(tmp_path, docs)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")


def test_python_dash_m_entry_point(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "asdkit", *argv], capture_output=True,
                              text=True, env=env, timeout=120)

    gen = run("gen", "lnk", "2")
    assert gen.returncode == 0
    dev = Device.from_dict(json.loads(gen.stdout))
    assert (dev.num_states, dev.num_partitions) == (4, 3)
    command, docs = MALFORMED["block-is-a-string"]
    bad = run(command, *_write_documents(tmp_path, docs))
    assert bad.returncode == 2
    assert bad.stdout == ""
    assert bad.stderr.startswith("error: ") and "Traceback" not in bad.stderr


def test_output_flag_matches_stdout(files, capsys, tmp_path):
    assert cli.main(["invariants", files("l4xl2.json")]) == 0
    streamed = capsys.readouterr().out
    target = tmp_path / "report.json"
    assert cli.main(["invariants", files("l4xl2.json"), "-o", str(target)]) == 0
    assert target.read_text(encoding="utf-8") == streamed


def test_equiv_minimizes_each_side_once(tmp_path, monkeypatch, capsys):
    """The signature certificate reuses the minimizations the decision made."""
    calls = []
    body = minimization._redundant_indices
    monkeypatch.setattr(minimization, "_redundant_indices",
                        lambda parts: calls.append(parts) or body(parts))
    a = {"states": ["e0", "e1", "e2", "e3"],
         "partitions": [[["e0", "e1"], ["e2", "e3"]], [["e0", "e2"], ["e1", "e3"]]]}
    b = {"states": ["e0", "e1", "e2", "e3"],
         "partitions": [[["e0"], ["e1"], ["e2", "e3"]], [["e0", "e1"], ["e2"], ["e3"]]]}
    (tmp_path / "a.json").write_text(json.dumps(a))
    (tmp_path / "b.json").write_text(json.dumps(b))
    assert cli.main(["equiv", str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 1
    assert json.loads(capsys.readouterr().out)["reason"] == "signature"
    assert len(calls) == 2


def test_gen_graph_device_and_equiv_without_certificate(tmp_path, capsys):
    """C6 and two triangles share their depth-2 signatures, so no certificate exists."""
    cycle = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "f"), ("a", "f")]
    triangles = [("a", "b"), ("b", "c"), ("a", "c"), ("d", "e"), ("e", "f"), ("d", "f")]
    devices = []
    for name, edges in (("c6", cycle), ("2k3", triangles)):
        graph = tmp_path / f"{name}.json"
        graph.write_text(json.dumps({"vertices": list("abcdef"), "edges": edges}))
        assert cli.main(["gen", "graph-device", str(graph)]) == 0
        out = capsys.readouterr().out
        assert json.loads(out) == graph_device(make_graph("abcdef", edges)).to_dict()
        devices.append(tmp_path / f"{name}-device.json")
        devices[-1].write_text(out)
    assert cli.main(["equiv", *map(str, devices)]) == 1
    assert json.loads(capsys.readouterr().out) == {"reason": "not equivalent"}


def test_equiv_without_certificate_when_the_signature_is_too_large(tmp_path, monkeypatch, capsys):
    """3,000 two-block reads on 16 states: no signature is computed, and the
    answer is the plain reason with exit 1."""
    def fail(_):
        raise AssertionError("_pair_counts ran")

    monkeypatch.setattr(invariants, "_pair_counts", fail)
    many = two_block_reads(random.Random(6), 3000)
    (tmp_path / "many.json").write_text(json.dumps(many.to_dict()))
    (tmp_path / "l3.json").write_text(json.dumps(make_linear(3).to_dict()))
    assert cli.main(["equiv", str(tmp_path / "many.json"), str(tmp_path / "l3.json")]) == 1
    assert capsys.readouterr() == ('{\n  "reason": "not equivalent"\n}\n', "")


def test_equiv_certificate_of_1024_state_products_without_pair_counts(tmp_path, monkeypatch, capsys):
    """L4 x L3 x L3 against L4 x L4 x L2: the certificate is read off the
    minimized read histograms, 735 reads of 8 blocks against 675."""
    def fail(_):
        raise AssertionError("_pair_counts ran")

    monkeypatch.setattr(invariants, "_pair_counts", fail)
    l2, l3, l4 = make_linear(2), make_linear(3), make_linear(4)
    for name, factors in (("a", (l4, l3, l3)), ("b", (l4, l4, l2))):
        (tmp_path / f"{name}.json").write_text(json.dumps(product_of(factors).to_dict()))
    assert cli.main(["equiv", str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 1
    assert json.loads(capsys.readouterr().out) == {"reason": "signature", "certificate": {
        "depth": 2, "profile": [8, 8, 8], "left_count": 735, "right_count": 675}}


def _pin(text: str) -> str:
    """Short outputs verbatim, long ones by digest."""
    if len(text) <= 80:
        return text
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


# (argv, exit code, stdout, stderr, -o file) with every output pinned by _pin;
# an argument ending in .json names a fixture file, except under out/, which
# is the test's own directory and where -o writes; ROOT and OUT stand for the
# two directories in stderr
GOLDEN = [
    (["gen", "cm", "3"], 0,
     'sha256:b61d8bce35c4e49a8809715086a94f00d231ad585c02f93e719bb604ea4554c5', '', None),
    (["gen", "lnk", "2"], 0,
     'sha256:fbbef81c1d1cde953687dbe18df066f59e12c3a97b5593b0419b5a92b988b135', '', None),
    (["gen", "lnk", "3", "2"], 0,
     'sha256:3129c2a770cbbb1b8f2d73748078f4f6b0a236d12523de94fc0f8c9e02f4bd5e', '', None),
    (["gen", "pn", "2", "-o", "out/o.json"], 0,
     '', '', 'sha256:359e9c053455eb08817b0113e4552b2c3ee54005f75a49d8e4b86fbffccff9f5'),
    (["gen", "graph-device", "c6.json"], 0,
     'sha256:6c966abb3a1612d4eafd6172736629a675aa2c146bab3047260e97b456c4de0c', '', None),
    (["show", "l2.json"], 0,
     'sha256:fbbef81c1d1cde953687dbe18df066f59e12c3a97b5593b0419b5a92b988b135', '', None),
    (["show", "l2xp2rev.json", "-o", "out/o.json"], 0,
     '', '', 'sha256:561d9491dad0c55ddd9a580e192b42e2d2b300ef28cff683c05d74c8646036c0'),
    (["minimize", "l2sq.json"], 0,
     'sha256:bcdc64d05ce4b9c8a8663926dc37c549805458cb760c182c9617cd0548d80885', '', None),
    (["minimize", "l2xp2rev.json", "-o", "out/o.json"], 0,
     '', '', 'sha256:9733b9ea333453af524df0adf784c1cd5352b37e0964b2a0b6dcb76e3e31fa38'),
    (["invariants", "l4xl2.json"], 0,
     '{\n  "capacity": 2,\n  "sigma": 6,\n  "perfectness_index": 4\n}\n', '', None),
    (["invariants", "c6dev.json", "-o", "out/o.json"], 0,
     '', '', 'sha256:a067ef43cd108293492cc5768772de961815150d93a0883edf8bdd1d4b01dfd4'),
    (["product", "l2.json", "p2.json"], 0,
     'sha256:1a424aa1714b24bcd859d2d27a893d0776312e837c2f8ecbb6d95de4cc534caa', '', None),
    (["product", "l2.json", "l3.json", "-o", "out/o.json"], 0,
     '', '', 'sha256:44de69d1d7d37800dc3bfbc84d5679a31b9d99bf3055ad3a1bc3a055d5276fca'),
    (["kreads", "l2.json", "2"], 0,
     'sha256:5c6f56b2ef8721ad2ea26eaed769061a2831849e8d2ae2d90ce00163e2c061e5', '', None),
    (["kreads", "p2.json", "2", "-o", "out/o.json"], 0,
     '', '', 'sha256:57443e6beb158eab62f0d0c1edb4a18bedaf514a0ea864ad1beddfb1727fd468'),
    (["reduce", "l2cubed.json", "l3xl3.json"], 1,
     '{\n  "reason": "capacity"\n}\n', '', None),
    (["reduce", "l3.json", "l2.json"], 1,
     '{\n  "reason": "sigma"\n}\n', '', None),
    (["reduce", "l3xl3.json", "l4xl2.json"], 1,
     '{\n  "reason": "perfectness"\n}\n', '', None),
    (["reduce", "l3xl3.json", "l2cubed.json"], 1,
     '{\n  "reason": "no φ exists"\n}\n', '', None),
    (["reduce", "l2.json", "l2sq.json"], 0,
     'sha256:88f831060297ae53156e8bb202c4d42065e5ce7e7e09837c5e2fd647729dff35', '', None),
    (["equiv", "l2xp2.json", "l2xp2rev.json"], 0,
     'sha256:811571711c5ffce0f33a949e260e47c7126b4f61c48fe39d630c76387ab334ca', '', None),
    (["equiv", "d0.json", "d1.json"], 1,
     'sha256:4a747dfa4d2a5267571658b0e72e805d130921c867a4f3d0665899f3bc00e278', '', None),
    (["equiv", "c6dev.json", "2k3dev.json"], 1,
     '{\n  "reason": "not equivalent"\n}\n', '', None),
    (["verify", "l2.json", "l2sq.json", "wit.json"], 0,
     '{\n  "valid": true\n}\n', '', None),
    (["verify", "l2.json", "l2.json", "bogus.json"], 1,
     '{\n  "valid": false\n}\n', '', None),
    (["factor", "l2xp2.json", "--audit"], 0,
     'sha256:eeb7ef57bf5246946bcb454440bd3f99acc8d7e3ad6cd190b90c4b8f0ee6b813', '', None),
    (["factor", "l2xp2rev.json"], 0,
     'sha256:7a004a3cd38195ceeba42f695e04911f6fdd2f7e4150e0f563a3c019b7f10c0a', '', None),
    (["factor", "c3.json"], 1,
     '{\n  "reason": "not a product of binary devices",\n  "audit": "skipped"\n}\n', '', None),
    (["factor", "c3.json", "--audit"], 1,
     '{\n  "reason": "not a product of binary devices",\n  "audit": "consistent"\n}\n', '', None),
    (["factor-perfect", "12"], 0,
     'sha256:e3296fb4a4330d3effc11c8966a313f2f0aebb79b471acceb650b0378b83799d', '', None),
    (["factor-perfect", "1000"], 0,
     'sha256:401dbeaf389680ec1825c6749c24d627e71d4edbb35ae53c7bb40dc5666ebcfe', '', None),
    (["clique", "k5.json", "4"], 0,
     'sha256:98273b382afbc91493c25128b0a47451983771fb46d6e46972ad6ad94dbc75b2', '', None),
    (["clique", "path4.json", "4"], 1,
     '{\n  "reason": "no 4-clique"\n}\n', '', None),
    (["gi", "path4.json", "path4r.json"], 0,
     'sha256:29997e08bfbbf28900d443867bdc2bdb6b46ba85bb00eb1baeb95053644117d7', '', None),
    (["gi", "k4.json", "cyc4.json"], 1,
     '{\n  "reason": "not isomorphic"\n}\n', '', None),
    (["ip-demo", "d0.json", "d1.json", "--trials", "10", "--seed", "3"], 0,
     '{\n  "trials": 10,\n  "accepts": 10,\n  "accept_rate": [\n    1,\n    1\n  ]\n}\n', '', None),
    (["gen", "cm", "0"], 2,
     '', 'error: need at least one state\n', None),
    (["show", "nope.json"], 2,
     '', "error: [Errno 2] No such file or directory: 'ROOT/nope.json'\n", None),
    (["invariants", "l2.json", "-o", "out/missing/o.json"], 2,
     '', "error: [Errno 2] No such file or directory: 'OUT/missing/o.json'\n", None),
    (["equiv", "l2.json", "bogus.json"], 2,
     '', "error: device document missing key 'states'\n", None),
]


@pytest.mark.parametrize("case", GOLDEN, ids=[" ".join(c[0]) for c in GOLDEN])
def test_golden_bytes(case, files, tmp_path, capsys):
    """Exact stdout, stderr, exit code and -o file of every subcommand."""
    argv, code, out, err, written = case
    root = os.path.dirname(files("x"))
    args = [str(tmp_path / a[4:]) if a.startswith("out/")
            else files(a) if a.endswith(".json") else a for a in argv]
    assert cli.main(args) == code
    got_out, got_err = capsys.readouterr()
    got_err = got_err.replace(str(tmp_path), "OUT").replace(root, "ROOT")
    assert (_pin(got_out), _pin(got_err)) == (out, err)
    target = tmp_path / "o.json"
    assert (_pin(target.read_text(encoding="utf-8")) if target.exists() else None) == written
