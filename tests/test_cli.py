"""End-to-end command tests: exit codes, golden output, witness round trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from asdkit import cli, minimization
from asdkit.devices import Device, direct_product, make_linear
from asdkit.graphs import graph_device, make_graph

from corpus import with_coarsened_reads

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


def test_errors_exit_two(files, capsys):
    assert cli.main(["show", files("nope.json")]) == 2
    assert cli.main(["gen", "cm", "0"]) == 2
    err = capsys.readouterr().err
    assert err.strip()
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
