"""Command-line surface over the library.

Decision commands exit 0 for yes with a witness JSON on standard output,
exit 1 for no with a machine-readable reason, and 2 on errors.  All output
is deterministic for fixed inputs and seeds: JSON with fixed key order,
UTF-8, one trailing newline.
"""

from __future__ import annotations

import argparse
import json
import sys
from json.encoder import encode_basestring as _encode_str

from . import config
from .devices import Device, direct_product, k_reads, make_linear, make_perfect, make_projective
from .errors import AsdError
from .factorization import factor_binary, factor_perfect
from .graphs import Graph, clique_via_reduction, gi_via_equivalence, graph_device
from .invariants import _signature_certificate, invariant_report, prescreen
from .minimization import minimize
from .reduction import decide_equivalence, find_reduction, ip_nonequiv_sim
from .witnesses import reduction_from_dict, reduction_to_dict, verify_reduction


class _Encoded(dict):
    """str -> its JSON literal, each distinct string run through the C encoder once."""

    def __missing__(self, s):
        self[s] = lit = _encode_str(s)  # raises TypeError on a non-string
        return lit


def _indented(obj, enc: _Encoded, indent: str = "") -> str:
    """json.dumps(obj, ensure_ascii=False, indent=2) for documents with string keys.

    json's indenting encoder runs in pure Python; this writes the same bytes,
    joining a list of strings in one pass over the C string encoder.  One
    memo per document encodes each distinct string (key or item) only once.
    """
    if isinstance(obj, str):
        return enc[obj]
    if not isinstance(obj, (dict, list, tuple)) or not obj:  # other scalars, empty containers
        return json.dumps(obj, ensure_ascii=False)
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(obj, dict):
        items = (f"{enc[k]}: {_indented(v, enc, inner)}" for k, v in obj.items())
        return "{\n" + inner + sep.join(items) + "\n" + indent + "}"
    try:  # the memo raises TypeError on a non-string
        items = sep.join(map(enc.__getitem__, obj))
    except TypeError:
        items = sep.join(_indented(v, enc, inner) for v in obj)
    return "[\n" + inner + items + "\n" + indent + "]"


def _emit(obj, out_path: str | None) -> None:
    text = _indented(obj, _Encoded()) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _load_device(path: str) -> Device:
    return Device.from_dict(_load_json(path))


def _load_graph(path: str) -> Graph:
    return Graph.from_dict(_load_json(path))


# each handler returns its JSON document and the process exit code

def _cmd_gen(args) -> tuple[dict, int]:
    if len(args.params) > (2 if args.kind == "lnk" else 1):
        raise ValueError(f"too many parameters for gen {args.kind}: {' '.join(args.params)}")
    if args.kind == "cm":
        dev = make_perfect(int(args.params[0]))
    elif args.kind == "pn":
        dev = make_projective(int(args.params[0]))
    elif args.kind == "lnk":
        n = int(args.params[0])
        k = int(args.params[1]) if len(args.params) > 1 else 1
        dev = make_linear(n, k)
    else:  # graph-device
        dev = graph_device(_load_graph(args.params[0]))
    return dev.to_dict(), 0


def _cmd_show(args) -> tuple[dict, int]:
    return _load_device(args.file).to_dict(), 0


def _cmd_minimize(args) -> tuple[dict, int]:
    dev = _load_device(args.file)
    res = minimize(dev)
    return {"device": res.device.to_dict(),
            "to_min": reduction_to_dict(dev, res.device, res.to_min),
            "from_min": reduction_to_dict(res.device, dev, res.from_min)}, 0


def _cmd_invariants(args) -> tuple[dict, int]:
    return invariant_report(_load_device(args.file)), 0


def _cmd_product(args) -> tuple[dict, int]:
    return direct_product(_load_device(args.a), _load_device(args.b)).to_dict(), 0


def _cmd_kreads(args) -> tuple[dict, int]:
    return k_reads(_load_device(args.file), args.k).to_dict(), 0


def _cmd_reduce(args) -> tuple[dict, int]:
    src = _load_device(args.a)
    dst = _load_device(args.b)
    reason = prescreen(src, dst)
    if reason is not None:
        return {"reason": reason}, 1
    red = find_reduction(src, dst)
    if red is None:
        return {"reason": "no φ exists"}, 1
    return reduction_to_dict(src, dst, red), 0


def _cmd_equiv(args) -> tuple[dict, int]:
    a = _load_device(args.a)
    b = _load_device(args.b)
    eq = decide_equivalence(a, b)
    if eq is None:
        cert = _signature_certificate(a, b)
        if cert is None:
            return {"reason": "not equivalent"}, 1
        return {"reason": "signature", "certificate": cert}, 1
    fwd, back = eq
    return {"forward": reduction_to_dict(a, b, fwd),
            "backward": reduction_to_dict(b, a, back)}, 0


def _cmd_verify(args) -> tuple[dict, int]:
    src = _load_device(args.a)
    dst = _load_device(args.b)
    red = reduction_from_dict(src, dst, _load_json(args.witness))
    if verify_reduction(src, dst, red):
        return {"valid": True}, 0
    return {"valid": False}, 1


def _cmd_factor(args) -> tuple[dict, int]:
    factors = factor_binary(_load_device(args.file), audit=args.audit)
    verdict = "consistent" if args.audit else "skipped"
    if factors is None:
        return {"reason": "not a product of binary devices", "audit": verdict}, 1
    return {"factors": [f.to_dict() for f in factors], "audit": verdict}, 0


def _cmd_factor_perfect(args) -> tuple[dict, int]:
    factors = factor_perfect(args.m)
    return {"m": args.m, "factors": [list(f) for f in factors],
            "certified": args.m <= config.MAX_CERTIFIED_STATES}, 0


def _cmd_clique(args) -> tuple[dict, int]:
    found, embedding = clique_via_reduction(_load_graph(args.graph), args.k)
    if not found:
        return {"reason": f"no {args.k}-clique"}, 1
    return {"embedding": embedding}, 0


def _cmd_gi(args) -> tuple[dict, int]:
    found, iso = gi_via_equivalence(_load_graph(args.g), _load_graph(args.h))
    if not found:
        return {"reason": "not isomorphic"}, 1
    return {"isomorphism": iso}, 0


def _cmd_ip_demo(args) -> tuple[dict, int]:
    out = ip_nonequiv_sim(_load_device(args.a), _load_device(args.b), args.trials, args.seed)
    return {"trials": out.trials, "accepts": out.accepts,
            "accept_rate": [out.accept_rate.numerator, out.accept_rate.denominator]}, 0


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="asdkit", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)
    writes = argparse.ArgumentParser(add_help=False)  # commands that take -o
    writes.add_argument("-o", "--output")

    p = sub.add_parser("gen", parents=[writes], help="generate a named device")
    p.add_argument("kind", choices=["cm", "pn", "lnk", "graph-device"])
    p.add_argument("params", nargs="+", help="cm M | pn N | lnk N [K] | graph-device FILE")
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("show", parents=[writes], help="parse and re-emit a device canonically")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_show)

    p = sub.add_parser("minimize", parents=[writes], help="minimized device plus both witnesses")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_minimize)

    p = sub.add_parser("invariants", parents=[writes], help="capacity, sigma and perfectness index")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_invariants)

    p = sub.add_parser("product", parents=[writes], help="direct product of two devices")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(fn=_cmd_product)

    p = sub.add_parser("kreads", parents=[writes],
                       help="close the family under meets of up to K reads")
    p.add_argument("file")
    p.add_argument("k", type=int)
    p.set_defaults(fn=_cmd_kreads)

    p = sub.add_parser("reduce", help="decide A <= B; witness or reason")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(fn=_cmd_reduce)

    p = sub.add_parser("equiv", help="decide A == B; two witnesses or reason")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(fn=_cmd_equiv)

    p = sub.add_parser("verify", help="check a reduction witness")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("witness")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("factor", help="factor into binary devices")
    p.add_argument("file")
    p.add_argument("--audit", action="store_true", help="cross-check uniqueness")
    p.set_defaults(fn=_cmd_factor)

    p = sub.add_parser("factor-perfect", help="prime factorization of a perfect device")
    p.add_argument("m", type=int)
    p.set_defaults(fn=_cmd_factor_perfect)

    p = sub.add_parser("clique", help="k-clique through the device encoding")
    p.add_argument("graph")
    p.add_argument("k", type=int)
    p.set_defaults(fn=_cmd_clique)

    p = sub.add_parser("gi", help="graph isomorphism through device equivalence")
    p.add_argument("g")
    p.add_argument("h")
    p.set_defaults(fn=_cmd_gi)

    p = sub.add_parser("ip-demo", help="non-equivalence game accept rate")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(fn=_cmd_ip_demo)

    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        doc, code = args.fn(args)
        _emit(doc, getattr(args, "output", None))
    except (AsdError, OSError, RuntimeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
