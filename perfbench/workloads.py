"""Seeded workloads for the decision benchmark.

A workload hands out rounds of op specs, and ``spec.make(tag)`` builds one op
on inputs whose state names are prefixed with ``tag``, so every op gets state
names that no earlier op in the process has seen.  Label tuples are fresh per
spec too where that leaves the instance as it is: product-cli puts the states
of its fixed products in a seeded random order, and the other workloads deal
random devices from a corpus of about a hundred or more instances per op kind
(see ``Screened``), more than a 20 s run draws on a 2-core VM.  A cache keyed
on label tuples could still hit on the smallest random devices, which have
few distinct forms, on the corpus instances of a run that outlasts its
corpus, and on inputs whose search cost depends on their state order, which
stay in construction order: the two small products of product-cli's
``reduce`` and the left device of equiv-factor's named families (a shuffled
L3xL3 is decided well within the budget that the construction order
exhausts).  Renaming keeps every label
tuple, so two ops made from one spec cost the same; the traced run uses that
to time an untraced twin of each traced op.

Each op carries its own check against an answer that does not come from the
call being timed: the construction, ``binary_product_reduce``,
``brute_clique``, or the CLI's documented exit code and reason.  Every
yes-witness is re-checked with ``verify_reduction``.  An op may fail only by
exhausting its node budget (``SearchBudgetExceeded``, or the CLI's exit 2
with that message); any other raise or exit code is a wrong answer.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
import re
from dataclasses import dataclass
from typing import Callable

from asdkit import cli, factorization, graphs, reduction
from asdkit.devices import Device, make_linear, make_projective, product_of
from asdkit.errors import SearchBudgetExceeded
from asdkit.minimization import is_partition_minimal, minimize
from asdkit.partitions import GroundSet, Partition
from asdkit.witnesses import reduction_from_dict, verify_reduction

# what the CLI prints on standard error when a search exhausts its budget
CLI_BUDGET = re.compile(r"error: search exceeded budget of (\d+) nodes \(explored (\d+)\)")


class CheckFailed(Exception):
    """An op gave a wrong verdict or a witness that does not verify."""


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]
    cleanup: Callable[[], None] = lambda: None


@dataclass
class Spec:
    kind: str
    make: Callable[[str], Op]


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


# ----------------------------------------------------------------------
# inputs


def shuffled(dev: Device, rng: random.Random) -> Device:
    """Copy of dev with its states in a random order."""
    order = list(range(dev.num_states))
    rng.shuffle(order)
    ground = GroundSet(dev.states.elements[i] for i in order)
    return Device(ground, [Partition.from_raw(ground, [p.labels[i] for i in order])
                           for p in dev.partitions], name=dev.name)


def relabelled(dev: Device, tag: str) -> Device:
    """Copy of dev with every state label prefixed by tag; label tuples are kept."""
    ground = GroundSet(tag + s for s in dev.states.elements)
    return Device(ground, [Partition.from_raw(ground, p.labels) for p in dev.partitions])


def relabelled_doc(doc: dict, tag: str) -> dict:
    return {
        "name": doc["name"],
        "states": [tag + s for s in doc["states"]],
        "partitions": [[[tag + s for s in block] for block in part] for part in doc["partitions"]],
    }


def binary_factor(rng: random.Random, states: int, reads: int | None = None) -> Device:
    """Random state-minimal, non-perfect binary device with at least 3 states.

    Without ``reads`` the read count is drawn from 2..4, as in criterion 10.
    """
    ground = GroundSet(str(i) for i in range(states))
    # state 0 always sits in block 0, so each mask names one 2-block read
    cuts = [Partition.from_raw(ground, [0] + [(mask >> i) & 1 for i in range(states - 1)])
            for mask in range(1, 2 ** (states - 1))]
    while True:
        k = reads if reads is not None else rng.randint(2, min(4, len(cuts)))
        dev = Device(ground, rng.sample(cuts, k))
        if dev.meet_of_all().is_identity:
            return dev


def random_graph(rng: random.Random, lo: int, hi: int, p: float) -> graphs.Graph:
    """Random graph with no isolated vertex and at least four vertices."""
    while True:
        n = rng.randint(lo, hi)
        verts = [f"v{i}" for i in range(n)]
        edges = [e for e in itertools.combinations(verts, 2) if rng.random() < p]
        touched = {v for e in edges for v in e}
        if len(touched) == n:
            return graphs.make_graph(verts, edges)


def relabelled_graph(g: graphs.Graph, tag: str, perm: list[int] | None = None) -> graphs.Graph:
    """Copy of g with vertex i renamed tag+str(perm[i]); vertices are listed by name."""
    perm = perm if perm is not None else list(range(g.num_vertices))
    name = {v: f"{tag}{perm[i]}" for i, v in enumerate(g.vertices)}
    return graphs.make_graph(sorted(name.values()), [(name[u], name[v]) for u, v in g.edges])


def check_equivalence(a: Device, b: Device, pair) -> None:
    expect(pair is not None, "equivalent pair decided as not equivalent")
    fwd, back = pair
    expect(verify_reduction(a, b, fwd), "forward witness does not verify")
    expect(verify_reduction(b, a, back), "backward witness does not verify")


# criterion-10 shapes: state counts of the binary factors of one product
SHAPES = {
    3: [(3,)], 4: [(4,)], 9: [(3, 3)], 12: [(3, 4), (4, 3)], 16: [(4, 4)],
    27: [(3, 3, 3)], 36: [(3, 3, 4), (3, 4, 3), (4, 3, 3)],
    48: [(3, 4, 4), (4, 3, 4), (4, 4, 3)], 64: [(4, 4, 4)],
}


# ----------------------------------------------------------------------
# product-cli


class ProductCli:
    """cli.main on JSON files of L-family products, as a user runs them."""

    name = "product-cli"
    budget = None  # the CLI takes no budget argument, so the library default holds
    ROUND = ("reduce", "equiv", "minimize", "show", "invariants")
    # the products each command reads, one file each
    FILES = {
        "reduce": ("l3l3", "l2l2l2"),
        "equiv": ("l4l3l3", "l4l4l2"),
        "minimize": ("l4l3l3",),
        "show": ("l4l3l3",),
        "invariants": ("l4l3",),
    }

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        self.rng = random.Random(seed)
        l2, l3, l4 = make_linear(2), make_linear(3), make_linear(4)
        self.devices = {
            name: product_of(parts)
            for name, parts in (
                ("l3l3", (l3, l3)),
                ("l2l2l2", (l2, l2, l2)),
                ("l4l3l3", (l4, l3, l3)),
                ("l4l4l2", (l4, l4, l2)),
                ("l4l3", (l4, l3)),
            )
        }

    def _spec(self, kind: str) -> Spec:
        devs = [self.devices[name] for name in self.FILES[kind]]
        # the refutation search of reduce takes about 0.4 s on the
        # construction order and 0.8-9 s on shuffled ones, so only its state
        # names are fresh; the other commands cost the same on any order
        if kind != "reduce":
            devs = [shuffled(d, self.rng) for d in devs]
        docs = [d.to_dict() for d in devs]
        return Spec(kind, lambda tag: self._op(kind, docs, tag))

    def _op(self, kind: str, docs: list[dict], tag: str) -> Op:
        files, written = [], []
        for i, doc in enumerate(docs):
            files.append(os.path.join(self.workdir, f"{tag}{i}.json"))
            written.append(relabelled_doc(doc, tag))
            with open(files[-1], "w", encoding="utf-8") as fh:
                json.dump(written[-1], fh)

        def cleanup():
            for path in files:
                os.remove(path)

        if kind == "reduce":
            # criterion 3: L3xL3 <= L2^3 is refuted
            argv = ["reduce", *files]

            def check(res):
                expect(res == (1, {"reason": "no φ exists"}), f"reduce gave {res}")
        elif kind == "equiv":
            # criterion 3: the depth-2 signature separates these
            argv = ["equiv", *files]

            def check(res):
                code, out = res
                expect(code == 1 and out.get("reason") == "signature", f"equiv gave {res}")
                cert = out["certificate"]
                expect(cert["depth"] == 2 and cert["left_count"] != cert["right_count"],
                       "signature certificate does not separate")
        elif kind == "minimize":
            argv = ["minimize", *files]

            def check(res):
                # a product of minimal devices is minimal: 1024 states, 15*7*7 reads
                code, out = res
                expect(code == 0, f"minimize exited {code}")
                orig = Device.from_dict(written[0])
                mind = Device.from_dict(out["device"])
                expect(mind.num_states == 1024 and mind.num_partitions == 735,
                       "minimized L4xL3xL3 lost states or reads")
                expect(mind.meet_of_all().is_identity and is_partition_minimal(mind),
                       "minimize output is not minimal")
                expect(verify_reduction(orig, mind, reduction_from_dict(orig, mind, out["to_min"])),
                       "to_min witness does not verify")
                expect(verify_reduction(mind, orig, reduction_from_dict(mind, orig, out["from_min"])),
                       "from_min witness does not verify")
        elif kind == "show":
            argv = ["show", *files]

            def check(res):
                # the file is already canonical, so show re-emits it unchanged
                expect(res == (0, written[0]), "show did not re-emit the canonical document")
        elif kind == "invariants":
            argv = ["invariants", *files]

            def check(res):
                # capacity counts factors, sigma sums their bits, and the
                # perfectness index of a product of linear devices is the
                # largest factor's (criteria 2 and 4)
                want = {"capacity": 2, "sigma": 7, "perfectness_index": 4}
                expect(res == (0, want), f"invariants gave {res}")
        else:
            raise ValueError(kind)

        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            if code == 2:
                message = err.getvalue().strip()
                budget = CLI_BUDGET.fullmatch(message)
                if budget is None:
                    raise CheckFailed(f"{argv[0]} exited 2: {message}")
                raise SearchBudgetExceeded(int(budget[2]), int(budget[1]))
            return code, out.getvalue()

        def parsed_check(res):
            code, text = res
            check((code, json.loads(text)))

        return Op(kind, run, parsed_check, cleanup)

    def warmup(self) -> Spec:
        return self._spec("reduce")

    def probes(self) -> list[Spec]:
        return []  # the CLI decides every input here within its default budget

    def rounds(self):
        while True:
            yield [self._spec(k) for k in self.ROUND]


# ----------------------------------------------------------------------
# screened corpora

GOLDEN = (1 + 5 ** 0.5) / 2
CORPUS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "corpus.json")


class StaleCorpus(Exception):
    """corpus.json does not match the workloads; rebuild it with make_corpus.py."""


class Screened:
    """A workload that deals its instances from a screened corpus.

    Instance ``i`` of an op kind is built from its own generator, seeded with
    ``"<workload>/<kind>/<i>"``, so it is the same on every commit and seed.
    ``make_corpus.py`` ran every candidate once at half the workload's node
    budget and kept the decided ones (``accepted``, cheapest first) apart
    from the ones that exhausted it (``rejected``); corpus.json holds both
    lists.  No timed op fails on the commit that built the corpus, and the mix
    does not depend on the code under test.

    A run deals each kind's accepted instances from a seeded start with a
    stride near N/phi through the cost-sorted list.  Every instance comes up
    once per cycle, and any stretch of draws spreads evenly over the cheap
    and the costly ones, so runs of different seeds meet nearly the same mix
    of costs even when they draw only part of the list.

    The rejected instances are the known hard cases: the traced run runs the
    first of each kind as a probe at the screen budget, and
    ``reduction.budget_exceeded.count`` reports how many still exhaust it.
    """

    name: str
    budget: int
    ROUND: tuple[str, ...]
    CANDIDATES: dict[str, int]  # op kind -> number of candidate instances

    def __init__(self, seed: int, corpus: dict | None = None):
        self.rng = random.Random(seed)
        self.decks: dict[str, itertools.count] = {}
        if corpus is None:
            with open(CORPUS_FILE, encoding="utf-8") as fh:
                corpus = json.load(fh).get(self.name)
            if (corpus is None or corpus["budget"] != self.budget
                    or {k: len(v["accepted"]) + len(v["rejected"]) for k, v in corpus["kinds"].items()}
                    != self.CANDIDATES):
                raise StaleCorpus(f"{CORPUS_FILE} does not match workload {self.name}")
        self.corpus = corpus

    def instance(self, kind: str, i: int) -> Spec:
        raise NotImplementedError

    def generator(self, kind: str, i: int) -> random.Random:
        return random.Random(f"{self.name}/{kind}/{i}")

    def draw(self, kind: str) -> Spec:
        accepted = self.corpus["kinds"][kind]["accepted"]
        n = len(accepted)
        if kind not in self.decks:
            stride = min((s for s in range(1, n + 1) if math.gcd(s, n) == 1),
                         key=lambda s: abs(s - n / GOLDEN))
            self.decks[kind] = itertools.count(self.rng.randrange(n), stride)
        return self.instance(kind, accepted[next(self.decks[kind]) % n])

    def rounds(self):
        kinds = [k for k in self.ROUND if self.corpus["kinds"][k]["accepted"]]
        while True:
            yield [self.draw(k) for k in kinds]

    def probes(self) -> list[Spec]:
        """The first rejected instance of each kind that has one."""
        return [self.instance(kind, v["rejected"][0])
                for kind, v in self.corpus["kinds"].items() if v["rejected"]]

    @contextlib.contextmanager
    def screening(self):
        """Ops of this workload run at the screen budget, half the node budget."""
        full = self.budget
        self.budget = full // 2
        try:
            yield
        finally:
            self.budget = full


# ----------------------------------------------------------------------
# reduce-search


class ReduceSearch(Screened):
    """find_reduction(structural=False) on binary products, plus clique_via_reduction."""

    name = "reduce-search"
    # the corpus keeps the instances decided within 10k nodes; those take up
    # to about a second, where an undecided 48-state pair can run for minutes
    # at the library's default budget
    budget = 20_000
    ROUND = tuple(f"pair-{t}" for t in SHAPES) + ("clique-4", "clique-5") * 3
    CANDIDATES = {**{f"pair-{t}": 96 for t in SHAPES}, "clique-4": 192, "clique-5": 192}

    def instance(self, kind: str, i: int) -> Spec:
        rng = self.generator(kind, i)
        family, _, size = kind.partition("-")
        return (self._pair if family == "pair" else self._clique)(rng, int(size))

    def _pair(self, rng: random.Random, total: int) -> Spec:
        ds = [binary_factor(rng, s) for s in rng.choice(SHAPES[total])]
        es = [binary_factor(rng, s) for s in rng.choice(SHAPES[total])]
        a, b = product_of(ds), product_of(es)

        def make(tag):
            src, dst = relabelled(a, tag + "a"), relabelled(b, tag + "b")

            def check(red):
                grouping = factorization.binary_product_reduce(ds, es)
                expect((red is None) == (grouping is None),
                       f"{total}-state pair: search and index-partition criterion disagree")
                if red is not None:
                    expect(verify_reduction(src, dst, red), "reduction witness does not verify")
                    groups = factorization.extract_index_partition(red, ds, es)
                    expect(len(groups) == len(ds), "witness induces a wrong index partition")

            return Op(f"pair-{total}",
                      lambda: reduction.find_reduction(src, dst, budget=self.budget, structural=False),
                      check)

        return Spec(f"pair-{total}", make)

    def _clique(self, rng: random.Random, k: int) -> Spec:
        g = random_graph(rng, 8, 16, rng.uniform(0.3, 0.6))

        def make(tag):
            h = relabelled_graph(g, tag)

            def check(res):
                found, emb = res
                expect(found == graphs.brute_clique(h, k), f"{k}-clique verdict is wrong")
                if found:
                    image = list(emb.values())
                    expect(len(set(image)) == k and all(
                        h.has_edge(u, v) for u, v in itertools.combinations(image, 2)),
                        "clique embedding is not a clique")

            return Op(f"clique-{k}",
                      lambda: graphs.clique_via_reduction(h, k, budget=self.budget), check)

        return Spec(f"clique-{k}", make)

    def warmup(self) -> Spec:
        # the same pair on every seed: a 64-read product against a copy with
        # its states in another order, the largest pair a round can draw and
        # one that passes the prescreen, so the allocations of the largest
        # ops are made before timing
        rng = random.Random(0)
        dev = product_of([binary_factor(rng, 4, reads=4) for _ in range(3)])
        twin = shuffled(dev, rng)

        def make(tag):
            src, dst = relabelled(dev, tag + "a"), relabelled(twin, tag + "b")

            def check(red):
                expect(red is not None and verify_reduction(src, dst, red),
                       "a device does not reduce to a reordered copy")

            return Op("warmup",
                      lambda: reduction.find_reduction(src, dst, budget=self.budget, structural=False),
                      check)

        return Spec("warmup", make)


# ----------------------------------------------------------------------
# equiv-factor

# criterion 11 draws the factor count uniformly from 1..3 and each size from
# {3, 4}; instance i of a kind takes CRITERION_11[i % 24], so the candidates
# of a kind hold every shape at exactly those frequencies
CRITERION_11 = [sizes for n in (1, 2, 3) for sizes in itertools.product((3, 4), repeat=n)
                for _ in range(2 ** (3 - n))]


class EquivFactor(Screened):
    """decide_equivalence, factor_binary(audit=True) and gi_via_equivalence."""

    name = "equiv-factor"
    # every relabelled L3xL3 exhausts it (and 10M nodes, after 36 s), as do
    # some relabelled L2xL3 and P5 and some 48-state factor audits: the
    # corpus rejects them and the traced run probes them
    budget = 200_000
    FAMILIES = ("L3", "L4", "L2xL3", "P5", "L3xL3")
    # one factor audit per round: a few audits take a second or more, and
    # two per round let them swing a run's op time by a tenth
    ROUND = (tuple(f"equiv-{f}" for f in FAMILIES) + ("equiv-bin",) * 3 + ("equiv-pair",) * 4
             + ("factor",) + ("gi",) * 2)
    CANDIDATES = {"equiv-L3": 96, "equiv-L4": 96, "equiv-L2xL3": 288, "equiv-P5": 192,
                  "equiv-L3xL3": 8, "equiv-bin": 288, "equiv-pair": 384, "factor": 192, "gi": 192}

    def __init__(self, seed: int, corpus: dict | None = None):
        super().__init__(seed, corpus)
        l2, l3, l4 = make_linear(2), make_linear(3), make_linear(4)
        self.families = {
            "L3": l3, "L4": l4, "L2xL3": product_of([l2, l3]),
            "P5": make_projective(5), "L3xL3": product_of([l3, l3]),
        }
        self.minimal = {name: minimize(d).device for name, d in self.families.items()}

    def instance(self, kind: str, i: int) -> Spec:
        rng = self.generator(kind, i)
        if kind.startswith("equiv-L") or kind == "equiv-P5":
            name = kind[len("equiv-"):]
            return self._equiv_yes(kind, self.families[name], self.minimal[name], rng)
        if kind == "gi":
            return self._gi(rng)
        parts = [binary_factor(rng, size) for size in CRITERION_11[i % len(CRITERION_11)]]
        if kind == "equiv-bin":
            dev = product_of(parts)
            return self._equiv_yes(kind, dev, minimize(dev).device, rng)
        if kind == "equiv-pair":
            return self._binary_no(rng, parts)
        if kind == "factor":
            return self._factor(parts)
        raise ValueError(kind)

    def _equiv_yes(self, kind: str, dev: Device, minimal: Device, rng: random.Random) -> Spec:
        other, _ = reduction.random_equivalent(minimal, rng.getrandbits(32))

        def make(tag):
            a, b = relabelled(dev, tag + "a"), relabelled(other, tag + "b")
            return Op(kind, lambda: reduction.decide_equivalence(a, b, budget=self.budget),
                      lambda pair: check_equivalence(a, b, pair))

        return Spec(kind, make)

    def _binary_no(self, rng: random.Random, ds: list[Device]) -> Spec:
        es = [binary_factor(rng, d.num_states) for d in ds]
        rng.shuffle(es)
        a, b = product_of(ds), product_of(es)

        def make(tag):
            x, y = relabelled(a, tag + "a"), relabelled(b, tag + "b")

            def check(pair):
                same = (factorization.binary_product_reduce(ds, es) is not None
                        and factorization.binary_product_reduce(es, ds) is not None)
                if same:
                    check_equivalence(x, y, pair)
                else:
                    expect(pair is None, "inequivalent products decided as equivalent")

            return Op("equiv-pair", lambda: reduction.decide_equivalence(x, y, budget=self.budget),
                      check)

        return Spec("equiv-pair", make)

    def _factor(self, parts: list[Device]) -> Spec:
        dev = product_of(parts)

        def make(tag):
            d = relabelled(dev, tag)

            def check(factors):
                expect(factors is not None and len(factors) == len(parts),
                       "binary product not factored into its parts")
                left = list(parts)
                for f in factors:
                    for i, p in enumerate(left):
                        if f.num_states == p.num_states:
                            pair = reduction.decide_equivalence(f, p, budget=self.budget)
                            if pair is not None:
                                check_equivalence(f, p, pair)
                                del left[i]
                                break
                    else:
                        raise CheckFailed("a factor matches none of the parts")

            return Op("factor",
                      lambda: factorization.factor_binary(d, audit=True, budget=self.budget), check)

        return Spec("factor", make)

    def _gi(self, rng: random.Random) -> Spec:
        g = random_graph(rng, 6, 12, 0.5)
        perm = list(range(g.num_vertices))
        rng.shuffle(perm)

        def make(tag):
            a, b = relabelled_graph(g, tag + "a"), relabelled_graph(g, tag + "b", perm)

            def check(res):
                found, iso = res
                expect(found, "relabelled graph decided as not isomorphic")
                expect(sorted(iso.values()) == sorted(b.vertices), "isomorphism is not a bijection")
                expect(all(b.has_edge(iso[u], iso[v]) for u, v in a.edges),
                       "isomorphism does not preserve edges")

            return Op("gi", lambda: graphs.gi_via_equivalence(a, b, budget=self.budget), check)

        return Spec("gi", make)

    def warmup(self) -> Spec:
        return self.instance("equiv-L3", self.corpus["kinds"]["equiv-L3"]["accepted"][0])
