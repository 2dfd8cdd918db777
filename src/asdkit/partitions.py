"""Set partitions over a fixed finite ground set, plus the lattice operations.

A partition is its dense block labeling and nothing else: ``labels[i]`` is the
block id of the i-th ground element, blocks numbered by first occurrence.
That numbering is exactly the canonical form (blocks ordered by their minimum
element index, elements ascending within a block), so two partitions of the
same ground set are equal iff their label tuples are equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .errors import (
    ArityError,
    CoverageError,
    EmptyStateSpace,
    GroundMismatch,
    OverlapError,
    UnknownLabel,
)


def _dense(raw: Iterable) -> tuple[tuple[int, ...], int]:
    """Renumber arbitrary hashable codes to 0..k-1 by first occurrence."""
    remap: dict = {}
    out = []
    for code in raw:
        bid = remap.get(code)
        if bid is None:
            bid = len(remap)
            remap[code] = bid
        out.append(bid)
    return tuple(out), len(remap)


class GroundSet:
    """Ordered finite set of state labels with O(1) index lookup."""

    __slots__ = ("elements", "_index", "_hash")

    def __init__(self, elements: Iterable[str]):
        elems = tuple(elements)
        if not elems:
            raise EmptyStateSpace("ground set must be nonempty")
        index = {}
        for i, lab in enumerate(elems):
            if lab in index:
                raise ValueError(f"duplicate label {lab!r} in ground set")
            index[lab] = i
        self.elements = elems
        self._index = index
        self._hash = hash(elems)

    def index_of(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownLabel(f"label {label!r} not in ground set") from None

    def __contains__(self, label) -> bool:
        return label in self._index

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __eq__(self, other) -> bool:
        return self is other or isinstance(other, GroundSet) and self.elements == other.elements

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"GroundSet({list(self.elements)!r})"


def pair_label(s: str, t: str) -> str:
    """Label of the product state (s, t); nested products flatten on the left."""
    if s.startswith("(") and s.endswith(")"):
        return f"({s[1:-1]},{t})"
    return f"({s},{t})"


def product_ground(g1: GroundSet, g2: GroundSet) -> GroundSet:
    """Ground set of the direct product, row-major in the left factor."""
    return GroundSet(pair_label(s, t) for s in g1.elements for t in g2.elements)


class Partition:
    """A set partition of a :class:`GroundSet` in canonical dense-label form."""

    __slots__ = ("ground", "labels", "num_blocks", "_hash")

    def __init__(self, ground: GroundSet, labels: tuple[int, ...], num_blocks: int):
        # internal: labels must already be dense first-occurrence ids
        self.ground = ground
        self.labels = labels
        self.num_blocks = num_blocks
        self._hash = hash((ground._hash, labels))

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def from_raw(cls, ground: GroundSet, raw: Iterable) -> "Partition":
        """Build from any per-element block codes (renumbered canonically)."""
        labels, k = _dense(raw)
        if len(labels) != len(ground):
            raise CoverageError("one block code required per ground element")
        return cls(ground, labels, k)

    @classmethod
    def from_blocks(cls, ground: GroundSet, blocks: Iterable[Iterable[str]]) -> "Partition":
        """Canonicalize a block list; validates coverage, overlap and labels.

        The first bad label in document order is the one reported.
        """
        # the fast path and the checker both read every block, so one-shot iterators are copied
        blocks = [block if type(block) is list else list(block) for block in blocks]
        try:
            ids = [list(map(ground._index.__getitem__, block)) for block in blocks]
        except KeyError:  # leaves every state unset, so the checker below names the label
            ids = []
        ids = sorted(filter(None, ids), key=min)  # canonical order: by least state
        labels = [-1] * len(ground)
        for bid, block in enumerate(ids):
            for i in block:
                labels[i] = bid
        # as many labels as states and no state left unset: each state named exactly once
        if sum(map(len, ids)) == len(labels) and -1 not in labels:
            return cls(ground, tuple(labels), len(ids))
        seen = set()  # the checker: scan the labels in document order
        for block in blocks:
            for lab in block:
                i = ground.index_of(lab)
                if i in seen:
                    raise OverlapError(f"label {lab!r} appears in more than one block")
                seen.add(i)
        missing = next(lab for i, lab in enumerate(ground.elements) if i not in seen)
        raise CoverageError(f"label {missing!r} missing from every block")

    @classmethod
    def identity(cls, ground: GroundSet) -> "Partition":
        n = len(ground)
        return cls(ground, tuple(range(n)), n)

    @classmethod
    def top(cls, ground: GroundSet) -> "Partition":
        return cls(ground, (0,) * len(ground), 1)

    @classmethod
    def kernel(cls, ground: GroundSet, f) -> "Partition":
        """Partition induced by a function on the ground set (equal-value blocks)."""
        fn = f.__getitem__ if isinstance(f, Mapping) else f
        return cls.from_raw(ground, (fn(x) for x in ground.elements))

    # ------------------------------------------------------------------
    # inspection

    def blocks_as_labels(self) -> list[list[str]]:
        """Blocks as lists of state labels, in canonical order, grouped in one pass."""
        out: list[list[str]] = [[] for _ in range(self.num_blocks)]
        for lab, b in zip(self.ground.elements, self.labels):
            out[b].append(lab)
        return out

    def block_sizes(self) -> tuple[int, ...]:
        sizes = [0] * self.num_blocks
        for b in self.labels:
            sizes[b] += 1
        return tuple(sizes)

    def size_multiset(self) -> tuple[int, ...]:
        return tuple(sorted(self.block_sizes()))

    @property
    def is_identity(self) -> bool:
        return self.num_blocks == len(self.labels)

    @property
    def is_top(self) -> bool:
        return self.num_blocks == 1

    # ------------------------------------------------------------------
    # lattice operations

    def _require_same_ground(self, other: "Partition") -> None:
        if self.ground != other.ground:
            raise GroundMismatch("partitions live on different ground sets")

    def refines(self, other: "Partition") -> bool:
        """True iff every block of self is contained in a block of other."""
        self._require_same_ground(other)
        rep: dict[int, int] = {}
        for mine, theirs in zip(self.labels, other.labels):
            prev = rep.setdefault(mine, theirs)
            if prev != theirs:
                return False
        return True

    def meet(self, other: "Partition") -> "Partition":
        """Coarsest common refinement: blocks are pairwise intersections."""
        self._require_same_ground(other)
        return Partition.from_raw(self.ground, zip(self.labels, other.labels))

    def join(self, other: "Partition") -> "Partition":
        """Finest common coarsening: connected components of the block overlap graph."""
        self._require_same_ground(other)
        parent = list(range(self.num_blocks + other.num_blocks))

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        off = self.num_blocks
        for a, b in zip(self.labels, other.labels):
            ra, rb = find(a), find(off + b)
            if ra != rb:
                parent[rb] = ra
        return Partition.from_raw(self.ground, (find(a) for a in self.labels))

    def product(self, other: "Partition", ground: GroundSet | None = None) -> "Partition":
        """Direct product on S1 x S2, row-major; blocks are B1 x B2."""
        if ground is None:
            ground = product_ground(self.ground, other.ground)
        elif len(ground) != len(self.ground) * len(other.ground):
            raise GroundMismatch("product ground has the wrong size")
        # With both factors canonical, a * k2 + b numbers blocks by first occurrence:
        # (a, b) first occurs at (first(a), first(b)), both increasing with the label.
        k2 = other.num_blocks
        labels = tuple([a * k2 + b for a in self.labels for b in other.labels])
        return Partition(ground, labels, self.num_blocks * k2)

    def pullback(self, phi, domain: GroundSet) -> "Partition":
        """Partition phi∘(-) on `domain`: x ~ y iff phi(x), phi(y) share a block."""
        fn = phi.__getitem__ if isinstance(phi, Mapping) else phi
        own = self.ground
        try:
            raw = [self.labels[own.index_of(fn(x))] for x in domain.elements]
        except KeyError as e:
            raise UnknownLabel(f"map undefined at {e.args[0]!r}") from None
        return Partition.from_raw(domain, raw)

    # ------------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Partition)
            and self._hash == other._hash
            and self.labels == other.labels
            and self.ground == other.ground
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = "|".join(",".join(map(str, b)) for b in self.blocks_as_labels())
        return f"Partition[{inner}]"


def canonicalize(ground: GroundSet, blocks: Iterable[Iterable[str]]) -> Partition:
    """Validate a raw block list and return it in canonical form."""
    return Partition.from_blocks(ground, blocks)


# ----------------------------------------------------------------------
# lattice polynomials


class LatticePoly:
    """Expression tree over variables x1..xk combined with meet and join."""

    __slots__ = ()


@dataclass(frozen=True)
class Var(LatticePoly):
    index: int  # 1-based


@dataclass(frozen=True)
class Meet(LatticePoly):
    left: LatticePoly
    right: LatticePoly


@dataclass(frozen=True)
class Join(LatticePoly):
    left: LatticePoly
    right: LatticePoly


def eval_poly(poly: LatticePoly, args: Sequence[Partition]) -> Partition:
    """Evaluate a lattice polynomial on partitions of a common ground set."""
    if isinstance(poly, Var):
        if not 1 <= poly.index <= len(args):
            raise ArityError(f"variable x{poly.index} outside the {len(args)} arguments")
        return args[poly.index - 1]
    if isinstance(poly, Meet):
        return eval_poly(poly.left, args).meet(eval_poly(poly.right, args))
    if isinstance(poly, Join):
        return eval_poly(poly.left, args).join(eval_poly(poly.right, args))
    raise TypeError(f"not a lattice polynomial: {poly!r}")
