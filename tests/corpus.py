"""Shared random generators and independent oracles.

The oracles recompute answers by exhaustive enumeration over raw labels,
never through the code under test, so solver output is checked against
something that cannot share its bugs.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import combinations, permutations, product
from types import SimpleNamespace

from asdkit.devices import Device, classify
from asdkit.graphs import Graph, make_graph
from asdkit.minimization import is_state_minimal, minimize
from asdkit.partitions import GroundSet, Join, Meet, Partition, Var


# ----------------------------------------------------------------------
# generators


def random_partition(rng, ground: GroundSet) -> Partition:
    n = len(ground)
    k = rng.randint(1, n)
    return Partition.from_raw(ground, (rng.randrange(k) for _ in range(n)))


def random_device(rng, max_states: int = 8, max_parts: int = 6) -> Device:
    n = rng.randint(2, max_states)
    ground = GroundSet(f"s{i}" for i in range(n))
    parts = [random_partition(rng, ground) for _ in range(rng.randint(1, max_parts))]
    return Device(ground, parts)


def random_binary_device(rng, s: int) -> Device:
    """State-minimal non-perfect binary device with s >= 3 states."""
    ground = GroundSet(str(i) for i in range(s))
    pool = []
    for mask in range(1, 2 ** (s - 1)):
        bits = [0] + [(mask >> (i - 1)) & 1 for i in range(1, s)]
        if min(bits) != max(bits):
            pool.append(Partition.from_raw(ground, bits))
    while True:
        parts = rng.sample(pool, rng.randint(2, min(4, len(pool))))
        dev = Device(ground, parts)
        cls = classify(dev)
        if is_state_minimal(dev) and cls.binary and not cls.perfect:
            return dev


def random_graph(rng, lo: int = 4, hi: int = 8, p: float = 0.5,
                 connected: bool = False) -> Graph:
    """Random graph with no isolated vertex and at least one edge."""
    while True:
        n = rng.randint(lo, hi)
        verts = [f"u{i}" for i in range(n)]
        edges = [e for e in combinations(verts, 2) if rng.random() < p]
        if not edges:
            continue
        deg = {v: 0 for v in verts}
        for u, v in edges:
            deg[u] += 1
            deg[v] += 1
        if any(d == 0 for d in deg.values()):
            continue
        if connected and not _connected(verts, edges):
            continue
        return make_graph(verts, edges)


def turan_graph(n: int, r: int) -> Graph:
    """Turán graph T(n, r): n vertices in r parts as equal as possible, each
    part a run of consecutive vertices, and an edge between every two
    vertices of different parts.  It has no (r + 1)-clique, since a clique
    takes at most one vertex from each part (Turán 1941)."""
    verts = [f"u{i}" for i in range(n)]
    return make_graph(verts, ((verts[i], verts[j]) for i, j in combinations(range(n), 2)
                              if i * r // n != j * r // n))


def twin_graph(rng, lo: int = 4, hi: int = 6, p: float = 0.5) -> Graph:
    """Random graph with no isolated vertex, plus a twin of one vertex placed
    right after it: the two have the same neighbours and no edge between
    them, so swapping them is an automorphism."""
    g = random_graph(rng, lo - 1, hi - 1, p)
    i = rng.randrange(g.num_vertices)
    order = list(range(g.num_vertices))
    order.insert(i + 1, i)  # vertex i + 1 copies vertex i
    verts = [f"w{k}" for k in range(len(order))]
    return make_graph(verts, ((verts[a], verts[b]) for a, b in combinations(range(len(order)), 2)
                              if g.has_edge(g.vertices[order[a]], g.vertices[order[b]])))


def _connected(verts, edges) -> bool:
    root = {v: v for v in verts}

    def find(v):
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    for u, v in edges:
        root[find(u)] = find(v)
    return len({find(v) for v in verts}) == 1


def random_small_pair(rng) -> tuple[Device, Device]:
    """Pair sized for the brute-force reduction oracle."""
    return random_device(rng, 4, 3), random_device(rng, 4, 3)


def reducible_pair(rng) -> tuple[Device, Device]:
    """(D, E) with D <= E guaranteed by construction.

    D's reads are pullbacks of E's reads along a random map, optionally
    coarsened by a join; coarsening preserves the reduction.
    """
    dst = random_device(rng, 5, 3)
    n = rng.randint(2, 5)
    ground = GroundSet(f"t{i}" for i in range(n))
    phi = {s: dst.states.elements[rng.randrange(dst.num_states)]
           for s in ground.elements}
    parts = []
    for _ in range(rng.randint(1, 3)):
        p = rng.choice(dst.partitions).pullback(phi, ground)
        if rng.random() < 0.3:
            p = p.join(random_partition(rng, ground))
        parts.append(p)
    return Device(ground, parts), dst


def with_coarsened_reads(dev: Device) -> Device:
    """dev plus, for each read, every read made by merging two of its blocks.

    The new reads are refined by the read they come from, so the device
    minimizes back to dev's minimum while its read count grows many-fold.
    """
    extra = [Partition.from_raw(dev.states, (a if lab == b else lab for lab in p.labels))
             for p in dev.partitions for a, b in combinations(range(p.num_blocks), 2)]
    return Device(dev.states, dev.partitions + tuple(extra))


def two_block_reads(rng, q: int, n: int = 16) -> Device:
    """q distinct random two-block reads on n states: a small file with many reads."""
    ground = GroundSet(f"s{i}" for i in range(n))
    parts: dict = {}
    while len(parts) < q:
        bits = [0] + [rng.randrange(2) for _ in range(n - 1)]
        if max(bits):
            p = Partition.from_raw(ground, bits)
            parts[p.labels] = p
    return Device(ground, parts.values())


def with_twins(rng, dev: Device, k: int) -> Device:
    """dev with k of its states each given a twin, placed at random after its original.

    A twin lies in its original's block of every read, so the device minimizes
    back to dev's minimum, and every class's least state is an original.
    """
    order = list(range(dev.num_states))
    for x in rng.sample(order, k):
        order.insert(rng.randint(order.index(x) + 1, len(order)), x)
    names = dev.states.elements
    ground = GroundSet(names[x] + ("'" if order.index(x) < i else "") for i, x in enumerate(order))
    return Device(ground, [Partition.from_raw(ground, (p.labels[x] for x in order))
                           for p in dev.partitions])


# ----------------------------------------------------------------------
# oracles


def block_list_error_oracle(states, blocks):
    """(error class name, message) that a block list over `states` must raise, or None.

    Plain list scans of the labels in document order: the first unknown or
    repeated label is named, else the first state in ground order that no
    block holds.
    """
    seen = []
    for block in blocks:
        for lab in block:
            if lab not in states:
                return "UnknownLabel", f"label {lab!r} not in ground set"
            if lab in seen:
                return "OverlapError", f"label {lab!r} appears in more than one block"
            seen.append(lab)
    for lab in states:
        if lab not in seen:
            return "CoverageError", f"label {lab!r} missing from every block"
    return None


def label_blocks_oracle(p: Partition) -> list[list[str]]:
    """p's blocks as lists of state labels: for each state no earlier state
    shares a label with, every state with its label, in ground order."""
    states, labels = p.ground.elements, p.labels
    return [[states[y] for y in range(len(labels)) if labels[y] == labels[x]]
            for x in range(len(labels)) if labels[x] not in labels[:x]]


def least_states_oracle(dev: Device) -> list[int]:
    """Indices of the states that no earlier state matches on every read:
    the least state of each class of the meet of all reads, ascending."""
    rows = [p.labels for p in dev.partitions]
    return [x for x in range(dev.num_states)
            if not any(all(r[y] == r[x] for r in rows) for y in range(x))]


def product_oracle(p: Partition, q: Partition) -> tuple[int, ...]:
    """Dense labels of the read p x q on the row-major product of their ground
    sets: (x, z) and (y, w) together iff p keeps x, y and q keeps z, w together."""
    ids: dict = {}
    return tuple(ids.setdefault((a, b), len(ids)) for a in p.labels for b in q.labels)


def meet_oracle(p: Partition, q: Partition) -> tuple[int, ...]:
    """Dense labels of the meet: same block iff together in both."""
    pairs = list(zip(p.labels, q.labels))
    ids: dict = {}
    return tuple(ids.setdefault(t, len(ids)) for t in pairs)


def join_oracle(p: Partition, q: Partition) -> tuple[int, ...]:
    """Dense labels of the join, by union-find over both block structures."""
    n = len(p.labels)
    root = list(range(n))

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for labels in (p.labels, q.labels):
        first: dict = {}
        for x, b in enumerate(labels):
            if b in first:
                root[find(first[b])] = find(x)
            else:
                first[b] = x
    ids: dict = {}
    return tuple(ids.setdefault(find(x), len(ids)) for x in range(n))


def two_block_joins_oracle(dev: Device) -> list[tuple[int, ...]]:
    """Sorted distinct labels of the 2-block joins over every pair of reads,
    each join computed by join_oracle."""
    joins = {join_oracle(p, q) for p, q in combinations(dev.partitions, 2)}
    return sorted(j for j in joins if len(set(j)) == 2)


def refines_oracle(p: Partition, q: Partition) -> bool:
    block_of: dict = {}
    for x, b in enumerate(p.labels):
        got = block_of.setdefault(b, q.labels[x])
        if got != q.labels[x]:
            return False
    return True


def poly_signature_oracle(dev: Device):
    """poly_signature(dev) recomputed pair by pair: (|p|, |p meet r|, |p join r|)
    over every ordered read pair, with the meet and join oracles above, and
    the profiles counted."""
    profiles = Counter((p.num_blocks, len(set(meet_oracle(p, r))), len(set(join_oracle(p, r))))
                       for p in dev.partitions for r in dev.partitions)
    return tuple(sorted(profiles.items()))


def signature_certificate_oracle(a: Device, b: Device):
    """Least (|p|, |p meet r|, |p join r|) whose count over the ordered read
    pairs differs between the minimized devices, in the certificate's form,
    or None when every count agrees.  Counts every pair with the oracles above."""
    ca, cb = (Counter(dict(poly_signature_oracle(minimize(d).device))) for d in (a, b))
    diff = [prof for prof in set(ca) | set(cb) if ca[prof] != cb[prof]]
    if not diff:
        return None
    least = min(diff)
    return {"depth": 2, "profile": list(least), "left_count": ca[least], "right_count": cb[least]}


def two_variable_polys(depth: int) -> list:
    """The structurally distinct two-variable lattice polynomials up to depth,
    shallow to deep: level d pairs two distinct earlier ones, one of them of
    depth d - 1."""
    levels = {1: [Var(1), Var(2)]}
    depth_of = {Var(1): 1, Var(2): 1}
    for d in range(2, depth + 1):
        pool = [e for dd in range(1, d) for e in levels[dd]]
        levels[d] = []
        for i, a in enumerate(pool):
            for b in pool[i + 1:]:
                if max(depth_of[a], depth_of[b]) != d - 1:
                    continue
                for e in (Meet(a, b), Join(a, b)):
                    if e not in depth_of:
                        depth_of[e] = d
                        levels[d].append(e)
    return [e for d in range(1, depth + 1) for e in levels[d]]


def eval_poly_oracle(e, pair) -> tuple[int, ...]:
    """Labels of the polynomial e on the partition pair, by recursion over the
    meet and join oracles."""
    if isinstance(e, Var):
        return pair[e.index - 1].labels
    op = meet_oracle if isinstance(e, Meet) else join_oracle
    # a stand-in with the labels the oracles read
    left, right = (SimpleNamespace(labels=eval_poly_oracle(x, pair)) for x in (e.left, e.right))
    return op(left, right)


def least_reduction_oracle(src: Device, dst: Device):
    """Lexicographically least valid (phi, alpha) by brute enumeration, or None.

    A phi is valid when every source read has some target read whose
    pullback refines it; alpha picks the first such read.  Checked on raw
    labels, independent of the solver.
    """
    nd, ne = src.num_states, dst.num_states
    src_labels = [p.labels for p in src.partitions]
    dst_labels = [q.labels for q in dst.partitions]
    for phi in product(range(ne), repeat=nd):
        alpha = []
        for pl in src_labels:
            hit = next((j for j, ql in enumerate(dst_labels)
                        if _pulled_refines(ql, phi, pl, nd)), None)
            if hit is None:
                break
            alpha.append(hit)
        else:
            return phi, tuple(alpha)
    return None


def _pulled_refines(target_labels, phi, source_labels, n: int) -> bool:
    seen: dict = {}
    for x in range(n):
        got = seen.setdefault(target_labels[phi[x]], source_labels[x])
        if got != source_labels[x]:
            return False
    return True


def perfectness_oracle(dev: Device):
    """Least k such that some k reads' raw labels, zipped, tell every state
    apart, or math.inf when no choice of reads does."""
    rows = [p.labels for p in dev.partitions]
    for k in range(1, len(rows) + 1):
        for chosen in combinations(rows, k):
            if len(set(zip(*chosen))) == dev.num_states:
                return k
    return math.inf


def ac_fixpoint_oracle(alive, allow):
    """Greatest arc-consistent submatrix of alive, or None if a row empties.

    alive[i][j] survives while every row i2 (i itself included) holds a live
    j2 with allow[i][i2][j][j2]; candidates are dropped one at a time until
    none changes.  Plain nested lists of booleans, no numpy.
    """
    p, q = len(alive), len(alive[0])
    alive = [list(row) for row in alive]
    changed = True
    while changed:
        changed = False
        for i, j in product(range(p), range(q)):
            if alive[i][j] and not all(any(alive[i2][j2] and allow[i][i2][j][j2] for j2 in range(q))
                                       for i2 in range(p)):
                alive[i][j] = False
                changed = True
    return alive if all(any(row) for row in alive) else None


def mask_step_oracle(src: Device, dst: Device, root, phi, exact: bool):
    """Candidate masks once phi[x] is assigned for every x < len(phi), or None.

    Target read j stays a candidate of source read i while it is in root[i]
    and, for every pair of assigned states that read i separates, separates
    their images; with exact, it must also keep together the images of every
    pair that read i keeps together.  Checks all pairs on raw labels.
    """
    masks = []
    for i, p in enumerate(src.partitions):
        mask = 0
        for j, q in enumerate(dst.partitions):
            apart = [(p.labels[y] != p.labels[z], q.labels[phi[y]] != q.labels[phi[z]])
                     for y, z in combinations(range(len(phi)), 2)]
            if (root[i] >> j) & 1 and all(b if a else not (exact and b) for a, b in apart):
                mask |= 1 << j
        if not mask:
            return None
        masks.append(mask)
    return masks


def least_bijection_oracle(src: Device, dst: Device):
    """First bijection phi in lexicographic order under which every source
    read equals a pulled-back target read, with alpha naming the first such
    target read for each source read; None if no phi does.

    Tries every permutation, so it is meant for up to 7 states.  Reads are
    compared as raw labels renamed by the first state of each block.
    """
    def shape(labels):
        first: dict = {}
        return tuple(first.setdefault(b, x) for x, b in enumerate(labels))

    if src.num_states != dst.num_states:
        return None
    want = [shape(p.labels) for p in src.partitions]
    for phi in permutations(range(dst.num_states)):
        pulled: dict = {}
        for j, q in enumerate(dst.partitions):
            pulled.setdefault(shape([q.labels[t] for t in phi]), j)
        alpha = tuple(pulled.get(w) for w in want)
        if None not in alpha:
            return phi, alpha
    return None


def regroup_oracle(a_sizes, b_sizes) -> bool:
    """Whether some assignment of the b_sizes items to len(a_sizes) groups
    gives group k the sum a_sizes[k]; tries every assignment."""
    for groups in product(range(len(a_sizes)), repeat=len(b_sizes)):
        sums = [0] * len(a_sizes)
        for k, size in zip(groups, b_sizes):
            sums[k] += size
        if sums == list(a_sizes):
            return True
    return False


def clique_oracle(g: Graph, k: int) -> bool:
    if k == 0:
        return True
    for subset in combinations(g.vertices, k):
        if all(g.has_edge(u, v) for u, v in combinations(subset, 2)):
            return True
    return False


def isomorphic_oracle(g: Graph, h: Graph) -> bool:
    if g.num_vertices != h.num_vertices or len(g.edges) != len(h.edges):
        return False
    for perm in permutations(h.vertices):
        m = dict(zip(g.vertices, perm))
        if all(h.has_edge(m[u], m[v]) for u, v in g.edges):
            return True
    return False
