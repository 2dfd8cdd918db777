"""Reducibility and equivalence decisions with explicit witnesses.

One depth-first driver, _backtrack, assigns phi state by state in declaration
order, trying target states in declaration order, so the first witness found
is lexicographically least.  Each search adds one narrowing step that keeps,
per source read, the target reads consistent with every assigned pair so far;
at full depth that is exactly the reduction condition.  The numpy step of
_search_reduction adds capacity and pair-count pruning, the latter on
compatibility rows packed 64 to a uint64 word once per distinct pair count,
and skipped at a node that removed no candidate from its parent's fixpoint.
It keeps one ownership state per search, undone on backtrack, and starts
phi(x) above phi(x - 1) where swapping x - 1 and x is an automorphism of the
source, since the least witness orders those two images.  The bitmask step
serves the fallback for oversized inputs and the exact-match equivalence
search; it compares source labels directly and reads the target's separating
reads off its block table, one column per target state that becomes the
image of a checked state.  In exact mode it checks each new state against
one state per block, and the equivalence search drops nodes where the read
map can no longer be one-to-one.
"""

from __future__ import annotations

import functools
import operator
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import config
from .devices import Device, once_per_device
from .errors import AsdError, LimitExceeded, PreconditionMismatch, SearchBudgetExceeded
from .invariants import _pair_counts, _pair_counts_bytes, prescreen
from .minimization import is_partition_minimal, is_state_minimal, minimize, state_quotient
from .partitions import GroundSet, Partition, _dense
from .witnesses import Reduction, compose, verify_reduction


@once_per_device
def _block_table(dev: Device) -> tuple[np.ndarray, np.ndarray]:
    """Blocks of all reads numbered in read order: ids[x, i] is state x's
    block of read i and sizes[g] the size of block g, both int32 and read-only.
    """
    nb = [pi.num_blocks for pi in dev.partitions]
    total = sum(nb)
    if total > np.iinfo(np.int32).max:
        raise LimitExceeded(f"{total} blocks do not fit int32 block ids")
    labels = np.array([pi.labels for pi in dev.partitions], dtype=np.int32)
    ids = (labels + np.cumsum([0] + nb[:-1], dtype=np.int32)[:, None]).T.copy()
    sizes = np.bincount(ids.ravel(), minlength=total).astype(np.int32)
    ids.flags.writeable = sizes.flags.writeable = False
    return ids, sizes


def _sep_column(ids: np.ndarray, s: int) -> list[int]:
    """Per state t, the bitmask of reads separating t from s: bit i set when
    ids[t, i] != ids[s, i], with ids a block table."""
    packed = np.packbits(ids != ids[s], axis=1, bitorder="little")
    return [int.from_bytes(row, "little") for row in packed]


def _lowest_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _backtrack(nd: int, ne: int, root, extend, budget: int, ordered=None):
    """Depth-first search over injective phi; returns (phi, leaf frame) or None.

    Targets of depth x start at 0, or at phi(x - 1) + 1 where ordered(x)
    holds.  Every target tried from there counts as a node, including those
    blocked because they are used; those below the start are never tried.
    extend(frame, x, t) is called once phi(y) is fixed for every y < x; it
    returns the child frame for phi(x) = t, or None.
    """
    phi = [-1] * nd
    used = 0
    frames = [root]
    resume = [0] * (nd + 1)
    nodes = 0
    depth = 0

    while True:
        if depth == nd:
            return tuple(phi), frames[-1]
        x = depth
        t = resume[depth]
        child = None
        while t < ne:
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(nodes, budget)
            if not (used >> t) & 1:
                child = extend(frames[-1], x, t)
                if child is not None:
                    break
            t += 1
        if child is not None:
            resume[depth] = t + 1
            phi[x] = t
            used |= 1 << t
            frames.append(child)
            depth += 1
            resume[depth] = t + 1 if depth < nd and ordered is not None and ordered(depth) else 0
        else:
            if depth == 0:
                return None
            depth -= 1
            frames.pop()
            used &= ~(1 << phi[depth])
            phi[depth] = -1


def _read_masks(src_keys, dst_keys, fits) -> list[int] | None:
    """Per source key a, the bitmask of j with fits(a, dst_keys[j]); None if one is empty."""
    masks = [sum(1 << j for j, b in enumerate(dst_keys) if fits(a, b)) for a in src_keys]
    return masks if all(masks) else None


def _mask_step(src: Device, dst: Device, exact: bool):
    """Bitmask narrowing step: a list of candidate masks per source read.

    A source read separating x from an assigned y keeps only target reads
    separating their images.  With exact=True a source read keeping x and y
    together also keeps only target reads keeping the images together, so at
    full depth every source read equals a pulled-back target read.  Then
    every surviving candidate already splits the images so far as the read
    splits their sources, so x is checked only against the least state of
    each block, which is where the block's label first occurs.  The target
    reads separating two images come from one column of the target's block
    table, built the first time a checked state takes that image.
    """
    ids = _block_table(dst)[0]
    sep = [None] * dst.num_states  # sep[s] = _sep_column(ids, s), once s is a checked image
    labels = [pi.labels for pi in src.partitions]
    checked = [[lab.index(b) for b in range(pi.num_blocks)] if exact else range(src.num_states)
               for lab, pi in zip(labels, src.partitions)]
    checked_states = set().union(*checked)
    img = [0] * src.num_states  # img[y] = phi(y) for every y below the current x

    def extend(cands, x, t):
        img[x] = t
        if x - 1 in checked_states and sep[img[x - 1]] is None:
            sep[img[x - 1]] = _sep_column(ids, img[x - 1])
        new = []
        for m, lab, ys in zip(cands, labels, checked):
            bx = lab[x]
            for y in ys:
                if y >= x:
                    break
                row = sep[img[y]][t]
                if lab[y] != bx:
                    m &= row
                elif exact:
                    m &= ~row
            if not m:
                return None
            new.append(m)
        return new

    return extend


def _search_reduction_bitmask(src: Device, dst: Device, budget: int) -> Reduction | None:
    """Pairwise-consistency backtracking from a state-minimal src; fallback for oversized inputs."""
    init = _read_masks([pi.num_blocks for pi in src.partitions],
                       [rho.num_blocks for rho in dst.partitions], operator.le)
    if init is None:
        return None
    hit = _backtrack(src.num_states, dst.num_states, init, _mask_step(src, dst, False), budget)
    if hit is None:
        return None
    phi, final = hit
    red = Reduction(phi, tuple(_lowest_bit(m) for m in final))
    if not verify_reduction(src, dst, red):
        raise RuntimeError("internal: search produced an invalid witness")
    return red


@functools.lru_cache(maxsize=65536)
def _sizes_regroup(a_sizes: tuple[int, ...], b_sizes: tuple[int, ...]) -> bool:
    """Can b_sizes be grouped so the group sums are exactly a_sizes?

    Places the items largest first, each into a group with room for it,
    trying one group per distinct room; the sorted rooms left key the memo.
    """
    items = sorted(b_sizes, reverse=True)

    @functools.cache
    def place(k: int, rooms: tuple[int, ...]) -> bool:
        return k == len(items) or any(
            place(k + 1, tuple(sorted(rooms[:g] + (room - items[k],) + rooms[g + 1:])))
            for g, room in enumerate(rooms)
            if room >= items[k] and (g == 0 or room != rooms[g - 1]))

    return sum(a_sizes) == sum(b_sizes) and place(0, tuple(sorted(a_sizes)))


def _words(bits: np.ndarray) -> np.ndarray:
    """bits packed over the last axis into zero-padded uint64 words, moved to the front axis."""
    *lead, n = bits.shape
    pad = np.zeros((*lead, -(-n // 64) * 64), dtype=bool)
    pad[..., :n] = bits
    words = np.packbits(pad, axis=-1, bitorder="little").view(np.uint64)
    return words.transpose(len(lead), *range(len(lead)))


def _ac_narrow(alive: np.ndarray, allowb: np.ndarray) -> np.ndarray | None:
    """Prune candidates with no compatible partner in some other read's row.

    alive is (src reads, dst reads) boolean; allowb[:, i, i2, j] packs by _words
    the j2 compatible with (i, j) in row i2 (word axis first: numpy reduces a
    short last axis slowly; AND and != 0 ignore byte order).  Iterates to a
    fixed point; returns the narrowed matrix, or None once any row empties.
    """
    count = np.count_nonzero(alive)
    while True:
        new = alive & ((allowb & _words(alive)[:, None, :, None]) != 0).any(axis=0).all(axis=1)
        if not new.any(axis=1).all():
            return None
        if (kept := np.count_nonzero(new)) == count:
            return new
        alive, count = new, kept


def _allow_table(src: Device, dst: Device) -> np.ndarray:
    """The packed pair-compatibility table of _ac_narrow for src -> dst.

    allowb[:, i, i2, j] packs by _words the target reads j2 whose meet with j
    has at least as many blocks as that of i2 with i, and, when the state
    counts agree, whose join has at least as many blocks as that of i2 with i.
    A row depends on (i, i2) only through those counts, each at most src's
    state count, so the rows are packed once per distinct count and gathered
    into place.  A pass packs at most p counts, so no more (p, q, q) booleans
    exist at once than one source read's, and the distinct rows take no more
    bytes than the table they fill.
    """
    dm, dj = _pair_counts(src)
    em, ej = _pair_counts(dst)
    p, both, base = len(dm), src.num_states == dst.num_states, src.num_states + 1
    counts, at = np.unique(dm * base + dj if both else dm * base, return_inverse=True)
    meet, join = np.divmod(counts, base)
    rows = []
    for k in range(0, len(counts), p):
        ok = em >= meet[k:k + p, None, None]
        if both:
            ok &= ej >= join[k:k + p, None, None]
        rows.append(_words(ok))
    return np.concatenate(rows, axis=1).take(at.reshape(p, p), axis=1)  # C order, words first


def _regroup_mask(src: Device, dst: Device) -> np.ndarray:
    """(p, q) booleans: can target read j's block sizes be grouped so the
    group sums are source read i's?  Reads are grouped by size multiset, so
    _sizes_regroup runs once per distinct pair of multisets."""
    kinds_a, kinds_b = {}, {}
    ia = [kinds_a.setdefault(pi.size_multiset(), len(kinds_a)) for pi in src.partitions]
    ib = [kinds_b.setdefault(rho.size_multiset(), len(kinds_b)) for rho in dst.partitions]
    fits = np.array([[_sizes_regroup(a, b) for b in kinds_b] for a in kinds_a])
    return fits[np.array(ia)[:, None], ib]


@once_per_device
def _read_set(dev: Device) -> frozenset:
    """The label tuples of dev's reads."""
    return frozenset(pi.labels for pi in dev.partitions)


def _swap_is_automorphism(dev: Device, y: int, x: int) -> bool:
    """Does swapping states y and x map dev's read family onto itself?

    The swap carries each read onto a read, so the sizes of y's blocks over
    all reads must be those of x's; that O(p) test runs first.  A read that
    keeps y and x together, or holds both as singletons, is unchanged by the
    swap.  Every other read is rebuilt swapped and looked up.
    """
    ids, sizes = _block_table(dev)
    size_y, size_x = sizes[ids[y]], sizes[ids[x]]
    if not np.array_equal(np.sort(size_y), np.sort(size_x)):
        return False
    for i in np.flatnonzero((ids[y] != ids[x]) & ((size_y > 1) | (size_x > 1))).tolist():
        labels = list(dev.partitions[i].labels)
        labels[y], labels[x] = labels[x], labels[y]
        if _dense(labels)[0] not in _read_set(dev):
            return False
    return True


def _search_reduction(src: Device, dst: Device, budget: int) -> Reduction | None:
    """Backtracking over phi with consistency, capacity and pair propagation.

    src must be state-minimal, so phi is injective, and pass the prescreen:
    the sigma screen gives it at most dst's state count, and the capacity
    screen each source read a target read with as many blocks.  Candidates
    are a boolean (reads of src) x (reads of dst) matrix narrowed after every
    assignment.  Each surviving pair of reads records, per target block, the
    source block owning the images in it.  With blocks numbered across all
    reads (_block_table), one record, own (source reads x target blocks), and
    one table of claimed sizes, cap (source blocks x target reads), serve
    the whole search: phi(x) = t writes own's columns at t's blocks and cap's
    rows at x's blocks in place and logs what it overwrote on a trail that
    backtracking undoes (Schulte 1999).  Consistency: phi(x) = t keeps a
    pair only if t's block is unowned or owned by x's block.  Capacity:
    source block h needs |h| distinct target states inside blocks it owns or
    unowned ones, so with cap_h the size of h's blocks, the sum over h of
    max(|h|, cap_h) must not exceed the target's state count.  Pair
    propagation: any pullback has at least as many blocks merged as its
    source, so a valid assignment needs |meet of target picks| >= |meet of
    the source pair| for every pair of reads, and the join-count analogue
    when phi must be a bijection; candidates with no compatible partner in
    some other row are dropped until that stabilizes, testing 64 partners per
    AND of packed words (Lecoutre & Vion 2008).  The compatibility rows
    depend on a pair of source reads only through its counts, so they are
    packed once per distinct count (_allow_table).  A node where consistency
    and capacity remove no candidate keeps its parent's matrix, which
    propagation already left at a fixpoint, so propagation is skipped there;
    the frame carries its candidate count to tell.  A bijective pullback
    also keeps the target's block sizes, so those must regroup into the
    source's sizes by exact subset sums, tested once per distinct pair of
    size multisets (_regroup_mask).  Every pruning only removes choices
    that can never be completed, so the witness stays lexicographically
    least.  Source symmetry orders the images instead, by the lex-leader
    argument (Crawford, Ginsberg, Luks & Roy, KR 1996): when swapping x - 1
    and x maps src's read family onto itself, phi composed with that swap
    is a witness whenever phi is, and it differs from phi first at x - 1.
    phi is injective, so the least witness has phi(x - 1) < phi(x), and
    depth x starts its targets above phi(x - 1).  Whether the swap is an
    automorphism is decided the first time the search reaches depth x, and
    kept for the rest of the search.
    """
    nd, ne = src.num_states, dst.num_states
    pd, pe = src.partitions, dst.partitions
    p, q = len(pd), len(pe)
    nb_d = [pi.num_blocks for pi in pd]
    nb_e = [rho.num_blocks for rho in pe]
    remax = max(nb_e)

    # own and cap take 4 bytes a block of one side per read of the other, each level
    # 13 a pair of reads (alive and load in its frame, own_g and cap_h on the trail),
    # the root 5; not counted: the block tables and size_of, 4 bytes a state per read
    # each, and ~1 KB a level
    if 4 * (p * sum(nb_e) + q * sum(nb_d)) + p * q * (13 * nd + 5) > 300 * 2 ** 20:
        return _search_reduction_bitmask(src, dst, budget)

    alive0 = np.array([[be >= bd for be in nb_e] for bd in nb_d])

    # a bijective pullback keeps the target's block sizes, so the target's
    # size multiset must regroup into the source's
    if nd == ne and remax <= 12 and p * q <= 10000:
        alive0 &= _regroup_mask(src, dst)
        if not alive0.any(axis=1).all():
            return None

    # pair propagation packs (p, p, q, q) bits into w-word rows: 8 bytes a word,
    # 9 more for a round's AND and != 0, within the 160 MB that the float32
    # tensor took at its old 40M-entry bound; _pair_counts_bytes bounds the pass
    ac, w = None, -(-q // 64)
    if (p >= 2 and 17 * p * p * q * w <= 160_000_000
            and max(_pair_counts_bytes(src), _pair_counts_bytes(dst)) <= config.MAX_PAIR_BYTES):
        allowb = _allow_table(src, dst)
        if not (allowb == _words(np.ones(q, dtype=bool))[:, None, None, None]).all():
            ac, alive0 = allowb, _ac_narrow(alive0, allowb)
            if alive0 is None:
                return None

    ids_src, sizes_src = _block_table(src)
    ids_dst, sizes_dst = _block_table(dst)
    own = np.full((p, len(sizes_dst)), -1, dtype=np.int32)  # [i, g]: source block owning g
    cap = np.zeros((len(sizes_src), q), dtype=np.int32)  # [h, j]: size h claims in read j
    trail = []  # trail[y] = (g, h, own_g, cap_h): what phi(y) overwrote in own and cap
    load0 = np.full((p, q), nd, dtype=np.int32)  # every cap_h is 0, so the sum of |h|
    size_of = sizes_src[ids_src][:, :, None]  # [x, i, 0]: size of x's block of read i

    def extend(frame, x, t):
        while len(trail) > x:  # undo phi(y) for y >= x, deepest first
            g, h, own_g, cap_h = trail.pop()
            own[:, g] = own_g
            cap[h] = cap_h
        alive, load, count = frame
        g = ids_dst[t]  # (q,) t's blocks
        h = ids_src[x]  # (p,) x's blocks
        own_g = own[:, g]
        free = own_g < 0
        alive = alive & (free | (own_g == h[:, None]))
        if not alive.any(axis=1).all():
            return None
        newclaim = alive & free
        cap_h = cap[h]
        new_cap_h = cap_h + newclaim * sizes_dst[g]
        size_h = size_of[x]
        load = load + np.maximum(size_h, new_cap_h) - np.maximum(size_h, cap_h)
        alive &= load <= ne
        # with count candidates kept, alive is the frame's matrix: no row is
        # empty, and pair propagation already left it at its fixpoint
        if (kept := np.count_nonzero(alive)) != count:
            if not alive.any(axis=1).all():
                return None
            if ac is not None:
                if (alive := _ac_narrow(alive, ac)) is None:
                    return None
                kept = np.count_nonzero(alive)
        own[:, g] = np.where(newclaim, h[:, None], own_g)
        cap[h] = new_cap_h
        trail.append((g, h, own_g, cap_h))
        return alive, load, kept

    ordered = functools.cache(lambda x: _swap_is_automorphism(src, x - 1, x))
    hit = _backtrack(nd, ne, (alive0, load0, np.count_nonzero(alive0)), extend, budget, ordered)
    if hit is None:
        return None
    phi, final = hit
    red = Reduction(phi, tuple(int(np.argmax(final[0][i])) for i in range(p)))
    if not verify_reduction(src, dst, red):
        raise RuntimeError("internal: search produced an invalid witness")
    return red


def _structural_refute(src: Device, dst: Device, budget: int) -> bool:
    """True when factoring both devices into non-perfect binaries proves
    there is no reduction.

    Only applies to equal-sized composite devices that factor_binary accepts
    (any AsdError, such as LimitExceeded above its cap, gives False); the
    factorizations are certified equivalences, so a failed index-partition
    search settles the question.  A False falls through to the generic search.
    """
    from .factorization import binary_product_reduce, factor_binary

    ns = src.meet_of_all().num_blocks
    if ns != dst.meet_of_all().num_blocks or ns < 9:
        return False

    try:
        fs = factor_binary(src, budget=budget)
        if not fs or len(fs) < 2 or any(f.num_states < 3 for f in fs):
            return False
        fe = factor_binary(dst, budget=budget)
        if not fe or len(fe) < 2 or any(f.num_states < 3 for f in fe):
            return False
        return binary_product_reduce(fs, fe, budget=budget) is None
    except AsdError:
        return False


def find_reduction(
    src: Device,
    dst: Device,
    *,
    budget: int = config.SEARCH_NODE_BUDGET,
    structural: bool = True,
) -> Reduction | None:
    """Lexicographically least reduction src -> dst, or None if there is none.

    The monotone-invariant prescreen runs first and can refute without
    searching.  With structural=True a matching pair of certified binary
    factorizations can refute through the index-partition criterion; both
    steps refute only, so any witness still comes from the generic search
    and stays lexicographically least.  Pass structural=False to force the
    generic decision, e.g. when the search itself is under test; the
    structural step certifies factorizations through decide_equivalence, so
    only structural=False is independent of it.  The search
    runs on src's state quotient and sends each state to its class's image:
    twins lie in the same block of every read, so in the least witness a twin
    takes its least twin's image, and the quotient keeps the reads in order.
    """
    if prescreen(src, dst) is not None:
        return None
    if structural and _structural_refute(src, dst, budget):
        return None
    quot, meet = state_quotient(src)
    red = _search_reduction(quot, dst, budget)
    return None if red is None else Reduction(tuple(red.phi[c] for c in meet.labels), red.alpha)


# ----------------------------------------------------------------------
# equivalence


def _search_bijection(src: Device, dst: Device, budget: int):
    """Bijection phi with every source read equal to a pulled-back target read.

    Returns (phi, alpha) index tuples or None.  Assumes equal state and
    partition counts, both devices minimal.  Minimal devices have distinct
    reads and pulling back along a bijection is one-to-one, so alpha is a
    bijection too: at every leaf the candidate masks are distinct singletons.
    Masks only shrink with depth, so a node where some mask is held by more
    source reads than it has bits (Hall's condition, the cheapest case of
    Regin's all-different filter) has no leaf below it and is dropped; the
    first leaf, and so the witness, stays the lexicographically least.
    """
    nd, ne = src.num_states, dst.num_states

    # exact match forces a read bijection preserving block-size multisets,
    # and a state bijection preserving the per-read size profile
    ms_src = [pi.size_multiset() for pi in src.partitions]
    ms_dst = [rho.size_multiset() for rho in dst.partitions]
    if sorted(ms_src) != sorted(ms_dst):
        return None

    prof_src, prof_dst = ([tuple(row) for row in np.sort(sizes[ids], axis=1).tolist()]
                          for ids, sizes in map(_block_table, (src, dst)))
    if sorted(prof_src) != sorted(prof_dst):
        return None
    with_prof: dict[tuple, int] = {}
    for t, prof in enumerate(prof_dst):
        with_prof[prof] = with_prof.get(prof, 0) | 1 << t
    allowed = [with_prof[prof] for prof in prof_src]

    step = _mask_step(src, dst, True)

    def extend(cands, x, t):
        if not allowed[x] >> t & 1:
            return None
        new = step(cands, x, t)
        if (new is not None and len(set(new)) < len(new)
                and any(k > m.bit_count() for m, k in Counter(new).items())):
            return None
        return new

    init = _read_masks(ms_src, ms_dst, operator.eq)
    hit = _backtrack(nd, ne, init, extend, budget)
    if hit is None:
        return None
    phi, final = hit
    if any(m.bit_count() != 1 for m in final):
        raise RuntimeError("internal: exact match left a non-singleton candidate")
    return phi, tuple(_lowest_bit(m) for m in final)


def _inverse(seq) -> tuple[int, ...]:
    """Inverse of a permutation of 0..len(seq)-1."""
    inv = [0] * len(seq)
    for i, t in enumerate(seq):
        inv[t] = i
    return tuple(inv)


def decide_equivalence(
    a: Device,
    b: Device,
    *,
    budget: int = config.SEARCH_NODE_BUDGET,
) -> tuple[Reduction, Reduction] | None:
    """Witness pair (a->b, b->a) if the devices are equivalent, else None.

    Minimizes both devices and looks for a bijection matching the partition
    families exactly, which is complete on minimal devices; the witnesses
    compose it with the minimization witnesses.
    """
    am = minimize(a)
    bm = minimize(b)
    if am.device.num_states != bm.device.num_states:
        return None
    if am.device.num_partitions != bm.device.num_partitions:
        return None
    hit = _search_bijection(am.device, bm.device, budget)
    if hit is None:
        return None
    phi, alpha = hit
    fwd = Reduction(phi, alpha)
    back = Reduction(_inverse(phi), _inverse(alpha))
    r_ab = compose(compose(am.to_min, fwd), bm.from_min)
    r_ba = compose(compose(bm.to_min, back), am.from_min)
    if not verify_reduction(a, b, r_ab) or not verify_reduction(b, a, r_ba):
        raise RuntimeError("internal: composed equivalence witness failed verification")
    return r_ab, r_ba


# ----------------------------------------------------------------------
# randomized relabelings and the interactive non-equivalence game


def random_equivalent(dev: Device, seed: int) -> tuple[Device, tuple[Reduction, Reduction]]:
    """Uniformly relabeled copy of a minimal device, with witnesses both ways."""
    if not (is_state_minimal(dev) and is_partition_minimal(dev)):
        raise PreconditionMismatch("random_equivalent needs a minimal device")
    rng = random.Random(seed)
    n = dev.num_states
    perm = list(range(n))
    rng.shuffle(perm)  # perm[i] = new position of state i
    inv = _inverse(perm)
    ground = GroundSet(f"q{j}" for j in range(n))
    images = [Partition.from_raw(ground, (p.labels[inv[j]] for j in range(n)))
              for p in dev.partitions]
    other = Device(ground, images)
    slot = {pt.labels: j for j, pt in enumerate(other.partitions)}
    alpha = tuple(slot[img.labels] for img in images)
    fwd = Reduction(tuple(perm), alpha)
    back = Reduction(inv, _inverse(alpha))
    if not verify_reduction(dev, other, fwd) or not verify_reduction(other, dev, back):
        raise RuntimeError("internal: relabeling witness failed verification")
    return other, (fwd, back)


@dataclass(frozen=True)
class IPOutcome:
    trials: int
    accepts: int
    accept_rate: Fraction
    transcript: tuple[dict, ...]


def ip_nonequiv_sim(d0: Device, d1: Device, trials: int, seed: int) -> IPOutcome:
    """Two-round game: identify which device a random relabeling came from.

    When the devices are inequivalent the honest prover names the right one
    every round; when they are equivalent both answers are consistent with
    the challenge and the accept rate hovers near one half.
    """
    if trials < 1:
        raise PreconditionMismatch("need at least one trial")
    for d in (d0, d1):
        if not (is_state_minimal(d) and is_partition_minimal(d)):
            raise PreconditionMismatch("both devices must be minimal")
    if d0.num_states != d1.num_states or d0.num_partitions != d1.num_partitions:
        raise PreconditionMismatch("devices must agree on state and partition counts")
    rng = random.Random(seed)
    transcript = []
    accepts = 0
    for k in range(trials):
        secret = rng.getrandbits(1)
        challenge, _ = random_equivalent(d1 if secret else d0, rng.getrandbits(63))
        guess = 0 if decide_equivalence(d0, challenge) is not None else 1
        hit = guess == secret
        accepts += hit
        transcript.append({"round": k, "secret": secret, "guess": guess, "accepted": bool(hit)})
    return IPOutcome(trials, accepts, Fraction(accepts, trials), tuple(transcript))
