"""Device minimization with machine-checkable witnesses.

A device is minimal when no state can be merged (the meet of its partition
family is the identity) and no partition is redundant (the family is an
antichain under refinement).  Minimization merges states that no read ever
separates, then discards partitions strictly coarser than another; both
directions of the equivalence are returned as explicit witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass

from .devices import Device, once_per_device
from .partitions import GroundSet, Partition
from .witnesses import Reduction, verify_reduction


@dataclass(frozen=True)
class MinimizationResult:
    device: Device
    to_min: Reduction    # original -> minimized
    from_min: Reduction  # minimized -> original


def is_state_minimal(dev: Device) -> bool:
    """No two states agree under every partition."""
    return dev.meet_of_all().is_identity


def is_partition_minimal(dev: Device) -> bool:
    """No partition strictly refines another in the family."""
    return not _redundant_indices(dev.partitions)


def _redundant_indices(parts: tuple[Partition, ...]) -> set[int]:
    """Indices of partitions strictly coarser than some other family member.

    A strict coarsening must have strictly fewer blocks (the family is
    deduplicated), so each read is compared only with the prefix of reads
    that have more blocks: ``order[:finer]``.
    """
    order = sorted(range(len(parts)), key=lambda i: -parts[i].num_blocks)
    out: set[int] = set()
    finer = 0
    for a, i in enumerate(order):
        if parts[order[finer]].num_blocks > parts[i].num_blocks:
            finer = a  # the reads before a all have more blocks than i
        for j in order[:finer]:
            if parts[j].refines(parts[i]):
                out.add(i)
                break
    return out


def state_quotient(dev: Device) -> tuple[Device, Partition]:
    """(quotient, meet of all reads): every read restricted to each meet class's least state.

    A twin repeats its least twin's labels, so the restricted reads stay
    dense, distinct and in order.  A state-minimal device is its own quotient.
    """
    meet = dev.meet_of_all()
    if meet.is_identity:
        return dev, meet
    reps: list[int] = []  # a class's least state is where its label first occurs
    for i, b in enumerate(meet.labels):
        if b == len(reps):
            reps.append(i)
    ground = GroundSet(dev.states.elements[i] for i in reps)
    return Device(ground, [Partition(ground, tuple([p.labels[i] for i in reps]), p.num_blocks)
                           for p in dev.partitions]), meet


@once_per_device
def minimize(dev: Device) -> MinimizationResult:
    """Merge indistinguishable states, drop redundant reads, return witnesses."""
    quot, meet = state_quotient(dev)
    reduced = quot.partitions
    drop = _redundant_indices(reduced)
    kept = [i for i in range(len(reduced)) if i not in drop]
    mindev = Device(quot.states, [reduced[i] for i in kept])

    # kept reads form an antichain, refined only by their own slot; dropped reads need a scan
    slot = {q.labels: k for k, q in enumerate(mindev.partitions)}
    to_alpha = tuple(slot[r.labels] if i not in drop else
                     next(k for k, q in enumerate(mindev.partitions) if q.refines(r))
                     for i, r in enumerate(reduced))
    to_min = Reduction(tuple(meet.labels), to_alpha)
    from_min = Reduction(tuple(map(dev.states.index_of, quot.states)), tuple(kept))

    if not verify_reduction(dev, mindev, to_min) or not verify_reduction(mindev, dev, from_min):
        raise RuntimeError("internal: minimization witness failed verification")
    return MinimizationResult(mindev, to_min, from_min)
