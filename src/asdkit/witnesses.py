"""Reduction witnesses: a state map plus a partition assignment, as index arrays.

A reduction from D to D' is a pair (phi, alpha) where phi sends each state of
D to a state of D' and alpha sends each partition of D to a partition of D',
such that reading alpha(pi) through phi never separates less than pi does:
alpha(pi) pulled back along phi refines pi.
"""

from __future__ import annotations

from dataclasses import dataclass

from .devices import Device
from .errors import DomainMismatch, UnknownLabel


@dataclass(frozen=True)
class Reduction:
    phi: tuple[int, ...]    # state index of D -> state index of D'
    alpha: tuple[int, ...]  # partition index of D -> partition index of D'


def identity_reduction(dev: Device) -> Reduction:
    return Reduction(tuple(range(dev.num_states)), tuple(range(dev.num_partitions)))


def compose(first: Reduction, second: Reduction) -> Reduction:
    """Witness for D -> Y given witnesses for D -> X and X -> Y."""
    return Reduction(
        tuple(second.phi[t] for t in first.phi),
        tuple(second.alpha[a] for a in first.alpha),
    )


def _check_shape(src: Device, dst: Device, red: Reduction) -> None:
    if len(red.phi) != src.num_states:
        raise DomainMismatch(f"phi has {len(red.phi)} entries for {src.num_states} states")
    if len(red.alpha) != src.num_partitions:
        raise DomainMismatch(
            f"alpha has {len(red.alpha)} entries for {src.num_partitions} partitions")
    if any(not 0 <= t < dst.num_states for t in red.phi):
        raise DomainMismatch("phi maps outside the target state space")
    if any(not 0 <= j < dst.num_partitions for j in red.alpha):
        raise DomainMismatch("alpha maps outside the target partition family")


def verify_reduction(src: Device, dst: Device, red: Reduction) -> bool:
    """Check alpha(pi) pulled back along phi refines pi, for every pi.

    That holds when each block of alpha(pi) receives states of one block of
    pi only.  When phi is the identity and alpha(pi) has pi's labels, the
    pullback is pi itself, which refines pi, so that read is not scanned;
    every other read is.  Shape problems (wrong lengths, out-of-range
    indices) raise DomainMismatch; a well-shaped witness that fails the
    refinement condition just returns False.
    """
    _check_shape(src, dst, red)
    same_states = red.phi == tuple(range(len(red.phi)))
    for pi, j in zip(src.partitions, red.alpha):
        lab = dst.partitions[j].labels
        if same_states and lab == pi.labels:
            continue
        owner: dict[int, int] = {}  # target block -> the source block mapped into it
        for t, b in zip(red.phi, pi.labels):
            if owner.setdefault(lab[t], b) != b:
                return False
    return True


def reduction_to_dict(src: Device, dst: Device, red: Reduction) -> dict:
    _check_shape(src, dst, red)
    src_states = src.states.elements
    dst_states = dst.states.elements
    return {
        "phi": {src_states[x]: dst_states[t] for x, t in enumerate(red.phi)},
        "alpha": list(red.alpha),
    }


def reduction_from_dict(src: Device, dst: Device, raw: dict) -> Reduction:
    if not isinstance(raw, dict) or "phi" not in raw or "alpha" not in raw:
        raise DomainMismatch("witness document must carry 'phi' and 'alpha'")
    phi_map = raw["phi"]
    if not isinstance(phi_map, dict):
        raise DomainMismatch("'phi' must map state labels to state labels")
    phi = []
    for s in src.states.elements:
        if s not in phi_map:
            raise DomainMismatch(f"phi is not total: missing state {s!r}")
        if not isinstance(phi_map[s], str):
            raise DomainMismatch(f"phi sends {s!r} to {phi_map[s]!r}, not a state label")
        phi.append(dst.states.index_of(phi_map[s]))
    extra = set(phi_map) - set(src.states.elements)
    if extra:
        raise UnknownLabel(f"phi mentions unknown states {sorted(extra)}")
    alpha_raw = raw["alpha"]
    # a JSON boolean parses to a bool, which is an int
    if not isinstance(alpha_raw, list) or not all(type(a) is int for a in alpha_raw):
        raise DomainMismatch("'alpha' must be a list of partition indices")
    red = Reduction(tuple(phi), tuple(alpha_raw))
    _check_shape(src, dst, red)
    return red
