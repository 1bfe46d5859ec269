"""Support-connectivity partitions, cyclic and on the integer line."""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import Iterable

import numpy as np

from .errors import StftprError


@dataclass(frozen=True)
class ConnectivityPartition:
    """Disjoint components of a support set under a gap relation.

    Components are ordered by smallest member; an empty support yields zero
    components and counts as connected.
    """

    relation: str
    components: tuple[tuple[int, ...], ...]
    universe: tuple[int, ...]

    @property
    def n_components(self) -> int:
        return len(self.components)

    @property
    def is_connected(self) -> bool:
        return len(self.components) <= 1

    def to_json(self) -> dict:
        return {"relation": self.relation, "components": [list(c) for c in self.components]}


def _gap_runs(supp: list[int], L: int) -> list[list[int]]:
    """Runs of a sorted support, split wherever consecutive points lie more than L apart."""
    cuts = [0, *(i for i in range(1, len(supp)) if supp[i] - supp[i - 1] > L), len(supp)]
    return [supp[a:b] for a, b in zip(cuts, cuts[1:])] if supp else []


def _step_components(supp: list[int], steps: list[int], d: int | None) -> tuple[tuple[int, ...], ...]:
    """Components of a sorted support where j and j + s (mod d when given) join for each step s.

    Min-label propagation over the joined pairs: every point starts as its own
    label, each round lowers both ends of a pair to the smaller label and then
    replaces each label by the label of the point it names, until nothing
    moves.  A label is then the position of its component's smallest point.
    """
    if not supp:
        return ()
    points = np.array(supp, dtype=np.int64)
    ahead = points[:, None] + np.array(steps, dtype=np.int64)
    if d is not None:
        ahead %= d
    at = np.minimum(np.searchsorted(points, ahead), points.size - 1)
    joined = points[at] == ahead
    a, b = np.nonzero(joined)[0], at[joined]
    label = np.arange(points.size)
    while True:
        low = np.minimum(label[a], label[b])
        lowered = label.copy()
        np.minimum.at(lowered, a, low)
        np.minimum.at(lowered, b, low)
        lowered = lowered[lowered]
        if np.array_equal(lowered, label):
            break
        label = lowered
    order = np.argsort(label, kind="stable")
    cuts = np.flatnonzero(np.diff(label[order])) + 1
    return tuple(tuple(part.tolist()) for part in np.split(points[order], cuts))


def components_mod_d(support: Iterable[int], d: int, L) -> ConnectivityPartition:
    """Partition of a support in Z_d: two points join when their difference is an allowed step.

    ``L`` is an integer gap bound (steps of cyclic distance <= L) or a step
    set: an iterable of shifts, or an object with a ``members`` collection such
    as a window difference set.  An integer or a band set {-L..L} takes the
    closed form: the sorted runs split at gaps over L, the last joined to the
    first when the wrap-around gap is at most L.  A set holding every nonzero
    shift gives one component; any other set is labelled by propagation.
    """
    supp = sorted({int(j) for j in support})
    if supp and (supp[0] < 0 or supp[-1] >= d):
        raise StftprError(f"support must lie in 0..{d - 1}")
    if not isinstance(L, Integral):
        steps = {int(k) % d for k in getattr(L, "members", L)} - {0}
        steps |= {d - k for k in steps}
        if len(steps) == d - 1:
            return ConnectivityPartition("all-shifts", (tuple(supp),) if supp else (), tuple(supp))
        L = max((min(k, d - k) for k in steps), default=0)
        if 2 * L >= d or len(steps) != 2 * L:
            steps = sorted(k for k in steps if 2 * k <= d)
            return ConnectivityPartition(f"g-mod-d(d={d},D={steps})", _step_components(supp, steps, d), tuple(supp))
    if not (0 <= L < d / 2):
        raise StftprError(f"gap bound out of range: need 0 <= L < d/2, got L={L}, d={d}")
    runs = _gap_runs(supp, L)
    if len(runs) > 1 and supp[0] + d - supp[-1] <= L:
        runs[0] += runs.pop()
    return ConnectivityPartition(f"L-mod-d(d={d},L={L})", tuple(map(tuple, runs)), tuple(supp))


def components_line(support: Iterable[int], gaps) -> ConnectivityPartition:
    """Partition of an integer support with steps restricted to a gap set.

    ``gaps`` is either an integer L (allowed steps: magnitudes 1..L) or any
    object with a ``members`` collection of allowed signed differences, e.g. a
    window difference set.
    """
    supp = sorted({int(j) for j in support})
    if isinstance(gaps, int):
        return ConnectivityPartition(f"L-line(L={gaps})", tuple(map(tuple, _gap_runs(supp, gaps))), tuple(supp))
    deltas = sorted(k for k in {int(k) for k in gaps.members} if k > 0)
    return ConnectivityPartition(f"g-line(D={deltas})", _step_components(supp, deltas, None), tuple(supp))
