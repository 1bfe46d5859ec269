"""Support-connectivity partitions, cyclic and on the integer line."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

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


class _DisjointSet:
    """Union-find with path compression and union by size."""

    def __init__(self, items: Iterable[int]):
        self._parent = {j: j for j in items}
        self._size = {j: 1 for j in self._parent}

    def find(self, j: int) -> int:
        parent = self._parent
        root = j
        while parent[root] != root:
            root = parent[root]
        while parent[j] != root:
            parent[j], j = root, parent[j]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]

    def groups(self) -> tuple[tuple[int, ...], ...]:
        buckets: dict[int, list[int]] = {}
        for j in self._parent:
            buckets.setdefault(self.find(j), []).append(j)
        comps = [tuple(sorted(members)) for members in buckets.values()]
        return tuple(sorted(comps, key=lambda c: c[0]))


def _gap_runs(supp: list[int], L: int) -> list[list[int]]:
    """Runs of a sorted support, split wherever consecutive points lie more than L apart."""
    cuts = [0, *(i for i in range(1, len(supp)) if supp[i] - supp[i - 1] > L), len(supp)]
    return [supp[a:b] for a, b in zip(cuts, cuts[1:])] if supp else []


def components_mod_d(support: Iterable[int], d: int, L: int) -> ConnectivityPartition:
    """Partition of a support in Z_d under cyclic distance <= L: the sorted runs split at
    gaps over L, the last joined to the first when the wrap-around gap is at most L."""
    if not (0 <= L < d / 2):
        raise StftprError(f"gap bound out of range: need 0 <= L < d/2, got L={L}, d={d}")
    supp = sorted({int(j) for j in support})
    if supp and (supp[0] < 0 or supp[-1] >= d):
        raise StftprError(f"support must lie in 0..{d - 1}")
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
    dsu, members = _DisjointSet(supp), set(supp)
    for j in supp:
        for delta in deltas:
            if j + delta in members:
                dsu.union(j, j + delta)
    return ConnectivityPartition(f"g-line(D={deltas})", dsu.groups(), tuple(supp))
