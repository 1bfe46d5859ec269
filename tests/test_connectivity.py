import numpy as np
import pytest

from helpers import rng_for
from oracles import union_find_components
from stftpr.connectivity import components_line, components_mod_d
from stftpr.errors import StftprError
from stftpr.windows import DifferenceSet


def test_wrapping_support_is_one_component():
    part = components_mod_d({0, 1, 3, 4}, d=5, L=2)
    assert part.components == ((0, 1, 3, 4),)


def test_two_spikes_connected_through_the_wrap():
    part = components_mod_d({1, 4}, d=5, L=2)
    assert part.is_connected


def test_antipodal_pair_splits():
    part = components_mod_d({0, 4}, d=8, L=3)
    assert part.components == ((0,), (4,))


def test_line_block_splits_at_long_gap():
    part = components_line({0, 2, 7}, 2)
    assert part.components == ((0, 2), (7,))


def test_line_difference_set_gap():
    dg = DifferenceSet(None, frozenset({0, 1, -1, 2, -2}))
    assert components_line({0, 3}, dg).n_components == 2


def test_line_two_spikes_outside_difference_set():
    dg = DifferenceSet(None, frozenset({0, 2, -2, 5, -5}))
    part = components_line({0, 7}, dg)
    assert part.n_components == 2
    # non-consecutive steps still connect
    assert components_line({0, 2, 7}, dg).is_connected


def test_block_gaps_reproduce_plain_connectivity():
    dg = DifferenceSet(None, frozenset(range(-3, 4)))
    supp = {0, 2, 5, 9}
    assert components_line(supp, dg).components == components_line(supp, 3).components


def test_refinement_under_larger_gap_bound():
    rng = rng_for("refine")
    for trial in range(200):
        d = int(rng.integers(4, 24))
        supp = [j for j in range(d) if rng.uniform() < 0.4]
        if not supp:
            continue
        upper = (d - 1) // 2
        if upper < 1:
            continue
        counts = [components_mod_d(supp, d, L).n_components for L in range(0, upper + 1)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_max_gap_bound_gives_single_component():
    rng = rng_for("single")
    for d in (5, 9, 13):
        L = (d - 1) // 2
        for trial in range(20):
            supp = [j for j in range(d) if rng.uniform() < 0.5]
            if supp:
                assert components_mod_d(supp, d, L).is_connected


def test_partition_is_an_equivalence():
    rng = rng_for("equiv")
    for trial in range(1000):
        d = int(rng.integers(4, 20))
        L = int(rng.integers(1, max(2, (d - 1) // 2 + 1))) if d > 3 else 1
        if not (0 <= L < d / 2):
            continue
        supp = sorted(j for j in range(d) if rng.uniform() < 0.5)
        part = components_mod_d(supp, d, L)
        assert sorted(j for comp in part.components for j in comp) == supp
        seen = set()
        for comp in part.components:
            assert not (set(comp) & seen)
            seen |= set(comp)
        # no cross-component pair is directly related
        for i, ca in enumerate(part.components):
            for cb in part.components[i + 1 :]:
                for a in ca:
                    for b in cb:
                        assert min((a - b) % d, (b - a) % d) > L


def test_empty_support_counts_as_connected():
    part = components_mod_d([], d=7, L=2)
    assert part.n_components == 0 and part.is_connected


def test_gap_bound_range_checked():
    with pytest.raises(StftprError):
        components_mod_d({0}, d=8, L=4)
    with pytest.raises(StftprError):
        components_mod_d({9}, d=8, L=2)


def test_components_ordered_by_minimum():
    part = components_mod_d({7, 0, 3}, d=16, L=1)
    assert part.components == ((0,), (3,), (7,))


def test_gap_splits_match_the_union_find_oracle():
    rng = rng_for("gap-splits")
    wrapped = 0
    for trial in range(600):
        d = int(rng.integers(2, 90))
        supp = sorted(set(np.flatnonzero(rng.random(d) < rng.uniform(0.05, 0.9)).tolist()))
        if trial % 3 == 0:  # arcs across the wrap-around
            supp = sorted(set(supp) | {0, d - 1})
        for L in {0, int(rng.integers(0, (d + 1) // 2)), (d + 1) // 2 - 1}:
            part = components_mod_d(supp, d, L)
            assert part.components == union_find_components(supp, d, L)
            assert part.universe == tuple(supp)
            wrapped += any(c[0] == 0 and c[-1] == d - 1 for c in part.components)  # crosses the wrap
        offset = int(rng.integers(-40, 40))
        line = [j + offset for j in supp]
        for L in (0, int(rng.integers(0, d))):
            assert components_line(line, L).components == union_find_components(line, None, L)
    assert wrapped > 50


def test_step_sets_match_the_union_find_oracle():
    rng = rng_for("step-sets")
    kinds = set()
    for trial in range(400):
        d = int(rng.integers(2, 70))
        supp = sorted(set(np.flatnonzero(rng.random(d) < rng.uniform(0.05, 0.9)).tolist()))
        if trial % 4 == 0:  # components across the wrap-around
            supp = sorted(set(supp) | {0, d - 1})
        if trial % 9 == 0:
            supp = [] if trial % 2 else [int(rng.integers(d))]
        band = int(rng.integers(0, (d + 1) // 2))
        drawn = rng.choice(d, size=int(rng.integers(1, 8)), replace=True).tolist()
        step_sets = [
            drawn,  # one-sided: each step joins both ways
            drawn + [d // 2],  # d/2 is its own mirror
            {*range(-band, band + 1)},
            DifferenceSet(d, frozenset(range(d))),
            set(range(d)) - {d // 2},
        ]
        for steps in step_sets:
            part = components_mod_d(supp, d, steps)
            assert part.components == union_find_components(supp, d, steps), (d, supp, steps)
            assert part.universe == tuple(supp)
            kinds.add(part.relation.split("(")[0])
        closed_form = components_mod_d(supp, d, band)
        assert components_mod_d(supp, d, step_sets[2]).components == closed_form.components
        line = [j - 30 for j in supp]
        gaps = DifferenceSet(None, frozenset({0, *drawn, *(-k for k in drawn)}))
        assert components_line(line, gaps).components == union_find_components(line, None, gaps)
    assert kinds == {"all-shifts", "L-mod-d", "g-mod-d"}


def test_step_set_labels():
    assert components_mod_d({0, 5}, 16, [3, 13, 0]).relation == "g-mod-d(d=16,D=[3])"
    assert components_mod_d({0, 5}, 16, range(-2, 3)).relation == "L-mod-d(d=16,L=2)"
    assert components_mod_d({0, 5}, 16, range(16)).relation == "all-shifts"
    # step 3 joins 13 to 0 across the wrap, and 0 to 3
    assert components_mod_d({0, 3, 13}, 16, {3, 5}).components == ((0, 3, 13),)
