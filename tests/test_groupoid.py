"""Groupoid tables, axioms, structure maps, and constructors."""

import itertools
import random

import pytest

from groupoidalg.errors import MalformedTable, NotAUnit
from groupoidalg.groupoid import (
    FiniteGroupoid,
    action_groupoid,
    cyclic_group_table,
    disjoint_union,
    group_groupoid,
    pair_groupoid,
)

from conftest import GROUPOID_MAKERS, make_gb, make_swap_action


@pytest.mark.parametrize("name", sorted(GROUPOID_MAKERS))
def test_constructors_validate(name):
    g = GROUPOID_MAKERS[name]()
    assert g.validate() is None


def test_pair_groupoid_smallest():
    g = pair_groupoid(1)
    assert g.n_arrows == 1
    assert g.units == (0,)


def test_duplicate_unit_is_malformed():
    g = pair_groupoid(2)
    with pytest.raises(MalformedTable, match="^duplicate unit id 0$"):
        FiniteGroupoid(g.n_arrows, (0, 0, 3), g.src, g.tgt, g.inv, g.comp)


def test_composability_violation():
    g = pair_groupoid(2)
    comp = [list(row) for row in g.comp]
    # define a product on a non-composable pair
    bad = next(
        (a, b)
        for a in g.arrows()
        for b in g.arrows()
        if g.src[a] != g.tgt[b]
    )
    comp[bad[0]][bad[1]] = 0
    broken = FiniteGroupoid(g.n_arrows, g.units, g.src, g.tgt, g.inv, comp)
    violation = broken.validate()
    assert violation is not None
    assert violation.axiom == "composability"
    assert violation.witness == bad


def test_involution_corruption_detected():
    rng = random.Random(99)
    g = pair_groupoid(3)
    non_units = [a for a in g.arrows() if not g.is_unit(a)]
    corrupt = rng.choice(non_units)
    wrong = next(a for a in non_units if a != g.inv[corrupt] and a != corrupt)
    inv = list(g.inv)
    inv[corrupt] = wrong
    broken = FiniteGroupoid(g.n_arrows, g.units, g.src, g.tgt, inv, g.comp)
    violation = broken.validate()
    assert violation is not None
    assert violation.axiom in ("involution", "inverse-src-tgt")
    # the witness names an arrow touched by the corruption
    assert violation.witness[0] in {corrupt, g.inv[corrupt], wrong}


def test_out_of_range_raises():
    with pytest.raises(MalformedTable):
        FiniteGroupoid(2, [0], [0, 5], [0, 1], [0, 1], [[0, None], [None, 1]])


def test_isotropy_trivial_in_pair_groupoid():
    g = pair_groupoid(3)
    for x in g.units:
        assert g.isotropy_group(x) == [x]


def test_isotropy_of_group_groupoid():
    g = group_groupoid(cyclic_group_table(2))
    x = g.units[0]
    iso = g.isotropy_group(x)
    assert len(iso) == 2
    table = g.isotropy_table(x)
    assert table[(iso[1], iso[1])] == x


def test_isotropy_of_group_bundle():
    g = make_gb()
    sizes = sorted(len(g.isotropy_group(x)) for x in g.units)
    assert sizes == [1, 1, 2]


def test_isotropy_requires_unit():
    g = pair_groupoid(2)
    non_unit = next(a for a in g.arrows() if not g.is_unit(a))
    with pytest.raises(NotAUnit):
        g.isotropy_group(non_unit)


def test_orbits_and_hom_sets_pair():
    g = pair_groupoid(3)
    for x in g.units:
        assert g.orbit(x) == list(g.units)
        for y in g.units:
            assert len(g.hom_set(y, x)) == 1


def test_orbits_of_disjoint_union():
    g = disjoint_union(pair_groupoid(2), pair_groupoid(2))
    blocks = {tuple(g.orbit(x)) for x in g.units}
    assert len(blocks) == 2
    union = sorted(u for b in blocks for u in b)
    assert union == list(g.units)


def test_swap_action_groupoid_structure():
    g = make_swap_action()
    assert g.validate() is None
    assert g.n_arrows == 4
    for x in g.units:
        assert g.orbit(x) == list(g.units)
        assert g.isotropy_group(x) == [x]
        for y in g.units:
            assert len(g.hom_set(y, x)) == 1


def test_swap_action_isomorphic_to_pair2():
    """Canonical relabeling turns the action groupoid into the pair groupoid."""
    g = make_swap_action()
    p = pair_groupoid(2)
    # relabel: arrow -> (target position, source position) in unit order
    unit_pos = {u: i for i, u in enumerate(g.units)}
    relabel = {}
    for a in g.arrows():
        i = unit_pos[g.tgt[a]]
        j = unit_pos[g.src[a]]
        relabel[a] = i * 2 + j
    assert sorted(relabel.values()) == list(range(4))
    for a in g.arrows():
        assert p.src[relabel[a]] == relabel[g.src[a]]
        assert p.tgt[relabel[a]] == relabel[g.tgt[a]]
        assert p.inv[relabel[a]] == relabel[g.inv[a]]
    for a, b in g.composable_pairs():
        assert p.comp[relabel[a]][relabel[b]] == relabel[g.comp[a][b]]


def test_group_bundle_arrow_count():
    g = make_gb()
    assert g.n_arrows == 4
    assert len(g.units) == 3


def test_bisection_singletons():
    g = pair_groupoid(3)
    for a in g.arrows():
        assert g.is_bisection([a])


def test_bisection_fails_on_shared_source():
    g = group_groupoid(cyclic_group_table(2))
    e, a = 0, 1
    assert not g.is_bisection([e, a])


def test_bisections_of_pair2_by_brute_force():
    """Compare is_bisection with direct injectivity checks on all subsets."""
    g = pair_groupoid(2)
    count = 0
    for size in range(1, 5):
        for subset in itertools.combinations(range(4), size):
            srcs = [g.src[a] for a in subset]
            tgts = [g.tgt[a] for a in subset]
            expected = len(set(srcs)) == len(srcs) and len(set(tgts)) == len(tgts)
            assert g.is_bisection(subset) == expected
            if expected:
                count += 1
    # 4 singletons + 2 ways to pick two arrows with distinct rows and columns
    assert count == 6


def test_product_of_bisections_is_bisection():
    g = pair_groupoid(2)
    bisections = [
        s
        for size in range(1, 5)
        for s in itertools.combinations(range(4), size)
        if g.is_bisection(s)
    ]
    for s1 in bisections:
        for s2 in bisections:
            prod = {
                g.comp[a][b] for a in s1 for b in s2 if g.src[a] == g.tgt[b]
            }
            assert g.is_bisection(prod)


@pytest.mark.parametrize("name", sorted(GROUPOID_MAKERS))
def test_orbit_counting_identity(name):
    """#arrows equals the sum over orbits of |orbit|^2 * |isotropy|."""
    g = GROUPOID_MAKERS[name]()
    seen = set()
    total = 0
    for x in g.units:
        if x in seen:
            continue
        orbit = g.orbit(x)
        seen.update(orbit)
        total += len(orbit) ** 2 * len(g.isotropy_group(x))
    assert total == g.n_arrows


@pytest.mark.parametrize("name", sorted(GROUPOID_MAKERS))
def test_inv_bijects_hom_sets(name):
    g = GROUPOID_MAKERS[name]()
    for x in g.units:
        for y in g.units:
            image = sorted(g.inv[a] for a in g.hom_set(y, x))
            assert image == g.hom_set(x, y)


def test_group_table_without_identity_rejected():
    with pytest.raises(MalformedTable):
        group_groupoid([[0, 0], [0, 0]])


def test_action_must_be_bijective():
    with pytest.raises(MalformedTable):
        action_groupoid(cyclic_group_table(2), [[0, 1], [0, 0]])
