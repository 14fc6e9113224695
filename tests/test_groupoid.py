"""Groupoid tables, axioms, structure maps, and constructors."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupoidalg.errors import MalformedTable, NotAUnit
from groupoidalg.groupoid import (
    FiniteGroupoid,
    Violation,
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
    with pytest.raises(MalformedTable, match=r"^comp\[1\]\[0\] = 2 out of range$"):
        FiniteGroupoid(2, [0, 1], [0, 1], [0, 1], [0, 1], [[0, None], [2, 1]])
    with pytest.raises(MalformedTable, match="^comp must be an m x m table$"):
        FiniteGroupoid(2, [0, 1], [0, 1], [0, 1], [0, 1], [[0, None], [None]])


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


# -- the per-unit arrow lists against the full scans they replaced -------------


def scanned_pairs(g):
    return [(a, b) for a in g.arrows() for b in g.arrows() if g.src[a] == g.tgt[b]]


def scanned_triples(g):
    return [(a, b, c) for a, b in scanned_pairs(g) for c in g.arrows() if g.src[b] == g.tgt[c]]


def scanned_validate(g):
    """The axiom check as it was before the arrow lists: every pair and
    triple found by scanning all arrows, composability over all m^2 pairs."""
    m = g.n_arrows
    units = set(g.units)
    for u in g.units:
        if g.src[u] != u or g.tgt[u] != u:
            return Violation("unit-fixed-by-src-tgt", (u,))
        if g.inv[u] != u:
            return Violation("unit-self-inverse", (u,))
    for a in range(m):
        if g.src[a] not in units:
            return Violation("source-is-unit", (a,))
        if g.tgt[a] not in units:
            return Violation("target-is-unit", (a,))
    for a in range(m):
        for b in range(m):
            if (g.comp[a][b] is not None) != (g.src[a] == g.tgt[b]):
                return Violation("composability", (a, b))
    for a in range(m):
        if g.comp[g.tgt[a]][a] != a:
            return Violation("left-identity", (g.tgt[a], a))
        if g.comp[a][g.src[a]] != a:
            return Violation("right-identity", (a, g.src[a]))
    for a, b in scanned_pairs(g):
        ab = g.comp[a][b]
        if g.src[ab] != g.src[b] or g.tgt[ab] != g.tgt[a]:
            return Violation("product-src-tgt", (a, b))
    for a in range(m):
        ai = g.inv[a]
        if g.inv[ai] != a:
            return Violation("involution", (a,))
        if g.src[ai] != g.tgt[a] or g.tgt[ai] != g.src[a]:
            return Violation("inverse-src-tgt", (a,))
        if g.comp[a][ai] != g.tgt[a]:
            return Violation("right-inverse", (a,))
        if g.comp[ai][a] != g.src[a]:
            return Violation("left-inverse", (a,))
    for a, b, c in scanned_triples(g):
        if g.comp[g.comp[a][b]][c] != g.comp[a][g.comp[b][c]]:
            return Violation("associativity", (a, b, c))
    return None


def arrow_list_groupoids():
    z3 = cyclic_group_table(3)
    return [GROUPOID_MAKERS[name]() for name in sorted(GROUPOID_MAKERS)] + [
        pair_groupoid(4), action_groupoid(z3, [[0, 1, 2, 3], [1, 2, 0, 3], [2, 0, 1, 3]]),
        disjoint_union(pair_groupoid(3), group_groupoid(z3))]


def test_arrow_lists_match_full_scans():
    """Pairs, triples, hom-sets, orbits and isotropy groups read off the
    arrows into each unit equal the scans over every arrow, in order."""
    for g in arrow_list_groupoids():
        assert list(g.composable_pairs()) == scanned_pairs(g)
        # the walk of ``validate`` and ``validate_cocycle``: a, then b into
        # src(a), then c into src(b)
        assert [(a, b, c) for a, b in g.composable_pairs()
                for c in g.into[g.src[b]]] == scanned_triples(g)
        assert g.into == tuple(tuple(a for a in g.arrows() if g.tgt[a] == u) for u in g.arrows())
        for x in g.units:
            assert g.isotropy_group(x) == [a for a in g.arrows() if g.src[a] == g.tgt[a] == x]
            assert g.orbit(x) == sorted({g.tgt[a] for a in g.arrows() if g.src[a] == x})
            for y in g.units:
                assert g.hom_set(y, x) == [a for a in g.arrows()
                                           if g.src[a] == x and g.tgt[a] == y]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_validate_matches_full_scan_on_corrupted_tables(data):
    """One or two corrupted table entries (a product defined, undefined or
    moved; a source, target or inverse moved) give the same first violation
    and witness as the full scan."""
    g = data.draw(st.sampled_from(arrow_list_groupoids()))
    m = g.n_arrows
    arrow = st.integers(0, m - 1)
    comp, tables = [list(row) for row in g.comp], {"src": list(g.src), "tgt": list(g.tgt),
                                                     "inv": list(g.inv)}
    for _ in range(data.draw(st.integers(1, 2))):
        kind = data.draw(st.sampled_from(["comp", "src", "tgt", "inv"]))
        a, b = data.draw(arrow), data.draw(arrow)
        if kind == "comp":
            comp[a][b] = data.draw(st.one_of(st.none(), arrow))
        else:
            tables[kind][a] = b
    corrupted = FiniteGroupoid(m, g.units, tables["src"], tables["tgt"], tables["inv"], comp)
    assert corrupted.validate() == scanned_validate(corrupted)
