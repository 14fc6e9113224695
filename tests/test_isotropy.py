"""The point-ideal quotient machinery and the isotropy identification."""

import itertools
import random

import pytest

from groupoidalg import isotropy
from groupoidalg.errors import ContainmentError, NotAUnit, TheoremViolation
from groupoidalg.groupoid import pair_groupoid
from groupoidalg.isotropy import Inclusion
from groupoidalg.linalg import (
    GF,
    QQ,
    QuotientSpace,
    Subspace,
    combine,
    identity_matrix,
    operator_matrix,
    right_kernel,
    rref,
    solve_right,
)
from groupoidalg.steinberg import AlgebraPresentation, twisted_group_algebra
from groupoidalg.twist import Cocycle, coboundary, restrict_to_isotropy

from conftest import (
    battery,
    make_gb,
    make_z2,
    oracle_battery,
    quaternion_fixture,
    twisted_battery,
)

GF2 = GF(2)
GF3 = GF(3)
GF7 = GF(7)


def inclusion_battery(field, names=None):
    return [
        (name, Inclusion(g, c)) for name, g, c in battery(field, names)
    ]


# -- the dense oracle: every space by elimination over all m arrows --------------


def full_space(inc):
    return Subspace.span(identity_matrix(inc.m, inc.field), inc.m, inc.field)


def subspace_product(inc, S, T):
    """span{s t} over basis pairs; bilinearity makes this the full product."""
    vectors = [inc.multiply(s, t) for s in S.basis for t in T.basis]
    return Subspace.span(vectors, inc.m, inc.field)


def dense_spaces(inc, I, J):
    """(C, H, L, C/H) for ideals I, J of A: C as the common kernel of the
    matrices of c -> c a mod IB (a in J) and c -> a c mod BJ (a in I)."""
    m, f = inc.m, inc.field
    full = full_space(inc)
    ib, bj = subspace_product(inc, I, full), subspace_product(inc, full, J)
    eye = identity_matrix(m, f)
    rows = []
    for a in J.basis:
        rows.extend(operator_matrix(lambda c: ib.reduce(inc.multiply(c, a)), eye))
    for a in I.basis:
        rows.extend(operator_matrix(lambda c: bj.reduce(inc.multiply(a, c)), eye))
    C = right_kernel(rows, m, f)
    H = subspace_product(inc, ib, J)
    return C, H, ib.add(bj), QuotientSpace(C, H)


def dense_projection_matrix(inc, quotient, L):
    """E by one row reduction of [section ; L basis | identity]: the row
    with pivot at arrow a writes delta_a over the stacked rows, and its
    section coefficients are E(delta_a)."""
    stack = quotient.section_basis + L.basis
    eye = identity_matrix(len(stack), inc.field)
    reduced, pivots = rref([s + e for s, e in zip(stack, eye)], inc.field)
    assert pivots == list(range(inc.m))
    return tuple(
        tuple(reduced[a][inc.m + r] for a in range(inc.m)) for r in range(quotient.dim)
    )


def dense_presentation(inc, x, quotient):
    """(rows, unit_coords) of B(x, x) from products of dense section vectors."""
    section = quotient.section_basis
    products = {
        (i, j): dict(enumerate(quotient.project(inc.multiply(s, t))))
        for i, s in enumerate(section)
        for j, t in enumerate(section)
    }
    unit_coords = quotient.project(inc.delta_vector(x))
    labels = [f"c{i}" for i in range(quotient.dim)]
    pres = AlgebraPresentation.from_products(inc.field, labels, products, unit_coords)
    return pres.rows, unit_coords


def assert_matches_dense_oracle(inc, data, I, J, name):
    C, H, L, quotient = dense_spaces(inc, I, J)
    assert (data.C, data.H, data.L) == (C, H, L), name
    assert data.quotient.section_basis == quotient.section_basis, name
    return quotient, L


def ideal_of_A(inc, units):
    return Subspace.span([inc.delta_vector(u) for u in units], inc.m, inc.field)


def test_isotropy_data_against_dense_oracle():
    """C, H, L, the section basis, E and the B(x, x) presentation at every
    unit pair of the twisted battery (over GF(7) the twist takes the value
    2), and C, H, L and the section at the ideal pairs (0, A), (A, 0),
    (span delta_u0, span delta_u1) and (A, A)."""
    for name, g, cocycle in twisted_battery():
        inc = Inclusion(g, cocycle)
        for y, x, I, J in point_ideal_pairs(inc):
            data = inc.isotropy_data(y, x)
            quotient, L = assert_matches_dense_oracle(inc, data, I, J, name)
            assert inc.projection_matrix(y, x) == dense_projection_matrix(inc, quotient, L), name
            if y == x:
                rows, unit_coords = dense_presentation(inc, x, quotient)
                assert data.presentation.rows == rows, name
                assert data.unit_coords == unit_coords, name
        units = g.units
        zero, A = ideal_of_A(inc, []), ideal_of_A(inc, units)
        pairs = [(zero, A), (A, zero), (A, A)]
        if len(units) > 1:
            pairs.append((ideal_of_A(inc, units[:1]), ideal_of_A(inc, units[1:2])))
        for I, J in pairs:
            data = inc.isotropy_data_for_ideals(I, J)
            assert_matches_dense_oracle(inc, data, I, J, name)
            assert inc.c_space_for_ideals(I, J) == data.C, name


def test_pair20_closed_form():
    """pair(20) over Q, m = 400, at unit 0: C is the 19 x 19 block plus
    delta_0, H the block, L every arrow but 0, and E(0, 0) reads off delta_0."""
    g = pair_groupoid(20)
    inc = Inclusion(g, Cocycle.trivial(g, QQ))
    data = inc.isotropy_data(0, 0)
    assert (data.C.dim, data.H.dim, data.L.dim) == (19**2 + 1, 19**2, 399)
    assert inc.projection_matrix(0, 0) == (inc.delta_vector(0),)


def test_ideal_pair_entry_points_refuse_non_ideals():
    """A subspace not spanned by unit deltas is not an ideal of A."""
    inc = Inclusion(*battery(QQ, ["gb"])[0][1:])
    g = inc.groupoid
    u0, u1 = g.units[:2]
    non_unit = next(a for a in g.arrows() if not g.is_unit(a))
    A = ideal_of_A(inc, g.units)
    mixed = Subspace.span([combine((1, 1), (inc.delta_vector(u0), inc.delta_vector(u1)), QQ)],
                          inc.m, QQ)
    for S in (mixed, Subspace.span([inc.delta_vector(non_unit)], inc.m, QQ)):
        for I, J in ((S, A), (A, S)):
            with pytest.raises(ContainmentError):
                inc.c_space_for_ideals(I, J)
            with pytest.raises(ContainmentError):
                inc.isotropy_data_for_ideals(I, J)


# -- point ideals and the L spaces ----------------------------------------------


def test_point_ideal_dimension():
    for name, inc in inclusion_battery(QQ):
        for x in inc.groupoid.units:
            assert inc.point_ideal(x).basis.dim == len(inc.groupoid.units) - 1, name


def local_unit_vector(ideal, vectors, inclusion):
    """Indicator of the union of supports: an idempotent u with uf = f.

    Works for any finite family inside the ideal; supports never
    contain x, so the indicator stays inside the ideal.
    """
    units = set()
    for v in vectors:
        for a, c in enumerate(v):
            if c != 0:
                units.add(a)
    units.discard(ideal.x)
    return inclusion.unit_indicator_vector(sorted(units))


def test_point_ideal_local_unit():
    inc = Inclusion(*battery(QQ, ["gb"])[0][1:])
    x = inc.groupoid.units[0]
    ideal = inc.point_ideal(x)
    vectors = list(ideal.basis.basis)
    u = local_unit_vector(ideal, vectors, inc)
    assert u in ideal.basis
    for v in vectors:
        assert inc.multiply(u, v) == v


def test_point_ideal_requires_unit():
    inc = Inclusion(*battery(QQ, ["pair2"])[0][1:])
    non_unit = next(a for a in inc.groupoid.arrows() if not inc.groupoid.is_unit(a))
    with pytest.raises(NotAUnit):
        inc.point_ideal(non_unit)


def test_bj_vanishing_characterization():
    """B J_x consists exactly of the functions vanishing on arrows out of x."""
    for name, inc in inclusion_battery(QQ, ["pair2", "pair3", "gb"]):
        g = inc.groupoid
        for x in g.units:
            bj = inc.BJ(x)
            outgoing = [a for a in g.arrows() if g.src[a] == x]
            for row in bj.basis:
                assert all(row[a] == 0 for a in outgoing), name
            assert bj.dim == inc.m - len(outgoing), name


def test_jb_vanishing_characterization():
    for name, inc in inclusion_battery(QQ, ["pair2", "gb"]):
        g = inc.groupoid
        for y in g.units:
            jb = inc.JB(y)
            incoming = [a for a in g.arrows() if g.tgt[a] == y]
            for row in jb.basis:
                assert all(row[a] == 0 for a in incoming), name
            assert jb.dim == inc.m - len(incoming), name


def test_single_unit_group_spaces():
    g = make_z2()
    inc = Inclusion(g, Cocycle.trivial(g, QQ))
    x = g.units[0]
    assert inc.point_ideal(x).basis.dim == 0
    jb, bj, L = inc.left_right_spaces(x, x)
    assert jb.dim == bj.dim == L.dim == 0
    data = inc.isotropy_data(x, x)
    assert data.C.dim == inc.m
    assert data.dim == inc.m


def test_gb_l_space_codimension():
    gb = make_gb()
    inc = Inclusion(gb, Cocycle.trivial(gb, QQ))
    _, _, L = inc.left_right_spaces(0, 0)
    iso = gb.isotropy_group(0)
    assert L.dim == inc.m - len(iso)
    for row in L.basis:
        assert all(row[a] == 0 for a in iso)


# -- the C space -------------------------------------------------------------------


def brute_force_C(inc, I, J):
    """Exhaustive scan for {c : c J in I B, I c in B J} over a small prime field."""
    f = inc.field
    p = f.p
    m = inc.m
    ib = subspace_product(inc, I, full_space(inc))
    bj = subspace_product(inc, full_space(inc), J)
    hits = []
    for coords in itertools.product(range(p), repeat=m):
        v = tuple(f.of(c) for c in coords)
        ok = all(inc.multiply(v, a) in ib for a in J.basis) and all(
            inc.multiply(a, v) in bj for a in I.basis
        )
        if ok:
            hits.append(v)
    return Subspace.span(hits, m, f)


def point_ideal_pairs(inc):
    for x in inc.groupoid.units:
        for y in inc.groupoid.units:
            yield y, x, inc.point_ideal(y).basis, inc.point_ideal(x).basis


def test_compute_C_against_exhaustive_oracle():
    for name, inc in inclusion_battery(GF2, ["pair2", "gb"]):
        for y, x, I, J in point_ideal_pairs(inc):
            assert inc.c_space_for_ideals(I, J) == brute_force_C(inc, I, J), name


def test_twisted_C_against_exhaustive_oracle():
    """C under a coboundary twist with values outside {1, -1}, at point ideals
    and at a pair of ideals of A that are not point ideals.

    GF(7), not GF(3): over GF(3) every scalar is +-1, and every coboundary
    on the Z2 fibre of gb is identically 1 (w(t, t) = b(t)^2 = 1).
    """
    for name, g, _ in battery(GF7, ["pair2", "gb"]):
        cocycle = coboundary(g, GF7, {a: 1 if g.is_unit(a) else 3 for a in g.arrows()})
        assert set(cocycle.values.values()) - {GF7.one(), GF7.of(-1)}, name
        inc = Inclusion(g, cocycle)
        for y, x, I, J in point_ideal_pairs(inc):
            assert inc.c_space_for_ideals(I, J) == brute_force_C(inc, I, J), name
        if name == "gb":
            units = g.units
            I = Subspace.span([inc.delta_vector(units[0])], inc.m, GF7)
            J = Subspace.span([inc.delta_vector(units[1])], inc.m, GF7)
            assert inc.c_space_for_ideals(I, J) == brute_force_C(inc, I, J)


def test_singleton_normalizers_inside_C():
    for name, inc in inclusion_battery(QQ, ["pair2", "pair3", "gb", "swap"]):
        g = inc.groupoid
        for a in g.arrows():
            y, x = g.tgt[a], g.src[a]
            data = inc.isotropy_data(y, x)
            assert inc.delta_vector(a) in data.C, name


def test_regularity_and_h_identity_all_pairs():
    for name, inc in inclusion_battery(QQ):
        g = inc.groupoid
        for x in g.units:
            for y in g.units:
                data = inc.isotropy_data(y, x)
                assert data.C.add(data.L).dim == inc.m, name
                assert data.C.intersect(data.L) == data.H, name


def test_h_space_identities():
    """J_x C(x,x) = C(x,x) J_x = J_x B J_x = H(x,x) as exact subspaces."""
    for name, inc in inclusion_battery(QQ, ["pair2", "gb", "z2", "v4"]):
        for x in inc.groupoid.units:
            data = inc.isotropy_data(x, x)
            jx = inc.point_ideal(x).basis
            left = subspace_product(inc, jx, data.C)
            right = subspace_product(inc, data.C, jx)
            assert left == data.H, name
            assert right == data.H, name


def test_c_cap_sided_products():
    """C cap J_yB = J_yBJ_x = C cap BJ_x."""
    for name, inc in inclusion_battery(QQ, ["pair2", "gb"]):
        g = inc.groupoid
        for x in g.units:
            for y in g.units:
                data = inc.isotropy_data(y, x)
                jb = inc.JB(y)
                bj = inc.BJ(x)
                assert data.C.intersect(jb) == data.H, name
                assert data.C.intersect(bj) == data.H, name


def test_dim_matches_hom_set_size():
    for name, inc in inclusion_battery(QQ):
        g = inc.groupoid
        for x in g.units:
            for y in g.units:
                data = inc.isotropy_data(y, x)
                assert data.dim == len(g.hom_set(y, x)), name


def test_quotient_spanned_by_singleton_normalizers():
    """The classes of the arrow sections in N(y,x) span the quotient."""
    for name, inc in inclusion_battery(QQ, ["pair2", "pair3", "gb", "v4"]):
        g = inc.groupoid
        for x in g.units:
            for y in g.units:
                data = inc.isotropy_data(y, x)
                coords = [
                    data.quotient.project(inc.delta_vector(a))
                    for a in g.hom_set(y, x)
                ]
                spanned = Subspace.span(coords, data.dim, inc.field)
                assert spanned.dim == data.dim, name


# -- the isotropy algebra and projection ---------------------------------------------


def test_unit_class_scaling():
    """p(a) = <a, x> 1 for unit functions a."""
    for name, inc in inclusion_battery(QQ, ["pair2", "gb", "v4"]):
        g = inc.groupoid
        for x in g.units:
            data = inc.isotropy_data(x, x)
            for u in g.units:
                coords = data.quotient.project(inc.delta_vector(u))
                if u == x:
                    assert coords == data.unit_coords, name
                else:
                    assert all(c == 0 for c in coords), name


def test_projection_on_unit_functions():
    for name, inc in inclusion_battery(QQ, ["pair2", "gb"]):
        g = inc.groupoid
        for x in g.units:
            for u in g.units:
                img = inc.isotropy_projection(x, inc.delta_vector(u))
                data = inc.isotropy_data(x, x)
                expected = data.unit_coords if u == x else (QQ.zero(),) * data.dim
                assert img == tuple(expected), name


def test_projection_kills_non_isotropy_arrows():
    for name, inc in inclusion_battery(QQ):
        g = inc.groupoid
        for x in g.units:
            for a in g.arrows():
                img = inc.isotropy_projection(x, inc.delta_vector(a))
                if g.src[a] == x and g.tgt[a] == x:
                    assert any(c != 0 for c in img), name
                else:
                    assert all(c == 0 for c in img), name


def test_projection_matches_restriction_under_identification():
    """E agrees with restriction-to-isotropy in the group-algebra picture."""
    for name, inc in inclusion_battery(QQ, ["pair2", "gb", "v4", "swap"]):
        g = inc.groupoid
        for x in g.units:
            cert = inc.identify_with_twisted_group_algebra(x)
            for a in g.arrows():
                coords = inc.isotropy_projection(x, inc.delta_vector(a))
                restricted = combine(coords, cert.matrix, QQ)
                expected = tuple(
                    QQ.one() if (m == a) else QQ.zero() for m in cert.members
                )
                assert restricted == expected, name


def projection_oracle(inc, y, x):
    """E(y, x) one arrow at a time: solve delta_a = c + l with c in C and
    l in L, then project c onto C/H."""
    data = inc.isotropy_data(y, x)
    stack = data.C.basis + data.L.basis
    system = tuple(zip(*stack))  # column j is the j-th stacked basis vector
    columns = []
    for a in range(inc.m):
        sol = solve_right(system, inc.delta_vector(a), inc.field)
        assert sol is not None, f"delta_{a} is not in C + L"
        columns.append(data.quotient.project(data.C.from_coordinates(sol[: data.C.dim])))
    return tuple(tuple(col[r] for col in columns) for r in range(data.dim))


def test_projection_matrix_against_per_arrow_oracle():
    """E(y, x) at every unit pair, pairs in different orbits (B(y, x) = 0)
    included: over Q with trivial and quaternion twists, and over GF(7)
    under a coboundary twist that takes the value 2."""
    empty_pairs = 0
    for name, g, cocycle in twisted_battery():
        inc = Inclusion(g, cocycle)
        for y, x, _, _ in point_ideal_pairs(inc):
            assert inc.projection_matrix(y, x) == projection_oracle(inc, y, x), name
            empty_pairs += inc.isotropy_data(y, x).dim == 0
    assert empty_pairs > 0


def test_identification_trivial_isotropy():
    for name, inc in inclusion_battery(QQ, ["pair2", "pair3", "swap"]):
        for x in inc.groupoid.units:
            cert = inc.identify_with_twisted_group_algebra(x)
            assert len(cert.members) == 1
            assert cert.isotropy_presentation.dim == 1


def test_identification_quaternion():
    g, c = quaternion_fixture(QQ)
    inc = Inclusion(g, c)
    x = g.units[0]
    cert = inc.identify_with_twisted_group_algebra(x)
    assert cert.members == (0, 1, 2, 3)
    # the group presentation is the twisted table itself
    signs = [
        [1, 1, 1, 1],
        [1, -1, 1, -1],
        [1, -1, -1, 1],
        [1, 1, -1, -1],
    ]
    for a in range(4):
        for b in range(4):
            row = cert.group_presentation.table[a][b]
            assert row[g.comp[a][b]] == QQ.of(signs[a][b])


def test_identification_gb_with_sign_twist():
    gb = make_gb()
    for field, splits in ((GF3, False), (GF(5), True)):
        sign = Cocycle(gb, field, {(1, 1): field.of(-1)})
        from groupoidalg.twist import validate_cocycle

        assert validate_cocycle(sign) is None
        inc = Inclusion(gb, sign)
        data = inc.isotropy_data(0, 0)
        assert data.dim == 2
        inc.identify_with_twisted_group_algebra(0)
        # c1 * c1 = -c0 in the fiber algebra; squares split iff -1 is a square
        sq = data.presentation.multiply(
            data.presentation.basis_vector(1), data.presentation.basis_vector(1)
        )
        assert sq == tuple([field.of(-1), field.zero()])


def dense_identification_holds(inc, x, matrix, group_pres):
    """The multiplicativity check that equal product indices replaced: every
    product of the dense table of B(x,x), pushed through ``matrix``, against
    the product of the images in the twisted group algebra."""
    data = inc.isotropy_data(x, x)
    return all(
        combine(data.presentation.table[i][j], matrix, inc.field)
        == group_pres.multiply(matrix[i], matrix[j])
        for i in range(data.dim) for j in range(data.dim)
    )


def perturbed_twisted_group_algebra(table, members, cocycle_values, field):
    """The twisted group algebra with the constant of (identity, identity) plus one."""
    values = dict(cocycle_values)
    e = next(g for g in members if all(table[(g, h)] == h for h in members))
    values[(e, e)] = field.add(values[(e, e)], field.one())
    return twisted_group_algebra(table, members, values, field)


def test_identification_agrees_with_the_dense_table_loop():
    """On every oracle-battery case the section arrows are the isotropy arrows
    in order, so ``matrix`` is the identity, and the dense loop holds exactly
    when the two product indices are equal: it holds for the twisted group
    algebra and fails for a perturbed one, which the identification refuses."""
    for name, g, c in oracle_battery():
        inc = Inclusion(g, c)
        for x in g.units:
            cert = inc.identify_with_twisted_group_algebra(x)
            k = len(cert.members)
            assert cert.members == inc.isotropy_data(x, x).quotient.section.pivots, name
            assert cert.matrix == identity_matrix(k, inc.field), name
            assert dense_identification_holds(inc, x, cert.matrix, cert.group_presentation), name
            group = restrict_to_isotropy(c, x)
            bad = perturbed_twisted_group_algebra(g.isotropy_table(x), cert.members, group, c.field)
            assert not dense_identification_holds(inc, x, cert.matrix, bad), name


def test_identification_refuses_a_perturbed_structure_constant(monkeypatch):
    monkeypatch.setattr(isotropy, "twisted_group_algebra", perturbed_twisted_group_algebra)
    for name, g, c in oracle_battery():
        inc = Inclusion(g, c)
        for x in g.units:
            with pytest.raises(TheoremViolation, match="^structure constants do not match$"):
                inc.identify_with_twisted_group_algebra(x)


def test_identification_reads_no_dense_table_and_multiplies_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("dense table or multiply used")

    for name, g, c in oracle_battery():
        inc = Inclusion(g, c)
        for x in g.units:
            inc.isotropy_data(x, x)
        with monkeypatch.context() as patch:
            patch.setattr(AlgebraPresentation, "table", property(refuse))
            patch.setattr(AlgebraPresentation, "multiply", refuse)
            for x in g.units:
                inc.identify_with_twisted_group_algebra(x)


# -- bimodule products ----------------------------------------------------------------


def test_unit_class_acts_as_identity_on_bimodules():
    for name, inc in inclusion_battery(QQ, ["pair2", "gb"]):
        g = inc.groupoid
        for x in g.units:
            for y in g.units:
                data = inc.isotropy_data(y, x)
                unit_y = inc.isotropy_data(y, y).unit_coords
                unit_x = inc.isotropy_data(x, x).unit_coords
                for j in range(data.dim):
                    h = tuple(
                        QQ.one() if i == j else QQ.zero() for i in range(data.dim)
                    )
                    assert inc.bimodule_product(y, y, x, unit_y, h) == h, name
                    assert inc.bimodule_product(y, x, x, h, unit_x) == h, name


def test_pair2_bimodule_product_nondegenerate():
    from groupoidalg.groupoid import pair_groupoid

    g = pair_groupoid(2)
    inc = Inclusion(g, Cocycle.trivial(g, QQ))
    x, y = g.units
    d_yx = inc.isotropy_data(y, x)
    d_xy = inc.isotropy_data(x, y)
    assert d_yx.dim == d_xy.dim == 1
    one = (QQ.one(),)
    prod = inc.bimodule_product(x, y, x, one, one)
    assert prod != (QQ.zero(),)


def test_mixed_projection_rules_random():
    """p(g) E(b) = E(g b) and E(b) p(h) = E(b h) on random triples."""
    rng = random.Random(2718)
    for name, inc in inclusion_battery(QQ, ["pair2", "gb"]):
        g = inc.groupoid
        units = list(g.units)
        for _ in range(100):
            z, y, x = (rng.choice(units) for _ in range(3))
            dzy = inc.isotropy_data(z, y)
            if dzy.dim == 0:
                continue
            gcoords = tuple(QQ.of(rng.randint(-2, 2)) for _ in range(dzy.dim))
            gvec = dzy.quotient.inject(gcoords)
            b = tuple(QQ.of(rng.randint(-2, 2)) for _ in range(inc.m))
            eb = inc.projection(y, x, b)
            lhs = inc.bimodule_product(z, y, x, dzy.quotient.project(gvec), eb)
            rhs = inc.projection(z, x, inc.multiply(gvec, b))
            assert lhs == rhs, name
            # mirrored rule
            dyx = inc.isotropy_data(y, x)
            if dyx.dim == 0:
                continue
            hcoords = tuple(QQ.of(rng.randint(-2, 2)) for _ in range(dyx.dim))
            hvec = dyx.quotient.inject(hcoords)
            eb2 = inc.projection(z, y, b)
            lhs2 = inc.bimodule_product(z, y, x, eb2, dyx.quotient.project(hvec))
            rhs2 = inc.projection(z, x, inc.multiply(b, hvec))
            assert lhs2 == rhs2, name


def test_bimodule_associativity_sampled():
    rng = random.Random(999)
    for name, inc in inclusion_battery(GF3, ["pair2", "gb"]):
        g = inc.groupoid
        units = list(g.units)
        for _ in range(60):
            w, z, y, x = (rng.choice(units) for _ in range(4))
            dwz = inc.isotropy_data(w, z)
            dzy = inc.isotropy_data(z, y)
            dyx = inc.isotropy_data(y, x)
            if 0 in (dwz.dim, dzy.dim, dyx.dim):
                continue
            a = tuple(GF3.of(rng.randrange(3)) for _ in range(dwz.dim))
            b = tuple(GF3.of(rng.randrange(3)) for _ in range(dzy.dim))
            cc = tuple(GF3.of(rng.randrange(3)) for _ in range(dyx.dim))
            left = inc.bimodule_product(
                w, y, x, inc.bimodule_product(w, z, y, a, b), cc
            )
            right = inc.bimodule_product(
                w, z, x, a, inc.bimodule_product(z, y, x, b, cc)
            )
            assert left == right, name


def test_general_ideal_pair_entry_point():
    """The (I, J) API agrees with the point-ideal wrappers at point ideals."""
    for name, inc in inclusion_battery(QQ, ["pair2", "gb"]):
        g = inc.groupoid
        for x in g.units:
            for y in g.units:
                I = inc.point_ideal(y).basis
                J = inc.point_ideal(x).basis
                general = inc.isotropy_data_for_ideals(I, J)
                point = inc.isotropy_data(y, x)
                assert general.C == point.C, name
                assert general.H == point.H, name
                assert general.quotient.section_basis == point.quotient.section_basis
