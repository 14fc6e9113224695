"""Modules: validation, submodule lattices, irreducibility, annihilators,
restrictions, and germ spaces."""

import random
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupoidalg.errors import BudgetExceeded, TrivialModuleError
from groupoidalg.groupoid import pair_groupoid
from groupoidalg.induction import induce
from groupoidalg.isotropy import Inclusion
from groupoidalg.linalg import GF, QQ, Subspace, identity_matrix, mat_mul, rref, sparse_rows
from groupoidalg.ideals import left_ideals
from groupoidalg.modrep import (
    ENUMERATION_BUDGET,
    FdModule,
    ModuleViolation,
    _cyclic_closures,
    all_invariant_subspaces,
    all_submodules,
    annihilator,
    check_module,
    closure_under,
    direct_sum,
    disintegration_action,
    find_module_isomorphism,
    generated_submodule,
    germ_space,
    intertwines,
    is_irreducible,
    is_two_sided_ideal,
    isotropy_quotient_module,
    lattice_operations_agree,
    nonzero_germ_exists,
    normalized_vectors,
    regular_module,
    restriction,
    submodule_module,
)
from groupoidalg.steinberg import AlgebraPresentation, presentation_of_B
from groupoidalg.twist import Cocycle, coboundary

from conftest import (
    battery,
    idempotent_unit_modules,
    make_gb,
    make_z2,
    quaternion_fixture,
    twisted_battery,
)

GF2 = GF(2)
GF3 = GF(3)


def column_module(inclusion):
    """The natural column module of a pair-groupoid matrix algebra."""
    g = inclusion.groupoid
    n = len(g.units)
    f = inclusion.field
    mats = []
    for a in g.arrows():
        i, j = divmod(a, n)
        mat = [[f.zero()] * n for _ in range(n)]
        mat[i][j] = f.one()
        mats.append(tuple(tuple(r) for r in mat))
    return FdModule(inclusion.B, mats, "column")


# -- validation ---------------------------------------------------------------


def test_regular_module_checks_on_battery():
    for name, g, c in battery(QQ):
        pres = presentation_of_B(g, c)
        assert check_module(regular_module(pres)) is None, name


def test_column_module_checks():
    g = pair_groupoid(2)
    inc = Inclusion(g, Cocycle.trivial(g, QQ))
    assert check_module(column_module(inc)) is None


def test_gfp_entries_are_reduced_into_the_field():
    """The regular module of pair(2) over GF(3) with its zeros stored as 3
    is the regular module; over Q the entries held are kept as given, and
    the zeros of the dense view are the field's zero."""
    g = pair_groupoid(2)
    reg = regular_module(presentation_of_B(g, Cocycle.trivial(g, GF3)))
    threes = FdModule(reg.algebra, [[[a or 3 for a in r] for r in m] for m in reg.matrices])
    assert threes.matrices == reg.matrices and threes.entries == reg.entries
    assert check_module(threes) is None
    rational = FdModule(presentation_of_B(g, Cocycle.trivial(g, QQ)), threes.matrices)
    assert all(type(a) is int for m in rational.entries for r in m for _, a in r)
    assert all(type(a) is int if a else repr(a) == repr(QQ.zero())
               for m in rational.matrices for r in m for a in r)


def test_transposed_action_detected():
    g = pair_groupoid(2)
    inc = Inclusion(g, Cocycle.trivial(g, QQ))
    col = column_module(inc)
    transposed = [tuple(zip(*m)) for m in col.matrices]
    broken = FdModule(col.algebra, transposed)
    assert check_module(broken) is not None


@pytest.mark.parametrize("field", [QQ, GF2, GF(7)], ids=["Q", "GF2", "GF7"])
def test_unit_acting_as_a_proper_idempotent_fails_unitality(field):
    """The unit check and the span oracle both report unitality, with no
    witness, on B, on an isotropy algebra and on a twisted group algebra."""
    for name, g, c in battery(field, ["pair2", "gb", "swap"]):
        inc = Inclusion(g, c)
        for algebra in (inc.B, inc.isotropy_data(g.units[0], g.units[0]).presentation,
                        inc.identify_with_twisted_group_algebra(g.units[0]).group_presentation):
            assert check_module(regular_module(algebra)) is None, name
            for mod in idempotent_unit_modules(algebra):
                expected = ModuleViolation("unitality", ())
                assert dense_check_module(mod) == expected, (name, mod.name)
                assert check_module(mod) == expected, (name, mod.name)


@pytest.mark.parametrize("field", [QQ, GF2, GF(7)], ids=["Q", "GF2", "GF7"])
def test_presentation_without_unit_fails_unitality(field):
    """B's products with no unit stored: the regular module satisfies the
    module law and its actions span the carrier, yet it fails unitality,
    as does the zero module; with the unit both pass."""
    g = pair_groupoid(2)
    B = presentation_of_B(g, Cocycle.trivial(g, field))
    products = {(i, j): dict(terms) for i, row in enumerate(B.rows) for j, terms in row}
    bare = AlgebraPresentation(field, B.labels, products)
    assert bare.unit is None and bare.rows == B.rows
    for algebra, expected in [(B, None), (bare, ModuleViolation("unitality", ()))]:
        assert check_module(regular_module(algebra)) == expected
        assert check_module(FdModule(algebra, [()] * algebra.dim)) == expected
    assert dense_check_module(regular_module(bare)) is None


# -- submodules -----------------------------------------------------------------


def test_generated_by_zero_is_zero():
    g = make_z2()
    inc = Inclusion(g, Cocycle.trivial(g, GF3))
    reg = regular_module(inc.B)
    zero = (GF3.zero(),) * reg.dim
    assert generated_submodule(reg, [zero]).dim == 0


def test_z2_regular_submodules_over_gf3():
    g = make_z2()
    inc = Inclusion(g, Cocycle.trivial(g, GF3))
    reg = regular_module(inc.B)
    subs = all_submodules(reg)
    assert [s.dim for s in subs] == [0, 1, 1, 2]
    # the two lines are the eigenlines of the flip
    lines = [s for s in subs if s.dim == 1]
    vecs = {s.basis[0] for s in lines}
    assert vecs == {(GF3.one(), GF3.one()), (GF3.one(), GF3.of(2))}
    assert lattice_operations_agree(subs)


def test_matrix_algebra_column_module_irreducible_gf2():
    g = pair_groupoid(2)
    inc = Inclusion(g, Cocycle.trivial(g, GF2))
    col = column_module(inc)
    subs = all_submodules(col)
    assert [s.dim for s in subs] == [0, 2]
    verdict = is_irreducible(col)
    assert verdict.status == "irreducible" and verdict.certified


def test_budget_refusal():
    """Past ENUMERATION_BUDGET candidate vectors every GF(p) enumeration
    refuses: the regular module of M_4(F_3) has 3^16 > 2^20 of them."""
    g = pair_groupoid(4)
    inc = Inclusion(g, Cocycle.trivial(g, GF3))
    reg = regular_module(inc.B)
    assert reg.dim == 16 and 3**16 > ENUMERATION_BUDGET
    for enumeration in (all_submodules, is_irreducible):
        with pytest.raises(BudgetExceeded, match=r"3\^16 candidate vectors exceed the budget"):
            enumeration(reg)
    with pytest.raises(BudgetExceeded):
        left_ideals(inc)
    with pytest.raises(BudgetExceeded):
        qreg = regular_module(presentation_of_B(*battery(QQ, ["z2"])[0][1:]))
        all_submodules(qreg)


# -- irreducibility -------------------------------------------------------------


def test_one_dimensional_always_irreducible():
    g = pair_groupoid(1)
    inc = Inclusion(g, Cocycle.trivial(g, QQ))
    verdict = is_irreducible(regular_module(inc.B))
    assert verdict.status == "irreducible" and verdict.certified


def test_zero_module_raises():
    g = pair_groupoid(1)
    inc = Inclusion(g, Cocycle.trivial(g, QQ))
    zero = FdModule(inc.B, [()])
    with pytest.raises(TrivialModuleError):
        is_irreducible(zero)


def test_quaternion_regular_certified_over_Q():
    g, c = quaternion_fixture(QQ)
    inc = Inclusion(g, c)
    verdict = is_irreducible(regular_module(inc.B))
    assert verdict.status == "irreducible"
    assert verdict.certified
    assert verdict.method == "division-commutant"


def test_z2_regular_reducible_over_Q_with_eigenline():
    g = make_z2()
    inc = Inclusion(g, Cocycle.trivial(g, QQ))
    verdict = is_irreducible(regular_module(inc.B))
    assert verdict.status == "reducible"
    assert verdict.witness is not None
    line = verdict.witness
    assert line.dim == 1
    v = line.basis[0]
    assert v in (tuple([QQ.one(), QQ.one()]), tuple([QQ.one(), QQ.of(-1)]))


def test_matrix_column_module_over_Q():
    g = pair_groupoid(2)
    inc = Inclusion(g, Cocycle.trivial(g, QQ))
    verdict = is_irreducible(column_module(inc))
    assert verdict.status == "irreducible" and verdict.certified


def test_quaternion_gf3_splits_into_two_dimensional_irreducible():
    """Over GF(3) the quaternion algebra is the 2x2 matrix algebra."""
    g, c = quaternion_fixture(GF3)
    inc = Inclusion(g, c)
    reg = regular_module(inc.B)
    subs = all_submodules(reg)
    minimal = [s for s in subs if s.dim > 0 and not any(
        0 < t.dim < s.dim and s.contains_subspace(t) for t in subs
    )]
    assert all(s.dim == 2 for s in minimal)
    m2 = submodule_module(reg, minimal[0])
    verdict = is_irreducible(m2)
    assert verdict.status == "irreducible" and verdict.certified


# -- annihilators ----------------------------------------------------------------


def test_regular_module_is_faithful():
    for name, g, c in battery(GF3, ["pair2", "z2", "gb"]):
        pres = presentation_of_B(g, c)
        assert annihilator(regular_module(pres)).dim == 0, name


def test_trivial_z2_module_annihilator():
    g = make_z2()
    inc = Inclusion(g, Cocycle.trivial(g, QQ))
    one = ((QQ.one(),),)
    triv = FdModule(inc.B, [one, one], "trivial")
    ann = annihilator(triv)
    assert ann.dim == 1
    assert ann.basis[0] == (QQ.one(), QQ.of(-1))
    assert is_two_sided_ideal(inc.B, ann)


def test_one_sided_ideals_are_not_two_sided():
    """In M_2 = B(pair2) the deltas with source 0 span a left ideal and those
    with target 0 a right ideal; neither is two-sided."""
    g = pair_groupoid(2)
    inc = Inclusion(g, Cocycle.trivial(g, QQ))
    left = Subspace.deltas([a for a in g.arrows() if g.src[a] == 0], inc.m, QQ)
    right = Subspace.deltas([a for a in g.arrows() if g.tgt[a] == 0], inc.m, QQ)
    assert not is_two_sided_ideal(inc.B, left)
    assert not is_two_sided_ideal(inc.B, right)
    assert is_two_sided_ideal(inc.B, Subspace.zero(inc.m, QQ))
    assert is_two_sided_ideal(inc.B, Subspace.full(inc.m, QQ))


def test_direct_sum_annihilator_is_intersection():
    g = make_gb()
    inc = Inclusion(g, Cocycle.trivial(g, GF3))
    reg = regular_module(inc.B)
    subs = all_submodules(reg)
    pieces = [submodule_module(reg, s) for s in subs if 0 < s.dim < reg.dim][:2]
    if len(pieces) == 2:
        s = direct_sum(pieces[0], pieces[1])
        assert annihilator(s) == annihilator(pieces[0]).intersect(
            annihilator(pieces[1])
        )


# -- restriction -------------------------------------------------------------------


def test_restriction_of_bimodule_is_isotropy_algebra():
    """Res_x(M_x) is the regular module of the isotropy algebra."""
    from groupoidalg.cli import bimodule_as_left_module
    from groupoidalg.induction import imprimitivity_bimodule

    for name, g, c in battery(QQ, ["pair2", "z2", "gb", "v4"]):
        inc = Inclusion(g, c)
        for x in g.units:
            bim = imprimitivity_bimodule(inc, x)
            mx = bimodule_as_left_module(inc, bim)
            res = restriction(inc, mx, x)
            reg = regular_module(bim.data.presentation)
            assert res.module.dim == reg.dim, name
            assert find_module_isomorphism(res.module, reg) is not None, name


def test_column_module_restriction_dimension():
    g = pair_groupoid(2)
    inc = Inclusion(g, Cocycle.trivial(g, QQ))
    col = column_module(inc)
    for x in g.units:
        res = restriction(inc, col, x)
        assert res.subspace.dim == 1


def test_some_unit_has_nonzero_restriction():
    for name, g, c in battery(GF3, ["pair2", "z2", "gb", "v4", "du"]):
        inc = Inclusion(g, c)
        reg = regular_module(inc.B)
        dims = [restriction(inc, reg, x).subspace.dim for x in g.units]
        assert any(d > 0 for d in dims), name


# -- germ spaces ---------------------------------------------------------------------


def test_germ_dimension_of_regular_module():
    for name, g, c in battery(QQ, ["pair2", "pair3", "gb"]):
        inc = Inclusion(g, c)
        reg = regular_module(inc.B)
        for x in g.units:
            gs = germ_space(inc, reg, x)
            jb = inc.JB(x)
            # J_x B as left module generators: here J_x V = J_x B
            assert gs.quotient.dim == inc.m - jb.dim, name
            incoming = [a for a in g.arrows() if g.tgt[a] == x]
            assert gs.quotient.dim == len(incoming), name


def test_every_nonzero_vector_has_a_germ():
    rng = random.Random(47)
    for name, g, c in battery(QQ, ["pair2", "gb"]):
        inc = Inclusion(g, c)
        reg = regular_module(inc.B)
        for j in range(reg.dim):
            assert nonzero_germ_exists(inc, reg, reg.basis_vector(j)), name


def test_germ_action_well_defined():
    """Changing the representative inside J_x V does not move the image germ."""
    rng = random.Random(31)
    gb = make_gb()
    inc = Inclusion(gb, Cocycle.trivial(gb, QQ))
    reg = regular_module(inc.B)
    for x in gb.units:
        gx = germ_space(inc, reg, x)
        for y in gb.units:
            gy = germ_space(inc, reg, y)
            data = inc.isotropy_data(y, x)
            if data.dim == 0 or gx.quotient.dim == 0:
                continue
            for _ in range(10):
                gcoords = tuple(QQ.of(rng.randint(-2, 2)) for _ in range(data.dim))
                vcoords = tuple(
                    QQ.of(rng.randint(-2, 2)) for _ in range(gx.quotient.dim)
                )
                base = disintegration_action(
                    inc, reg, y, x, gcoords, gx, gy, vcoords
                )
                # perturb the lift of the germ by a kernel element
                lift = gx.quotient.inject(vcoords)
                if gx.quotient.kernel.dim:
                    kern_vec = gx.quotient.kernel.basis[0]
                    moved = tuple(
                        QQ.add(a, b) for a, b in zip(lift, kern_vec)
                    )
                    c_lift = data.quotient.inject(gcoords)
                    image = reg.apply(c_lift, moved)
                    assert gy.quotient.project(image) == base


def test_disintegration_associativity_sampled():
    rng = random.Random(63)
    gb = make_gb()
    inc = Inclusion(gb, Cocycle.trivial(gb, GF3))
    reg = regular_module(inc.B)
    germs = {x: germ_space(inc, reg, x) for x in gb.units}
    units = list(gb.units)
    for _ in range(60):
        z, y, x = (rng.choice(units) for _ in range(3))
        dzy = inc.isotropy_data(z, y)
        dyx = inc.isotropy_data(y, x)
        if 0 in (dzy.dim, dyx.dim, germs[x].quotient.dim):
            continue
        gc = tuple(GF3.of(rng.randrange(3)) for _ in range(dzy.dim))
        hc = tuple(GF3.of(rng.randrange(3)) for _ in range(dyx.dim))
        u = tuple(GF3.of(rng.randrange(3)) for _ in range(germs[x].quotient.dim))
        inner = disintegration_action(inc, reg, y, x, hc, germs[x], germs[y], u)
        lhs = disintegration_action(inc, reg, z, y, gc, germs[y], germs[z], inner)
        prod = inc.bimodule_product(z, y, x, gc, hc)
        rhs = disintegration_action(inc, reg, z, x, prod, germs[x], germs[z], u)
        assert lhs == rhs


def test_projection_acts_as_multiplication_with_point_indicator():
    """E(b) on a germ equals the class of b . 1_x . v, for every b and v."""
    for name, g, c in battery(QQ, ["pair2", "gb"]):
        inc = Inclusion(g, c)
        reg = regular_module(inc.B)
        for x in g.units:
            gs = germ_space(inc, reg, x)
            if gs.quotient.dim == 0:
                continue
            for b_arrow in g.arrows():
                bvec = inc.delta_vector(b_arrow)
                eb = inc.isotropy_projection(x, bvec)
                act = gs.module.action_of(eb)
                for j in range(reg.dim):
                    v = reg.basis_vector(j)
                    vx = reg.apply(inc.delta_vector(x), v)
                    direct = reg.apply(bvec, vx)
                    lhs = [
                        sum(
                            (QQ.mul(act[r][cc], gs.quotient.project(v)[cc])
                             for cc in range(gs.quotient.dim)),
                            QQ.zero(),
                        )
                        for r in range(gs.quotient.dim)
                    ]
                    assert tuple(lhs) == gs.quotient.project(direct), name


def test_isotropy_quotient_module_general_W():
    gb = make_gb()
    inc = Inclusion(gb, Cocycle.trivial(gb, GF3))
    reg = regular_module(inc.B)
    x = 0
    gs = germ_space(inc, reg, x)
    # W = preimage of a proper germ submodule
    subs = all_submodules(gs.module)
    proper = [s for s in subs if 0 < s.dim < gs.quotient.dim]
    for t in proper:
        lifted = [gs.quotient.inject(s) for s in t.basis]
        w_vectors = list(lifted) + list(gs.quotient.kernel.basis)
        W = Subspace.span(w_vectors, reg.dim, GF3)
        mod, quot = isotropy_quotient_module(inc, reg, x, W)
        assert mod.dim == reg.dim - W.dim
        assert check_module(mod) is None


def test_isotropy_quotient_module_refuses_unstable_or_small_W():
    g = make_z2()
    inc = Inclusion(g, Cocycle.trivial(g, QQ))
    reg = regular_module(inc.B)
    W = Subspace.deltas([0], reg.dim, QQ)  # the unit's line; t moves it
    with pytest.raises(ValueError, match="^" + re.escape("W is not stable under C(x, x)") + "$"):
        isotropy_quotient_module(inc, reg, 0, W)
    gb = make_gb()
    inc = Inclusion(gb, Cocycle.trivial(gb, GF3))
    reg = regular_module(inc.B)
    with pytest.raises(ValueError, match="^W does not contain J_x V$"):
        isotropy_quotient_module(inc, reg, 0, Subspace.zero(reg.dim, GF3))


# -- the module-map test --------------------------------------------------------


def test_intertwines_is_one_sided():
    """T a1 = a2 T does not give T a2 = a1 T: the two action lists keep
    their sides."""
    T = ((1, 1), (0, 1))
    a1 = sparse_rows(((1, 0), (0, 0)))
    a2 = sparse_rows(((1, 2), (0, 0)))  # T a1 T^-1 over GF(3)
    assert intertwines(T, [a1], [a2], GF3)
    assert not intertwines(T, [a2], [a1], GF3)
    assert intertwines(identity_matrix(2, GF3), [a1, a2], [a1, a2], GF3)
    assert intertwines(T, [], [], GF3)


def test_intertwines_between_carriers_of_different_dimension():
    """The diagonal line of the regular Z2-module carries the trivial
    character and not the sign character."""
    g = make_z2()
    inc = Inclusion(g, Cocycle.trivial(g, QQ))
    reg = regular_module(inc.B)
    one, minus = sparse_rows(((QQ.one(),),)), sparse_rows(((QQ.of(-1),),))
    diagonal = ((QQ.one(),), (QQ.one(),))
    assert intertwines(diagonal, [one, one], reg.entries, QQ)
    assert not intertwines(diagonal, [one, minus], reg.entries, QQ)


def test_intertwines_checks_every_pair():
    """One failing pair among several is enough, and the lists must pair up."""
    for name, g, c in battery(GF3, ["pair2", "gb"]):
        inc = Inclusion(g, c)
        reg = regular_module(inc.B)
        d = reg.dim
        assert intertwines(identity_matrix(d, GF3), reg.entries, reg.entries, GF3), name
        last = reg.matrices[-1]
        broken = reg.entries[:-1] + (sparse_rows(
            tuple(GF3.add(a, 1) if (r, col) == (0, 0) else a for col, a in enumerate(row))
            for r, row in enumerate(last)),)
        assert not intertwines(identity_matrix(d, GF3), reg.entries, broken, GF3), name
        with pytest.raises(ValueError):
            intertwines(identity_matrix(d, GF3), reg.entries, reg.entries[:-1], GF3)


# -- sparse action and validation against the dense oracles --------------------


def dense_action_of(module, vec):
    """The action matrix of vec, scanning every entry of every matrix."""
    f = module.field
    d = module.dim
    out = [[f.zero()] * d for _ in range(d)]
    for i, c in enumerate(vec):
        if c == 0:
            continue
        m = module.matrices[i]
        for r in range(d):
            for col in range(d):
                if m[r][col] != 0:
                    out[r][col] = f.add(out[r][col], f.mul(c, m[r][col]))
    return tuple(tuple(r) for r in out)


def dense_check_module(module):
    """One dense product and one dense action per ordered basis pair."""
    alg = module.algebra
    f = module.field
    for i in range(alg.dim):
        for j in range(alg.dim):
            lhs = mat_mul(module.matrices[i], module.matrices[j], f)
            if lhs != dense_action_of(module, alg.table[i][j]):
                return ModuleViolation("structure-constants", (i, j))
    vectors = [tuple(m[r][col] for r in range(module.dim))
               for m in module.matrices for col in range(module.dim)]
    if Subspace.span(vectors, module.dim, f).dim != module.dim:
        return ModuleViolation("unitality", ())
    return None


def random_scalar(rng, field):
    if field.p is not None:
        return rng.randrange(field.p)
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def random_unitriangular(d, f, rng):
    """A random unitriangular d x d matrix P and its inverse."""
    p = tuple(tuple(f.one() if r == c else random_scalar(rng, f) if c > r else f.zero()
                    for c in range(d)) for r in range(d))
    reduced, _ = rref([row + e for row, e in zip(p, identity_matrix(d, f))], f)
    return p, tuple(tuple(row[d:]) for row in reduced)


def conjugated(module, rng):
    """The module in a random unitriangular basis: P M P^-1 for each matrix."""
    f = module.field
    p, p_inv = random_unitriangular(module.dim, f, rng)
    mats = [mat_mul(mat_mul(p, m, f), p_inv, f) for m in module.matrices]
    return FdModule(module.algebra, mats, f"conjugated {module.name}")


def sparse_kernel_modules():
    """Valid modules over B, isotropy algebras and twisted group algebras
    of the twisted battery: regular, induced and column modules, and each
    regular B-module in a random basis, so that rows have several nonzero
    entries."""
    rng = random.Random(10)
    out = []
    for name, g, c in twisted_battery():
        inc = Inclusion(g, c)
        out.append((f"regular B {name}", regular_module(inc.B)))
        out.append((f"conjugated regular B {name}", conjugated(regular_module(inc.B), rng)))
        for x in g.units:
            pres = inc.isotropy_data(x, x).presentation
            iso_regular = regular_module(pres)
            out.append((f"regular B({x},{x}) {name}", iso_regular))
            out.append((f"induced from {x} {name}", induce(inc, x, iso_regular).module))
            group = inc.identify_with_twisted_group_algebra(x).group_presentation
            out.append((f"regular group({x}) {name}", regular_module(group)))
        if name in ("pair2", "pair3"):
            out.append((f"column {name}", column_module(inc)))
    # structure constants with denominators: b = 1/2 and b = 3 on two non-units
    g = pair_groupoid(3)
    rational = coboundary(g, QQ, {a: {1: Fraction(1, 2), 5: 3}.get(a, 1) for a in g.arrows()})
    inc = Inclusion(g, rational)
    assert any(c.denominator > 1 for row in inc.B.rows for _, terms in row for _, c in terms)
    out.append(("regular B pair3/rational", regular_module(inc.B)))
    out.append(("conjugated regular B pair3/rational", conjugated(regular_module(inc.B), rng)))
    return out


def test_sparse_action_of_matches_dense_oracle():
    rng = random.Random(11)
    for label, mod in sparse_kernel_modules():
        f = mod.field
        for i in range(mod.algebra.dim):
            e = mod.algebra.basis_vector(i)
            assert mod.action_of(e) == dense_action_of(mod, e) == mod.matrices[i], label
        for density in (0.3, 1.0):
            for _ in range(4):
                vec = tuple(random_scalar(rng, f) if rng.random() < density else f.zero()
                            for _ in range(mod.algebra.dim))
                assert mod.action_of(vec) == dense_action_of(mod, vec), label


def test_sparse_check_module_matches_dense_oracle():
    """Valid modules pass both checks; a random change of one matrix entry
    gives the same verdict and the same first witness."""
    rng = random.Random(12)
    witnesses = 0
    for label, mod in sparse_kernel_modules():
        assert check_module(mod) is None, label
        assert dense_check_module(mod) is None, label
        if mod.dim == 0:
            continue
        for _ in range(4):
            i = rng.randrange(mod.algebra.dim)
            r, col = rng.randrange(mod.dim), rng.randrange(mod.dim)
            mats = [list(map(list, m)) for m in mod.matrices]
            mats[i][r][col] = mod.field.add(mats[i][r][col], mod.field.of(rng.randint(1, 4)))
            broken = FdModule(mod.algebra, mats)
            expected = dense_check_module(broken)
            assert check_module(broken) == expected, label
            witnesses += expected is not None
    assert witnesses > 0


def dense_intertwines(T, acts1, acts2, field):
    """The module-map test the int kernel replaced: two dense products per pair."""
    return all(mat_mul(T, a1, field) == mat_mul(a2, T, field)
               for a1, a2 in zip(acts1, acts2, strict=True))


def sparse_intertwines(T, acts1, acts2, field):
    """``intertwines`` on dense action matrices, passed as their sparse rows."""
    return intertwines(T, [sparse_rows(a) for a in acts1], [sparse_rows(a) for a in acts2], field)


def bumped(matrix, rng, field):
    """The matrix with a random nonzero scalar added at one random entry."""
    rows = [list(row) for row in matrix]
    r, c = rng.randrange(len(rows)), rng.randrange(len(rows[0]))
    step = field.zero()
    while step == 0:
        step = random_scalar(rng, field)
    rows[r][c] = field.add(rows[r][c], step)
    return tuple(map(tuple, rows))


def intertwiner_modules():
    """The sparse-kernel modules (over Q and GF(7)) and regular modules of
    the battery over GF(2), GF(3) and GF(101)."""
    out = sparse_kernel_modules()
    for p in (2, 3, 101):
        for name, g, c in battery(GF(p), ["pair2", "pair3", "gb", "v4", "du"]):
            out.append((f"regular B {name}/GF{p}", regular_module(Inclusion(g, c).B)))
    return out


def test_sparse_intertwines_matches_dense_oracle():
    """True pairs (T = 1 on M, T = P from M to P M P^-1) pass both tests; a
    bumped entry of T or of one action gives the same verdict in both."""
    rng = random.Random(13)
    fields, refuted = set(), 0
    for label, mod in intertwiner_modules():
        f, d = mod.field, mod.dim
        fields.add(f)
        p, p_inv = random_unitriangular(d, f, rng)
        image = tuple(mat_mul(mat_mul(p, m, f), p_inv, f) for m in mod.matrices)
        for T, acts1, acts2 in [(identity_matrix(d, f), mod.matrices, mod.matrices),
                                (p, mod.matrices, image)]:
            assert sparse_intertwines(T, acts1, acts2, f), label
            assert dense_intertwines(T, acts1, acts2, f), label
            i = rng.randrange(len(acts2))
            broken = acts2[:i] + (bumped(acts2[i], rng, f),) + acts2[i + 1:]
            for case in [(bumped(T, rng, f), acts1, acts2), (T, acts1, broken)]:
                expected = dense_intertwines(*case, f)
                assert sparse_intertwines(*case, f) == expected, label
                refuted += not expected
    assert fields == {QQ, GF(2), GF(3), GF(7), GF(101)}
    assert refuted > 100


def test_intertwines_on_empty_carriers_and_lists():
    """A dim-0 carrier on either side and empty action lists hold in both
    tests; unpaired lists raise, unless a pair before the end fails."""
    g = pair_groupoid(2)
    for f in (QQ, GF(2), GF(101)):
        reg = regular_module(presentation_of_B(g, Cocycle.trivial(g, f)))
        zero = FdModule(reg.algebra, [()] * reg.algebra.dim)
        assert zero.dim == 0 and check_module(zero) is None
        into = tuple(() for _ in range(reg.dim))  # the map from 0 into reg
        for T, acts1, acts2 in [((), zero.matrices, zero.matrices),
                                (into, zero.matrices, reg.matrices),
                                ((), reg.matrices, zero.matrices),
                                (identity_matrix(reg.dim, f), [], [])]:
            assert sparse_intertwines(T, acts1, acts2, f)
            assert dense_intertwines(T, acts1, acts2, f)
        one = identity_matrix(reg.dim, f)
        for check in (sparse_intertwines, dense_intertwines):
            with pytest.raises(ValueError):
                check(one, reg.matrices, reg.matrices[:-1], f)
            # the first pair fails, so the lists are never found unpaired
            assert not check(one, reg.matrices[1:], reg.matrices[:-2], f)


def test_first_failing_pair_with_zero_product_is_found():
    """Adding 1 at entry (0, 2) of the action of E_00 on pair(2)'s regular
    module first breaks the pair (E_00, E_10), whose product is zero: the
    sparse check compares M_i M_j against zero there and skips no pair."""
    g = pair_groupoid(2)
    reg = regular_module(presentation_of_B(g, Cocycle.trivial(g, QQ)))
    mats = [list(map(list, m)) for m in reg.matrices]
    mats[0][0][2] += 1
    broken = FdModule(reg.algebra, mats)
    expected = ModuleViolation("structure-constants", (0, 2))
    assert all(c == 0 for c in reg.algebra.table[0][2])
    assert dense_check_module(broken) == expected
    assert check_module(broken) == expected


# -- the memoised closure pass against the per-seed scan it replaced ------------

# the largest dimension drawn per prime: keeps the all-pairs join oracle quick
ORACLE_DIMS = {2: 5, 3: 4, 5: 3, 7: 3}


def per_seed_closures(matrices, dim, field):
    """The scan the memoised pass replaced: one `closure_under` per seed."""
    return [(seed, closure_under(matrices, [seed], dim, field))
            for seed in normalized_vectors(dim, field.p)]


def all_pairs_lattice(matrices, dim, field):
    """The join the memoised pass replaced: zero and the per-seed closures,
    closed under sums by joining every new subspace with every one found."""
    zero = Subspace.zero(dim, field)
    found = {zero.basis: zero}
    for _, w in per_seed_closures(matrices, dim, field):
        found.setdefault(w.basis, w)
    worklist = list(found.values())
    while worklist:
        fresh = []
        items = list(found.values())
        for a in worklist:
            for b in items:
                s = a.add(b)
                if s.basis not in found:
                    found[s.basis] = s
                    fresh.append(s)
        worklist = fresh
    return sorted(found.values(), key=lambda s: (s.dim, s.basis))


@st.composite
def matrix_sets(draw, p):
    """(dim, matrices) over GF(p): 0-4 matrices, each zero, strictly upper
    triangular (so nilpotent), sparse or arbitrary."""
    dim = draw(st.integers(0, ORACLE_DIMS[p]))
    entry = st.integers(0, p - 1)
    kinds = {"zero": lambda r, c: st.just(0),
             "nilpotent": lambda r, c: entry if c > r else st.just(0),
             "sparse": lambda r, c: st.one_of(st.just(0), entry),
             "any": lambda r, c: entry}
    matrices = []
    for _ in range(draw(st.integers(0, 4))):
        kind = kinds[draw(st.sampled_from(sorted(kinds)))]
        matrices.append(tuple(tuple(draw(kind(r, c)) for c in range(dim))
                              for r in range(dim)))
    return dim, matrices


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_memoised_closures_match_per_seed_scan(p, data):
    """Every closure of the memoised pass, its lattice and the verdict of
    ``is_irreducible`` equal those of the per-seed scan and all-pairs join."""
    dim, matrices = data.draw(matrix_sets(p))
    field = GF(p)
    actions = [sparse_rows(m) for m in matrices]
    oracle = per_seed_closures(actions, dim, field)
    got = list(_cyclic_closures(actions, dim, field))
    assert [(seed, w.basis, w.pivots) for seed, w in got] == [
        (seed, w.basis, w.pivots) for seed, w in oracle]
    assert all_invariant_subspaces(actions, dim, field) == all_pairs_lattice(
        actions, dim, field)
    if dim > 1 and matrices:
        null_algebra = AlgebraPresentation(field, range(len(matrices)), {})
        verdict = is_irreducible(FdModule(null_algebra, matrices))
        witness = next((w for _, w in oracle if w.dim != dim), None)
        assert verdict.status == ("irreducible" if witness is None else "reducible")
        assert verdict.witness == witness


def multiply_is_two_sided_ideal(algebra, S):
    """The membership test ``is_two_sided_ideal`` replaced: every e v and
    v e built with `AlgebraPresentation.multiply`, which scans dense vectors."""
    es = [algebra.basis_vector(i) for i in range(algebra.dim)]
    return S.contains_all(p for v in S.basis for e in es
                          for p in (algebra.multiply(e, v), algebra.multiply(v, e)))


def test_two_sided_ideal_test_matches_multiply_oracle():
    """On every twisted battery algebra, left, right and two-sided ideals
    generated by basis elements and by random vectors, and random spans,
    get the same answer from ``B.rows`` as from dense products."""
    rng = random.Random(3)
    seen = {True: 0, False: 0}
    for name, g, c in twisted_battery():
        B = presentation_of_B(g, c)
        f, m = B.field, B.dim
        left, right = B.mult_rows()
        vectors = [B.basis_vector(i) for i in range(m)] + [
            tuple(f.of(rng.randint(-2, 2)) for _ in range(m)) for _ in range(3)]
        candidates = [Subspace.zero(m, f), Subspace.full(m, f)]
        for v in vectors:
            for acts in (left, right, left + right):
                candidates.append(closure_under(acts, [v], m, f))
        candidates += [Subspace.span(rng.sample(vectors, 2), m, f) for _ in range(4)]
        for S in candidates:
            expected = multiply_is_two_sided_ideal(B, S)
            assert is_two_sided_ideal(B, S) == expected, name
            seen[expected] += 1
    assert min(seen.values()) > 0


# -- sparse rows are all a module holds ------------------------------------------

FIVE_FIELDS = [QQ, GF2, GF3, GF(7), GF(101)]
FIVE_IDS = ["Q", "GF2", "GF3", "GF7", "GF101"]


@st.composite
def dense_actions(draw, field):
    """(algebra, dense matrices): 0-3 matrices over an algebra with zero
    products, each d x d for one d in 0..4, zeros being ``field.zero()``.
    Over Q a nonzero entry is an int or a `Fraction`; over GF(p) an entry is
    drawn from [0, 3p), so zeros also come as p and 2p."""
    d, n = draw(st.integers(0, 4)), draw(st.integers(0, 3))
    if field.p is None:
        nonzero = st.one_of(st.integers(-3, 3).filter(bool),
                            st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(2, 3)))
        entry = st.one_of(st.just(field.zero()), nonzero)
    else:
        entry = st.integers(0, 3 * field.p - 1)
    matrices = [tuple(tuple(draw(entry) for _ in range(d)) for _ in range(d)) for _ in range(n)]
    return AlgebraPresentation(field, range(n), {}), matrices


def stored_matrices(field, matrices):
    """The dense matrices as the constructor kept them before it held sparse
    rows: reduced into [0, p) over GF(p), kept as given over Q."""
    p = field.p
    return tuple(tuple(tuple(r) if p is None else tuple(a % p for a in r) for r in m)
                 for m in matrices)


@pytest.mark.parametrize("field", FIVE_FIELDS, ids=FIVE_IDS)
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_dense_and_sparse_constructions_agree(field, data):
    """A module built from dense matrices and one built from their sparse
    rows hold equal entries, of the same types, and have byte-identical
    dense views, equal to the matrices the dense constructor used to keep."""
    algebra, matrices = data.draw(dense_actions(field))
    dense = FdModule(algebra, matrices)
    # over GF(p) the rows may hold unreduced values: only those that are 0 mod p are left out
    p = field.p
    rows = [tuple(tuple((c, a) for c, a in enumerate(r) if a and (p is None or a % p)) for r in m)
            for m in matrices]
    sparse = FdModule.from_entries(algebra, rows)
    assert dense.entries == sparse.entries
    assert repr(dense.entries) == repr(sparse.entries)
    assert dense.dim == sparse.dim == (len(matrices[0]) if matrices else 0)
    assert repr(dense.matrices) == repr(sparse.matrices) == repr(stored_matrices(field, matrices))
    assert dense.entries == tuple(sparse_rows(m) for m in stored_matrices(field, matrices))


@pytest.mark.parametrize("field", FIVE_FIELDS, ids=FIVE_IDS)
def test_malformed_rows_raise(field):
    """``from_entries`` refuses a column out of range or out of order, a
    stored zero, a matrix with the wrong number of rows and the wrong number
    of matrices; the dense constructor refuses the last and non-square ones."""
    algebra = AlgebraPresentation(field, ["a", "b"], {})
    one, zero = field.one(), field.zero()
    good = (((0, one),), ((0, one), (1, one)))
    FdModule.from_entries(algebra, [good, good])
    stored_zeros = [zero] if field.p is None else [zero, field.p, 2 * field.p]
    bad_rows = [
        ("^column 2 out of order or out of range in dim 2$", ((2, one),)),
        ("^column -1 out of order or out of range in dim 2$", ((-1, one),)),
        ("^column 0 out of order or out of range in dim 2$", ((1, one), (0, one))),
        ("^column 1 out of order or out of range in dim 2$", ((1, one), (1, one))),
    ] + [("^stored zero at column 1$", ((0, one), (1, z))) for z in stored_zeros]
    for message, row in bad_rows:
        with pytest.raises(ValueError, match=message):
            FdModule.from_entries(algebra, [good, (good[0], row)])
    with pytest.raises(ValueError, match="^action matrices must be square of equal size$"):
        FdModule.from_entries(algebra, [good, good + ((),)])
    for count in (1, 3):
        with pytest.raises(ValueError,
                           match="^need one action matrix per algebra basis element$"):
            FdModule.from_entries(algebra, [good] * count)
        with pytest.raises(ValueError,
                           match="^need one action matrix per algebra basis element$"):
            FdModule(algebra, [identity_matrix(2, field)] * count)
    with pytest.raises(ValueError, match="^action matrices must be square of equal size$"):
        FdModule(algebra, [identity_matrix(2, field), ((one, zero),)])


def test_regular_module_of_pair20_over_gf2_stays_sparse():
    """The regular module of M_20 over GF(2) (dim 400) holds its 20^3
    nonzero entries, not 400^3 dense ones, and builds and passes
    ``check_module`` with a tracemalloc peak under 200 MB."""
    g = pair_groupoid(20)
    B = presentation_of_B(g, Cocycle.trivial(g, GF2))
    tracemalloc.start()
    try:
        reg = regular_module(B)
        violation = check_module(reg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert reg.dim == 400 and violation is None
    assert sum(len(row) for act in reg.entries for row in act) == 20**3
    assert peak < 200 * 2**20
