"""Imprimitivity bimodules, induction, roundtrips, and lattice transfer."""

import dataclasses
import inspect
import random
import re
from fractions import Fraction

import pytest

from groupoidalg import induction
from groupoidalg.errors import TheoremViolation
from groupoidalg.groupoid import pair_groupoid
from groupoidalg.induction import (
    ImprimitivityBimodule,
    imprimitivity_bimodule,
    induce,
    submodule_transfer,
    verify_germ_induction_equivalence,
    verify_ind_res_embedding,
    verify_res_ind_roundtrip,
)
from groupoidalg.isotropy import Inclusion
from groupoidalg.linalg import (
    GF,
    QQ,
    QuotientSpace,
    Subspace,
    dense_rows,
    identity_matrix,
    mat_mul,
    mat_vec,
    operator_matrix,
    right_kernel,
    sparse_rows,
)
from groupoidalg.modrep import (
    FdModule,
    all_submodules,
    direct_sum,
    germ_space,
    is_irreducible,
    quotient_module,
    regular_module,
    restriction,
    submodule_module,
)
from groupoidalg.steinberg import convolve, delta, partial_inverse, unit_indicator
from groupoidalg.twist import Cocycle

from conftest import (
    battery,
    make_gb,
    make_v4,
    make_z2,
    oracle_battery,
    quaternion_fixture,
    twisted_battery,
)

GF3 = GF(3)


def module_battery(inclusion, x):
    """Regular module, the irreducibles found inside it, and one decomposable."""
    data = inclusion.isotropy_data(x, x)
    reg = regular_module(data.presentation)
    out = [reg]
    if inclusion.field.p is not None:
        subs = all_submodules(reg)
        minimal = [
            s
            for s in subs
            if s.dim > 0
            and not any(0 < t.dim < s.dim and s.contains_subspace(t) for t in subs)
        ]
        for s in minimal:
            out.append(submodule_module(reg, s, name=f"min{s.dim}"))
    out.append(direct_sum(reg, reg, name="reg+reg"))
    return out


# -- the bimodule ------------------------------------------------------------------


def dense_bimodule(inc, x):
    """Oracle: M_x = B / BJ_x with its operators built column by column,
    each column a dense product in B projected onto M_x by elimination.

    Returns the quotient, the chosen sections and (left action, right
    action, mu, nu, pi)."""
    f, g = inc.field, inc.groupoid
    quotient = QuotientSpace(Subspace.full(inc.m, f), inc.BJ(x))
    data = inc.isotropy_data(x, x)
    section, iso_section = quotient.section_basis, data.quotient.section_basis
    chosen = {
        y: unit_indicator(g, inc.cocycle, [x]) if y == x
        else delta(g, inc.cocycle, min(g.hom_set(y, x)))
        for y in g.orbit(x)
    }
    left = [
        operator_matrix(lambda s: quotient.project(inc.multiply(e, s)), section)
        for e in identity_matrix(inc.m, f)
    ]
    right = [
        operator_matrix(lambda s: quotient.project(inc.multiply(s, rep)), section)
        for rep in iso_section
    ]
    mu = operator_matrix(quotient.project, iso_section)
    emat = inc.projection_matrix(x, x)
    nu = operator_matrix(lambda s: mat_vec(emat, s, f), section)
    return quotient, chosen, (left, right, mu, nu, mat_mul(mu, nu, f))


def dense_free_coordinates(inc, quotient, chosen, nu, xi):
    """Oracle: block_y = nu(n_y* . xi) by a dense product in B."""
    blocks = {}
    for y, n in chosen.items():
        vec = inc.multiply(partial_inverse(n).to_vector(), quotient.inject(xi))
        blocks[y] = mat_vec(nu, quotient.project(vec), inc.field)
    return blocks


def test_bimodule_matches_dense_oracle():
    """Actions, mu, nu, pi, the chosen sections and the free coordinates
    read off B's product index agree with the dense construction at every
    unit of the twisted battery (the quaternion twist and the GF(7)
    coboundary with value 2 included)."""
    rng = random.Random(8)
    names = []
    for name, g, c in twisted_battery():
        inc = Inclusion(g, c)
        f = inc.field
        for x in g.units:
            bim = imprimitivity_bimodule(inc, x)
            quotient, chosen, operators = dense_bimodule(inc, x)
            assert bim.quotient.section == quotient.section, (name, x)
            assert bim.chosen == chosen, (name, x)
            d = quotient.dim
            # the actions are sparse rows: the oracle's nonzero entries, and
            # their dense view is the oracle itself
            assert (bim.left_action, bim.right_action) == tuple(
                [sparse_rows(m) for m in side] for side in operators[:2]), (name, x)
            ours = ([dense_rows(m, d, f) for m in bim.left_action],
                    [dense_rows(m, d, f) for m in bim.right_action], bim.mu, bim.nu, bim.pi)
            assert ours == operators, (name, x)
            assert repr(ours) == repr(operators), (name, x)
            if f.p is None:
                mixed = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(d))
            else:
                mixed = tuple(rng.randrange(f.p) for _ in range(d))
            for xi in list(identity_matrix(d, f)) + [mixed]:
                expected = dense_free_coordinates(inc, quotient, chosen, operators[3], xi)
                assert bim.free_coordinates(xi) == expected, (name, x)
        names.append(name)
    assert "v4quat" in names and "pair3/GF7" in names


def test_pair_groupoid_bimodule_dimensions():
    for n in (2, 3):
        g = pair_groupoid(n)
        inc = Inclusion(g, Cocycle.trivial(g, QQ))
        for x in g.units:
            bim = imprimitivity_bimodule(inc, x)
            assert bim.quotient.dim == n
            assert bim.data.quotient.dim == 1
            assert len(bim.orbit) == n


def test_group_fixture_bimodule_is_whole_algebra():
    g = make_z2()
    inc = Inclusion(g, Cocycle.trivial(g, QQ))
    x = g.units[0]
    bim = imprimitivity_bimodule(inc, x)
    assert bim.quotient.dim == inc.m
    assert bim.orbit == (x,)
    # zeta_x is the class of the unit indicator
    assert bim.zeta[x] == bim.quotient.project(inc.delta_vector(x))


def test_gb_bimodule_at_twisted_unit():
    gb = make_gb()
    inc = Inclusion(gb, Cocycle.trivial(gb, QQ))
    bim = imprimitivity_bimodule(inc, 0)
    assert bim.orbit == (0,)
    assert bim.quotient.dim == 2
    assert bim.data.quotient.dim == 2


def test_freeness_across_battery():
    for name, g, c in battery(QQ):
        inc = Inclusion(g, c)
        for x in g.units:
            bim = imprimitivity_bimodule(inc, x)
            assert bim.quotient.dim == len(bim.orbit) * bim.data.quotient.dim, name


def test_nu_formula_on_arrow_classes():
    for name, g, c in battery(QQ, ["pair2", "gb", "v4"]):
        inc = Inclusion(g, c)
        for x in g.units:
            bim = imprimitivity_bimodule(inc, x)
            for gamma in g.arrows():
                cls = bim.quotient.project(inc.delta_vector(gamma))
                nu = bim.nu_of(cls)
                if g.src[gamma] == x and g.tgt[gamma] == x:
                    expected = inc.isotropy_data(x, x).quotient.project(
                        inc.delta_vector(gamma)
                    )
                    assert nu == expected, name
                else:
                    assert all(v == 0 for v in nu), name


def test_nu_matches_isotropy_projection():
    """nu(b + BJ_x) recovers E(x,x)(b) on the whole basis."""
    for name, g, c in battery(QQ, ["pair2", "pair3", "gb"]):
        inc = Inclusion(g, c)
        for x in g.units:
            bim = imprimitivity_bimodule(inc, x)
            for gamma in g.arrows():
                vec = inc.delta_vector(gamma)
                assert bim.nu_of(bim.quotient.project(vec)) == (
                    inc.isotropy_projection(x, vec)
                ), name


def test_pi_equals_left_multiplication_by_point_indicator():
    """The unique A-linear idempotent with the right range: both constructions agree."""
    for name, g, c in battery(QQ, ["pair2", "gb", "swap"]):
        inc = Inclusion(g, c)
        for x in g.units:
            bim = imprimitivity_bimodule(inc, x)
            assert bim.pi == dense_rows(bim.left_action[x], bim.quotient.dim, QQ), name


def test_unit_function_scales_normalizer_classes():
    """a . (n + BJ_x) = <a, beta_n(x)> (n + BJ_x) for singleton sections."""
    for name, g, c in battery(QQ, ["pair2", "pair3", "gb"]):
        inc = Inclusion(g, c)
        for x in g.units:
            bim = imprimitivity_bimodule(inc, x)
            for gamma in g.arrows():
                if g.src[gamma] != x:
                    continue
                cls = bim.quotient.project(inc.delta_vector(gamma))
                target = g.tgt[gamma]
                for u in g.units:
                    image = mat_vec(dense_rows(bim.left_action[u], len(cls), QQ), cls, QQ)
                    if u == target:
                        assert image == cls, name
                    else:
                        assert all(v == 0 for v in image), name


def test_component_equals_zeta_times_isotropy():
    """span{classes of hom-set sections} = zeta_y . B(x,x) for each orbit point."""
    for name, g, c in battery(QQ, ["pair2", "gb", "swap", "v4"]):
        inc = Inclusion(g, c)
        for x in g.units:
            bim = imprimitivity_bimodule(inc, x)
            k = bim.data.quotient.dim
            for y in bim.orbit:
                component = Subspace.span(
                    [
                        bim.quotient.project(inc.delta_vector(a))
                        for a in g.hom_set(y, x)
                    ],
                    bim.quotient.dim,
                    QQ,
                )
                image = Subspace.span(
                    [
                        bim.right_apply(bim.zeta[y], bim.data.presentation.basis_vector(j))
                        for j in range(k)
                    ],
                    bim.quotient.dim,
                    QQ,
                )
                assert component == image, name


# -- induction ------------------------------------------------------------------------


def test_induced_column_module():
    for n in (2, 3):
        g = pair_groupoid(n)
        inc = Inclusion(g, Cocycle.trivial(g, GF3))
        x = g.units[0]
        data = inc.isotropy_data(x, x)
        one_dim = regular_module(data.presentation)
        ind = induce(inc, x, one_dim)
        assert ind.module.dim == n
        verdict = is_irreducible(ind.module)
        assert verdict.status == "irreducible" and verdict.certified


def test_group_fixture_induction_is_identity():
    g = make_z2()
    inc = Inclusion(g, Cocycle.trivial(g, QQ))
    x = g.units[0]
    reg = regular_module(inc.isotropy_data(x, x).presentation)
    ind = induce(inc, x, reg)
    assert ind.module.dim == reg.dim
    # single orbit point: the action is the regular action itself
    for i in range(inc.m):
        assert ind.module.matrices[i] == reg.action_of(
            inc.isotropy_projection(x, inc.delta_vector(i))
        )


def test_quaternion_gf3_induces_irreducible_back():
    g, c = quaternion_fixture(GF3)
    inc = Inclusion(g, c)
    x = g.units[0]
    reg = regular_module(inc.isotropy_data(x, x).presentation)
    subs = all_submodules(reg)
    minimal = [s for s in subs if 0 < s.dim < reg.dim and not any(
        0 < t.dim < s.dim and s.contains_subspace(t) for t in subs
    )]
    assert minimal and all(s.dim == 2 for s in minimal)
    W = submodule_module(reg, minimal[0])
    ind = induce(inc, x, W)
    assert ind.module.dim == 2
    verdict = is_irreducible(ind.module)
    assert verdict.status == "irreducible"


def test_induction_matches_concrete_convolution_model():
    """The induced action of the regular isotropy module is the convolution
    action on the sections supported on arrows out of x, through one fixed
    change of basis valid for every algebra generator at once."""
    import itertools

    for name, g, c in battery(QQ, ["pair2", "gb", "v4"]):
        inc = Inclusion(g, c)
        for x in g.units:
            gx = sorted(a for a in g.arrows() if g.src[a] == x)
            data = inc.isotropy_data(x, x)
            reg = regular_module(data.presentation)
            ind = induce(inc, x, reg)
            assert ind.module.dim == len(gx)
            # model action of delta_gamma on basis delta_eta, eta in G_x:
            # delta_gamma * delta_eta = w(gamma, eta) delta_(gamma eta)
            models = []
            for gamma in g.arrows():
                model = [[QQ.zero()] * len(gx) for _ in range(len(gx))]
                for col, eta in enumerate(gx):
                    if g.src[gamma] != g.tgt[eta]:
                        continue
                    prod = convolve(delta(g, c, gamma), delta(g, c, eta))
                    for a, v in prod.coeffs.items():
                        model[gx.index(a)][col] = v
                models.append(tuple(tuple(r) for r in model))
            n = len(gx)
            found = False
            for perm in itertools.permutations(range(n)):
                if all(
                    ind.module.matrices[gamma][r][cc]
                    == models[gamma][perm[r]][perm[cc]]
                    for gamma in g.arrows()
                    for r in range(n)
                    for cc in range(n)
                ):
                    found = True
                    break
            assert found, name


def test_roundtrip_battery():
    for name, g, c in battery(GF3):
        inc = Inclusion(g, c)
        for x in g.units:
            for V in module_battery(inc, x):
                cert = verify_res_ind_roundtrip(inc, x, V)
                assert cert.restriction_dim == V.dim, name


def test_roundtrip_regular_over_Q():
    for name, g, c in battery(QQ, ["pair2", "gb", "v4"]):
        inc = Inclusion(g, c)
        for x in g.units:
            reg = regular_module(inc.isotropy_data(x, x).presentation)
            verify_res_ind_roundtrip(inc, x, reg)


def test_restriction_outside_orbit_is_computable():
    """Restriction of an induced module at units off the orbit: computed, no claim."""
    gb = make_gb()
    inc = Inclusion(gb, Cocycle.trivial(gb, QQ))
    x = 0
    reg = regular_module(inc.isotropy_data(x, x).presentation)
    ind = induce(inc, x, reg)
    for y in gb.units:
        res = restriction(inc, ind.module, y)
        if y == x:
            assert res.subspace.dim == reg.dim
        else:
            assert res.subspace.dim == 0


# -- embedding -------------------------------------------------------------------------


def test_embedding_column_module_isomorphism():
    g = pair_groupoid(2)
    inc = Inclusion(g, Cocycle.trivial(g, QQ))
    from test_modrep import column_module

    col = column_module(inc)
    for x in g.units:
        cert = verify_ind_res_embedding(inc, col, x)
        assert cert.onto
        assert cert.induced_dim == col.dim


def test_embedding_regular_module_image_dims():
    """For V = B the map is injective; the image is B . (J_x-killed part)."""
    for name, g, c in battery(QQ, ["pair2", "gb", "du"]):
        inc = Inclusion(g, c)
        regB = regular_module(inc.B)
        for x in g.units:
            cert = verify_ind_res_embedding(inc, regB, x)
            if cert.induced_dim == 0:
                continue
            assert cert.image_dim == cert.induced_dim, name
            # not onto when some unit outside the orbit carries arrows
            orbit = set(g.orbit(x))
            outside = [a for a in g.arrows() if g.src[a] not in orbit]
            assert cert.onto == (not outside), name


def test_cor_10_2_on_gf3_irreducibles():
    """Irreducible V with nonzero restriction: rho onto, restriction irreducible."""
    for name, g, c in battery(GF3, ["pair2", "pair3", "gb", "v4"]):
        inc = Inclusion(g, c)
        regB = regular_module(inc.B)
        subs = all_submodules(regB)
        minimal = [
            s
            for s in subs
            if s.dim > 0
            and not any(0 < t.dim < s.dim and s.contains_subspace(t) for t in subs)
        ]
        for s in minimal:
            V = submodule_module(regB, s)
            assert is_irreducible(V).status == "irreducible"
            for x in g.units:
                res = restriction(inc, V, x)
                if res.subspace.dim == 0:
                    continue
                cert = verify_ind_res_embedding(inc, V, x)
                assert cert.onto, name
                assert is_irreducible(res.module).status == "irreducible", name


# -- lattice transfer --------------------------------------------------------------------


def test_submodule_transfer_trivial_cases():
    g = pair_groupoid(2)
    inc = Inclusion(g, Cocycle.trivial(g, GF3))
    x = g.units[0]
    V = regular_module(inc.isotropy_data(x, x).presentation)
    ind = induce(inc, x, V)
    zero = Subspace.zero(ind.module.dim, GF3)
    full = Subspace.full(ind.module.dim, GF3)
    assert submodule_transfer(inc, ind, zero).dim == 0
    assert submodule_transfer(inc, ind, full).dim == V.dim


def test_lattice_transfer_z2_at_gb():
    """B(0,0) of the bundle is the Z2 group algebra; four submodules map over."""
    gb = make_gb()
    inc = Inclusion(gb, Cocycle.trivial(gb, GF3))
    x = 0
    V = regular_module(inc.isotropy_data(x, x).presentation)
    assert V.dim == 2
    ind = induce(inc, x, V)
    v_subs = all_submodules(V)
    z_subs = all_submodules(ind.module)
    assert len(v_subs) == len(z_subs) == 4
    pulled = []
    for Z in z_subs:
        W = submodule_transfer(inc, ind, Z)
        pulled.append(W.basis)
    assert sorted(pulled) == sorted(s.basis for s in v_subs)
    # order preservation
    for Z1 in z_subs:
        for Z2 in z_subs:
            W1 = submodule_transfer(inc, ind, Z1)
            W2 = submodule_transfer(inc, ind, Z2)
            assert Z2.contains_subspace(Z1) == W2.contains_subspace(W1)


def test_irreducibility_transfers():
    for name, g, c in battery(GF3, ["pair2", "gb", "v4"]):
        inc = Inclusion(g, c)
        for x in g.units:
            for V in module_battery(inc, x):
                if V.dim == 0:
                    continue
                ind = induce(inc, x, V)
                assert (
                    is_irreducible(V).status == is_irreducible(ind.module).status
                ), name


def test_exactness_dimension_bookkeeping():
    """dims add across 0 -> W -> V -> V/W -> 0 after induction."""
    gb = make_gb()
    inc = Inclusion(gb, Cocycle.trivial(gb, GF3))
    x = 0
    V = regular_module(inc.isotropy_data(x, x).presentation)
    subs = all_submodules(V)
    for s in subs:
        if not (0 < s.dim < V.dim):
            continue
        W = submodule_module(V, s)
        Q, _ = quotient_module(V, s)
        dims = [induce(inc, x, M).module.dim for M in (W, V, Q)]
        assert dims[0] + dims[2] == dims[1]


def test_bimodule_identifies_with_source_fiber_sections():
    """M_x matches the sections supported on arrows out of x, as a bimodule.

    The restriction of a representative to the source fiber G_x is
    well defined on classes (BJ_x is exactly the functions vanishing
    there), bijective, intertwines the left convolution action, and is
    right-linear over the isotropy algebra acting by fiberwise
    convolution against isotropy arrows.
    """
    for name, g, c in battery(QQ, ["pair2", "gb", "v4", "swap"]):
        inc = Inclusion(g, c)
        for x in g.units:
            bim = imprimitivity_bimodule(inc, x)
            gx = sorted(a for a in g.arrows() if g.src[a] == x)
            iso = g.isotropy_group(x)

            def restrict(xi):
                rep = bim.quotient.inject(xi)
                return tuple(rep[a] for a in gx)

            # well-definedness: the kernel vanishes on the fiber
            for row in bim.quotient.kernel.basis:
                assert all(row[a] == 0 for a in gx), name
            # bijectivity
            images = [restrict(bim.quotient.project(inc.delta_vector(a))) for a in gx]
            assert Subspace.span(images, len(gx), QQ).dim == len(gx) == bim.quotient.dim
            # left action matches fiber convolution
            for gamma in g.arrows():
                for j, s in enumerate(bim.quotient.section_basis):
                    xi = tuple(
                        QQ.one() if i == j else QQ.zero()
                        for i in range(bim.quotient.dim)
                    )
                    lhs = restrict(mat_vec(dense_rows(bim.left_action[gamma], len(xi), QQ), xi, QQ))
                    eta = restrict(xi)
                    model = [QQ.zero()] * len(gx)
                    for col, beta in enumerate(gx):
                        if g.src[gamma] != g.tgt[beta]:
                            continue
                        model[gx.index(g.comp[gamma][beta])] = QQ.add(
                            model[gx.index(g.comp[gamma][beta])],
                            QQ.mul(c(gamma, beta), eta[col]),
                        )
                    assert lhs == tuple(model), name
            # right action matches convolution against isotropy arrows
            data = bim.data
            cert = inc.identify_with_twisted_group_algebra(x)
            for k in range(data.quotient.dim):
                hvec = data.quotient.section_basis[k]
                hfun = {m: hvec[m] for m in iso}
                for j in range(bim.quotient.dim):
                    xi = tuple(
                        QQ.one() if i == j else QQ.zero()
                        for i in range(bim.quotient.dim)
                    )
                    lhs = restrict(mat_vec(dense_rows(bim.right_action[k], len(xi), QQ), xi, QQ))
                    eta = restrict(xi)
                    model = [QQ.zero()] * len(gx)
                    for col, alpha in enumerate(gx):
                        for beta in iso:
                            if g.src[alpha] != g.tgt[beta]:
                                continue
                            idx = gx.index(g.comp[alpha][beta])
                            model[idx] = QQ.add(
                                model[idx],
                                QQ.mul(c(alpha, beta), QQ.mul(eta[col], hfun[beta])),
                            )
                    assert lhs == tuple(model), name


def test_germ_induction_equivalence_along_orbit():
    for name, g, c in battery(QQ, ["pair2", "pair3", "swap"]):
        inc = Inclusion(g, c)
        regB = regular_module(inc.B)
        x = g.units[0]
        for y in g.orbit(x):
            if y == x:
                continue
            cert = verify_germ_induction_equivalence(inc, regB, x, y)
            assert cert.dim > 0, name


# -- every isotropy class is read off the bimodule: convolution oracles ------------------


def oracle_sections(inc, x):
    """n_y for y in the orbit of x: delta_x at x, else the least arrow x -> y."""
    g = inc.groupoid
    return {y: delta(g, inc.cocycle, x if y == x else min(g.hom_set(y, x)))
            for y in g.orbit(x)}


def oracle_induce(inc, x, V):
    """Oracle: the matrices of Ind_x V by element convolution, block (z, y)
    of gamma: y -> z being V's action of E(x,x)(n_z* delta_gamma n_y)."""
    f, g = inc.field, inc.groupoid
    chosen = oracle_sections(inc, x)
    k = V.dim
    base = {y: i * k for i, y in enumerate(chosen)}
    dim = k * len(chosen)
    emat = inc.projection_matrix(x, x)
    mats = []
    for gamma in g.arrows():
        mat = [[f.zero()] * dim for _ in range(dim)]
        y, z = g.src[gamma], g.tgt[gamma]
        if y in base:
            u = convolve(partial_inverse(chosen[z]),
                         convolve(delta(g, inc.cocycle, gamma), chosen[y]))
            act = V.action_of(mat_vec(emat, u.to_vector(), f))
            for r in range(k):
                for c in range(k):
                    mat[base[z] + r][base[y] + c] = act[r][c]
        mats.append(tuple(map(tuple, mat)))
    return tuple(mats)


def oracle_germ_intertwiner(inc, V, gx, gy, ind_x, ind_y):
    """Oracle: T: Ind_x(V[x]) -> Ind_y(V[y]) by element convolution, block z
    acting by the class E(y,y)(n_z(y)* n_z(x) n*) after psi: v -> n v."""
    f, g = inc.field, inc.groupoid
    x, y = gx.x, gy.x
    n = delta(g, inc.cocycle, min(g.hom_set(y, x)))
    emat_y = inc.projection_matrix(y, y)
    psi = operator_matrix(lambda s: gy.quotient.project(V.apply(n.to_vector(), s)),
                          gx.quotient.section_basis)
    chosen_x, chosen_y = oracle_sections(inc, x), oracle_sections(inc, y)
    blocks = {}
    for z in ind_x.orbit:
        u = convolve(partial_inverse(chosen_y[z]), convolve(chosen_x[z], partial_inverse(n)))
        blocks[z] = mat_mul(gy.module.action_of(mat_vec(emat_y, u.to_vector(), f)), psi, f)
    return operator_matrix(
        lambda ze: ind_y.embed(ze[0], mat_vec(blocks[ze[0]], ze[1], f)),
        [(z, e) for z in ind_x.orbit for e in identity_matrix(gx.quotient.dim, f)],
    )


def oracle_restriction(inc, V, x):
    """Oracle: J_x's unit deltas and B(x,x)'s section deltas act through
    ``action_of`` on dense vectors.  Returns (subspace, action matrices)."""
    f = V.field
    units = inc.point_ideal(x).basis.basis
    rows = [row for a in units for row in V.action_of(a)]
    sub = right_kernel(rows, V.dim, f)
    acts = [V.action_of(s) for s in inc.isotropy_data(x, x).quotient.section_basis]
    mats = [operator_matrix(lambda v, a=a: sub.membership(mat_vec(a, v, f)), sub.basis)
            for a in acts]
    return sub, mats


def oracle_germ_space(inc, V, x):
    """Oracle: V / J_x V with J_x's deltas acting through ``action_of``.
    Returns (quotient, action matrices)."""
    f = V.field
    gens = [col for a in inc.point_ideal(x).basis.basis for col in zip(*V.action_of(a))]
    quot = QuotientSpace(Subspace.full(V.dim, f), Subspace.span(gens, V.dim, f))
    acts = [V.action_of(s) for s in inc.isotropy_data(x, x).quotient.section_basis]
    mats = [operator_matrix(lambda v, a=a: quot.project(mat_vec(a, v, f)), quot.section_basis)
            for a in acts]
    return quot, mats


def with_int_entries(module):
    """The same module with every integral rational entry stored as an int."""
    mats = [[[int(a) if isinstance(a, Fraction) and a.denominator == 1 else a for a in row]
             for row in m] for m in module.matrices]
    return FdModule(module.algebra, mats, module.name)


def oracle_modules(algebra, rng):
    """The regular module of an algebra and a conjugate of it; over Q also
    the conjugate with its integral entries stored as ints."""
    from test_modrep import conjugated

    reg = regular_module(algebra)
    out = [reg, conjugated(reg, rng)]
    if algebra.field.p is None:
        out.append(with_int_entries(out[1]))
    return out


def test_induce_matches_convolution_oracle():
    """The matrices of induce, read off the bimodule, equal the convolution
    oracle's by repr (so a Fraction turned int fails too), at every unit."""
    rng = random.Random(11)
    units = 0
    for name, g, c in oracle_battery():
        inc = Inclusion(g, c)
        for x in g.units:
            for V in oracle_modules(inc.isotropy_data(x, x).presentation, rng):
                mats = induce(inc, x, V).module.matrices
                assert repr(mats) == repr(oracle_induce(inc, x, V)), (name, x, V.name)
            units += 1
    assert units == 86


def test_germ_intertwiner_matches_convolution_oracle():
    """The germ intertwiner, read off the bimodule at y, equals the
    convolution oracle's by repr for every x and every y in its orbit."""
    rng = random.Random(12)
    pairs = 0
    for name, g, c in oracle_battery():
        inc = Inclusion(g, c)
        for V in oracle_modules(inc.B, rng):
            for x in g.units:
                gx = germ_space(inc, V, x)
                ind_x = induce(inc, x, gx.module)
                for y in g.orbit(x):
                    gy = germ_space(inc, V, y)
                    ind_y = induce(inc, y, gy.module)
                    ours = induction._germ_intertwiner(inc, V, gx, gy, ind_x, ind_y)
                    oracle = oracle_germ_intertwiner(inc, V, gx, gy, ind_x, ind_y)
                    assert repr(ours) == repr(oracle), (name, x, y, V.name)
                    verify_germ_induction_equivalence(inc, V, x, y)
                    pairs += 1
    assert pairs == 320


def test_restriction_and_germ_space_match_action_of_oracles():
    """Indexing the module's matrices at J_x's units and at B(x,x)'s
    isotropy arrows gives the same spaces and actions, by repr, as acting
    with dense deltas through ``action_of``."""
    rng = random.Random(13)
    for name, g, c in oracle_battery():
        inc = Inclusion(g, c)
        for V in oracle_modules(inc.B, rng):
            for x in g.units:
                res = restriction(inc, V, x)
                sub, mats = oracle_restriction(inc, V, x)
                assert repr(res.subspace.basis) == repr(sub.basis), (name, x, V.name)
                assert repr(res.module.matrices) == repr(tuple(mats)), (name, x, V.name)
                germ = germ_space(inc, V, x)
                quot, mats = oracle_germ_space(inc, V, x)
                assert repr(germ.quotient.kernel.basis) == repr(quot.kernel.basis), name
                assert repr(germ.quotient.section_basis) == repr(quot.section_basis), name
                assert repr(germ.module.matrices) == repr(tuple(mats)), (name, x, V.name)


def test_induction_reads_isotropy_classes_only_off_the_bimodule():
    """induction.py makes no convolution, and E(x, x) enters it once: in the
    bimodule's constructor, as nu."""
    source = inspect.getsource(induction)
    assert "convolve" not in source
    assert source.count("projection_matrix(") == 1
    assert "projection_matrix(" in inspect.getsource(ImprimitivityBimodule.__init__)


# -- the cross-orbit products that ImprimitivityBimodule._verify leaves out -------------


def cross_orbit_products(inc, x):
    """Oracle for the check the bimodule does not make: the products
    n_gamma* delta_eta over arrows gamma, eta out of x with different targets.
    Returns how many there are and the nonzero ones."""
    g, c = inc.groupoid, inc.cocycle
    gx = [a for a in g.arrows() if g.src[a] == x]
    pairs = [(gamma, eta) for gamma in gx for eta in gx if g.tgt[gamma] != g.tgt[eta]]
    nonzero = [
        (gamma, eta) for gamma, eta in pairs
        if not convolve(partial_inverse(delta(g, c, gamma)), delta(g, c, eta)).is_zero()
    ]
    return len(pairs), nonzero


def test_cross_orbit_products_vanish_on_every_battery_groupoid():
    """n_gamma* = c delta_(gamma^-1) has source tgt(gamma) != tgt(eta), so
    every such product is zero, whatever the twist."""
    total = 0
    for name, g, c in twisted_battery():
        inc = Inclusion(g, c)
        for x in g.units:
            count, nonzero = cross_orbit_products(inc, x)
            assert nonzero == [], (name, x)
            total += count
    assert total == 68


# -- each module-map and invariance check refuses corrupted input ------------------------


def exactly(message):
    return "^" + re.escape(message) + "$"


def bumped(mat, r, c, field):
    """mat with one added to its (r, c) entry."""
    rows = [list(row) for row in mat]
    rows[r][c] = field.add(rows[r][c], field.one())
    return tuple(map(tuple, rows))


def corrupt_induce(monkeypatch, change):
    """Make ``induction.induce`` return its module with the action matrices
    replaced by change(x, matrices), x the inducing unit."""
    original = induction.induce

    def corrupted(inclusion, x, V):
        ind = original(inclusion, x, V)
        mats = change(x, ind.module.matrices)
        return dataclasses.replace(ind, module=FdModule(inclusion.B, mats, ind.module.name))

    monkeypatch.setattr(induction, "induce", corrupted)


def test_bimodule_law_refuses_a_corrupted_right_action():
    """On pair2 (one right action) and on V4 at its one unit (four right
    actions, the last one corrupted): the law is checked for every right action."""
    g = pair_groupoid(2)
    bim = ImprimitivityBimodule(Inclusion(g, Cocycle.trivial(g, QQ)), 0)
    bim.right_action = [sparse_rows(bumped(dense_rows(bim.right_action[0], 2, QQ), 0, 0, QQ))]
    with pytest.raises(TheoremViolation, match=exactly("left and right actions do not commute")):
        bim._verify()
    v4 = make_v4()
    bim = ImprimitivityBimodule(Inclusion(v4, Cocycle.trivial(v4, QQ)), v4.units[0])
    *first, last = bim.right_action
    assert len(first) == 3
    bim.right_action = first + [sparse_rows(bumped(dense_rows(last, 4, QQ), 0, 0, QQ))]
    with pytest.raises(TheoremViolation, match=exactly("left and right actions do not commute")):
        bim._verify()


def test_mu_right_linearity_refuses_a_corrupted_mu():
    g = make_z2()
    bim = ImprimitivityBimodule(Inclusion(g, Cocycle.trivial(g, QQ)), 0)
    bim.mu = bumped(bim.mu, 0, 0, QQ)  # still injective
    with pytest.raises(TheoremViolation, match=exactly("standard inclusion is not right-linear")):
        bim._verify()


def test_pi_linearity_refuses_a_corrupted_pi():
    """pi = diag(1, 0) on pair2 at unit 0 becomes [[1, 1], [0, 0]]: still
    idempotent, but it mixes classes with different targets."""
    g = pair_groupoid(2)
    bim = ImprimitivityBimodule(Inclusion(g, Cocycle.trivial(g, QQ)), 0)
    assert bim.pi == ((1, 0), (0, 0))
    bim.pi = bumped(bim.pi, 0, 1, QQ)
    with pytest.raises(TheoremViolation, match=exactly("pi is not A-linear")):
        bim._verify()


def test_three_case_formula_refuses_a_pi_that_moves_an_isotropy_class():
    """pi = 0 is idempotent and A-linear, but it kills the class of delta_0."""
    g = pair_groupoid(2)
    bim = ImprimitivityBimodule(Inclusion(g, Cocycle.trivial(g, QQ)), 0)
    bim.pi = ((QQ.zero(),) * 2,) * 2
    with pytest.raises(TheoremViolation, match=exactly("pi must fix isotropy classes")):
        bim._verify()


def test_three_case_formula_refuses_a_pi_that_keeps_a_non_isotropy_class():
    """pi = identity is idempotent and A-linear, but it keeps the class of
    the arrow 0 -> 3 out of unit 0."""
    g = pair_groupoid(2)
    bim = ImprimitivityBimodule(Inclusion(g, Cocycle.trivial(g, QQ)), 0)
    bim.pi = identity_matrix(2, QQ)
    with pytest.raises(TheoremViolation, match=exactly("pi must kill non-isotropy classes")):
        bim._verify()


def test_roundtrip_refuses_a_corrupted_induced_module(monkeypatch):
    g = make_z2()
    inc = Inclusion(g, Cocycle.trivial(g, QQ))
    V = regular_module(inc.isotropy_data(0, 0).presentation)
    corrupt_induce(monkeypatch, lambda x, mats: (bumped(mats[0], 0, 0, QQ),) + mats[1:])
    with pytest.raises(TheoremViolation, match=exactly("embedding is not isotropy-linear")):
        verify_res_ind_roundtrip(inc, 0, V)


def test_embedding_refuses_a_corrupted_induced_module(monkeypatch):
    from test_modrep import column_module

    g = pair_groupoid(2)
    inc = Inclusion(g, Cocycle.trivial(g, QQ))
    col = column_module(inc)
    corrupt_induce(monkeypatch, lambda x, mats: (bumped(mats[0], 0, 0, QQ),) + mats[1:])
    with pytest.raises(TheoremViolation, match=exactly("rho is not B-linear")):
        verify_ind_res_embedding(inc, col, 0)


def test_germ_equivalence_refuses_a_change_of_basis(monkeypatch):
    """Conjugating Ind_y by I + E_01 keeps its annihilator and dimension, so
    only the intertwiner check can see it."""
    g = pair_groupoid(2)
    inc = Inclusion(g, Cocycle.trivial(g, QQ))
    x, y = g.units

    def conjugated(unit, mats):
        if unit != y:
            return mats
        d = len(mats[0])
        P = bumped(identity_matrix(d, QQ), 0, 1, QQ)
        P_inv = tuple(tuple(-a if (r, c) == (0, 1) else a for c, a in enumerate(row))
                      for r, row in enumerate(P))
        return tuple(mat_mul(mat_mul(P, m, QQ), P_inv, QQ) for m in mats)

    corrupt_induce(monkeypatch, conjugated)
    with pytest.raises(TheoremViolation, match=exactly("germ intertwiner is not B-linear")):
        verify_germ_induction_equivalence(inc, regular_module(inc.B), x, y)


def test_submodule_transfer_refuses_a_non_invariant_subspace():
    g = pair_groupoid(2)
    inc = Inclusion(g, Cocycle.trivial(g, GF3))
    ind = induce(inc, 0, regular_module(inc.isotropy_data(0, 0).presentation))
    Z = Subspace.deltas([0], ind.module.dim, GF3)
    with pytest.raises(ValueError,
                       match=exactly("subspace is not invariant under the induced action")):
        submodule_transfer(inc, ind, Z)


def test_bimodule_computes_each_partial_inverse_once(monkeypatch):
    """n_y* is computed once per orbit point, in the constructor; reading
    isotropy classes (free coordinates, induction) computes none again."""
    calls = []

    def counted(n):
        calls.append(n)
        return partial_inverse(n)

    monkeypatch.setattr(induction, "partial_inverse", counted)
    g = pair_groupoid(3)
    inc = Inclusion(g, Cocycle.trivial(g, QQ))
    bim = imprimitivity_bimodule(inc, 0)
    assert len(calls) == len(bim.orbit) == 3
    for xi in identity_matrix(bim.quotient.dim, QQ):
        bim.free_coordinates(xi)
    induce(inc, 0, regular_module(bim.data.presentation))
    assert len(calls) == 3
