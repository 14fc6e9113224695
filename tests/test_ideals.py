"""Induced ideals, annihilator identities, and the decomposition theory."""

import itertools
import random

import pytest

from groupoidalg import ideals
from groupoidalg.errors import TheoremViolation
from groupoidalg.groupoid import action_groupoid, cyclic_group_table, pair_groupoid
from groupoidalg.ideals import (
    Ideal,
    effros_hahn_check,
    enumerate_ideals,
    germ_annihilator_decomposition,
    induced_ideal,
    left_ideals,
    primitive_from_isotropy,
    primitive_ideals,
    question_12_15_experiment,
)
from groupoidalg.induction import induce
from groupoidalg.isotropy import Inclusion
from groupoidalg.linalg import (
    GF,
    QQ,
    Subspace,
    identity_matrix,
    operator_matrix,
    right_kernel,
    zero_vector,
)
from groupoidalg.modrep import (
    all_invariant_subspaces,
    all_submodules,
    annihilator,
    germ_space,
    is_irreducible,
    is_two_sided_ideal,
    isotropy_quotient_module,
    quotient_module,
    regular_module,
    submodule_module,
)
from groupoidalg.twist import Cocycle, coboundary

from conftest import battery, make_gb, make_z2, quaternion_fixture, twisted_battery

GF2 = GF(2)
GF3 = GF(3)
GF7 = GF(7)


def isotropy_module_battery(inc, x):
    data = inc.isotropy_data(x, x)
    reg = regular_module(data.presentation)
    out = [reg]
    if inc.field.p is not None:
        for s in all_submodules(reg):
            if 0 < s.dim < reg.dim:
                out.append(submodule_module(reg, s))
    return out


def test_improper_ideal_induces_everything():
    gb = make_gb()
    inc = Inclusion(gb, Cocycle.trivial(gb, GF3))
    data = inc.isotropy_data(0, 0)
    full = Subspace.full(data.quotient.dim, GF3)
    assert induced_ideal(inc, 0, full).dim == inc.m


def test_ideal_checks_refuse_a_non_ideal():
    """span(delta_t) in the group algebra of Z2 is not an ideal: t delta_t = delta_e."""
    g = make_z2()
    inc = Inclusion(g, Cocycle.trivial(g, GF3))
    t = next(a for a in g.arrows() if not g.is_unit(a))
    line = Subspace.deltas([t], inc.m, GF3)
    with pytest.raises(ValueError, match="^subspace is not closed under two-sided multiplication$"):
        Ideal(inc.B, line)
    with pytest.raises(ValueError, match="^I is not a two-sided ideal of the isotropy algebra$"):
        induced_ideal(inc, 0, line)
    with pytest.raises(ValueError, match="^not a two-sided ideal$"):
        effros_hahn_check(inc, line)


def test_effros_hahn_check_computes_the_annihilator_once(monkeypatch):
    """Ann(B/I) is the germ decomposition's own: one annihilator call for B/I
    and one per unit for its germ module, on every proper ideal of gb/GF(3)."""
    g = make_gb()
    inc = Inclusion(g, Cocycle.trivial(g, GF3))
    proper = [i for i in enumerate_ideals(inc, left_ideals(inc)) if i.dim < inc.m]
    assert proper
    calls = []
    original = ideals.annihilator

    def counted(module):
        calls.append(module)
        return original(module)

    monkeypatch.setattr(ideals, "annihilator", counted)
    for ideal in proper:
        calls.clear()
        assert effros_hahn_check(inc, ideal).ok
        assert len(calls) == 1 + len(g.units)


def test_effros_hahn_check_refuses_a_wrong_annihilator(monkeypatch):
    """B/I replaced by B itself: its annihilator 0 is not the ideal I."""
    g = make_gb()
    inc = Inclusion(g, Cocycle.trivial(g, GF3))
    ideal = next(i for i in enumerate_ideals(inc, left_ideals(inc)) if 0 < i.dim < inc.m)
    monkeypatch.setattr(ideals, "quotient_module", lambda module, I, name: (module, None))
    with pytest.raises(TheoremViolation, match="^Ann\\(B/I\\) differs from I$"):
        effros_hahn_check(inc, ideal)


def test_zero_ideal_induces_zero_for_pair_groupoid():
    g = pair_groupoid(2)
    inc = Inclusion(g, Cocycle.trivial(g, GF3))
    x = g.units[0]
    zero = Subspace.zero(inc.isotropy_data(x, x).quotient.dim, GF3)
    ind = induced_ideal(inc, x, zero)
    assert ind.dim == 0
    # cross-check: the induced module of the one-dimensional isotropy module
    # is the faithful column module
    V = regular_module(inc.isotropy_data(x, x).presentation)
    ind_mod = induce(inc, x, V)
    assert annihilator(ind_mod.module).dim == 0


def test_annihilator_identity_battery():
    """Ann(Ind V) = Ind(Ann V), computed along two independent routes."""
    for name, g, c in battery(GF3, ["pair2", "z2", "gb", "v4", "swap"]):
        inc = Inclusion(g, c)
        for x in g.units:
            for V in isotropy_module_battery(inc, x):
                lhs = annihilator(induce(inc, x, V).module)
                rhs = induced_ideal(inc, x, annihilator(V))
                assert lhs == rhs, name


def brute_force_induced_ideal(inc, x, I):
    """Exhaustive scan for {c : E(x,x)(delta_a c delta_b) in I for all arrows a, b}."""
    f = inc.field
    deltas = [inc.delta_vector(a) for a in range(inc.m)]
    hits = []
    for coords in itertools.product(range(f.p), repeat=inc.m):
        c = tuple(f.of(v) for v in coords)
        if all(
            inc.isotropy_projection(x, inc.multiply(inc.multiply(da, c), db)) in I
            for da in deltas
            for db in deltas
        ):
            hits.append(c)
    return Subspace.span(hits, inc.m, f)


def test_twisted_induced_ideal_against_exhaustive_oracle():
    """induced_ideal against a scan of B under coboundary twists with a value
    other than 1, at a unit whose isotropy algebra has a proper nonzero ideal."""
    z4_on_two_points = action_groupoid(
        cyclic_group_table(4), [[(p + g) % 2 for p in range(2)] for g in range(4)]
    )  # one orbit of two points, isotropy Z2
    for g, field, scale in [(z4_on_two_points, GF3, 2), (make_gb(), GF7, 3)]:
        cocycle = coboundary(g, field, {a: 1 if g.is_unit(a) else scale for a in g.arrows()})
        assert set(cocycle.values.values()) - {field.one()}
        inc = Inclusion(g, cocycle)
        x = g.units[0]
        iso = inc.isotropy_data(x, x).presentation
        # the improper ideal induces B (test_improper_ideal_induces_everything)
        ideals = [s for s in all_submodules(regular_module(iso))
                  if s.dim < iso.dim and is_two_sided_ideal(iso, s)]
        assert any(I.dim > 0 for I in ideals)
        for I in ideals:
            assert induced_ideal(inc, x, I) == brute_force_induced_ideal(inc, x, I)


def sandwich_induced_ideal(inc, x, I):
    """Oracle: the kernel of the m^2 blocks c -> I.reduce(E(x,x)(delta_a c delta_b)),
    each block's matrix taken column by column through a product of deltas
    read off the groupoid's composition and the cocycle."""
    f, m, g, w = inc.field, inc.m, inc.groupoid, inc.cocycle
    residual = [I.reduce(col) for col in zip(*inc.projection_matrix(x, x))]
    zero = zero_vector(inc.isotropy_data(x, x).quotient.dim, f)

    def sandwich(alpha, c, beta):
        out = zero
        for k, ck in enumerate(c):
            if ck == 0 or g.src[alpha] != g.tgt[k] or g.src[k] != g.tgt[beta]:
                continue
            ak = g.comp[alpha][k]
            s = f.mul(ck, f.mul(w(alpha, k), w(ak, beta)))
            out = tuple(f.add(o, f.mul(s, r)) for o, r in zip(out, residual[g.comp[ak][beta]]))
        return out

    eye = identity_matrix(m, f)
    rows = []
    for alpha in range(m):
        for beta in range(m):
            rows.extend(operator_matrix(lambda c: sandwich(alpha, c, beta), eye))
    return right_kernel(rows, m, f)


def test_induced_ideal_matches_sandwich_oracle():
    """At every unit of the twisted battery: I = 0 and I = B(x,x), and over
    GF(7) every ideal of B(x,x)."""
    for name, g, c in twisted_battery():
        inc = Inclusion(g, c)
        for x in g.units:
            iso = inc.isotropy_data(x, x).presentation
            if c.field.p is None:
                ideals = [Subspace.zero(iso.dim, c.field), Subspace.full(iso.dim, c.field)]
            else:
                ideals = [s for s in all_submodules(regular_module(iso))
                          if is_two_sided_ideal(iso, s)]
            for I in ideals:
                assert induced_ideal(inc, x, I) == sandwich_induced_ideal(inc, x, I), (name, x, I)


def test_induced_ideal_closed_forms_on_pair12():
    """M_12(Q) is simple: 0 induces 0 and the improper ideal induces B."""
    g = pair_groupoid(12)
    inc = Inclusion(g, Cocycle.trivial(g, QQ))
    assert induced_ideal(inc, 0, Subspace.zero(1, QQ)).dim == 0
    assert induced_ideal(inc, 0, Subspace.full(1, QQ)) == Subspace.full(inc.m, QQ)


def test_primitive_from_isotropy_simple_algebra():
    g = pair_groupoid(2)
    inc = Inclusion(g, Cocycle.trivial(g, GF2))
    x = g.units[0]
    W = regular_module(inc.isotropy_data(x, x).presentation)
    ideal = primitive_from_isotropy(inc, x, W)
    assert ideal.dim == 0
    # simplicity cross-check: full enumeration finds only 0 and B
    assert [i.dim for i in enumerate_ideals(inc, left_ideals(inc))] == [0, 4]


def test_primitive_from_isotropy_gb_sign_module():
    gb = make_gb()
    inc = Inclusion(gb, Cocycle.trivial(gb, GF3))
    data = inc.isotropy_data(0, 0)
    reg = regular_module(data.presentation)
    # sign module: the flip acts by -1; find it among the minimal submodules
    subs = [s for s in all_submodules(reg) if s.dim == 1]
    sign = None
    for s in subs:
        W = submodule_module(reg, s)
        flip = W.matrices[1]
        if flip == ((GF3.of(-1),),):
            sign = W
    assert sign is not None
    ideal = primitive_from_isotropy(inc, 0, sign)
    assert 0 < ideal.dim < inc.m
    assert is_two_sided_ideal(inc.B, ideal)
    ind = induce(inc, 0, sign)
    assert is_irreducible(ind.module).status == "irreducible"


def test_two_characters_of_z2_give_two_primitives():
    g = make_z2()
    inc = Inclusion(g, Cocycle.trivial(g, GF3))
    prims = primitive_ideals(inc, left_ideals(inc))
    assert len(prims) == 2
    assert sorted(i.dim for i, _ in prims) == [1, 1]
    assert len({i.basis for i, _ in prims}) == 2


def test_germ_decomposition_faithful_module():
    for name, g, c in battery(GF3, ["pair2", "gb"]):
        inc = Inclusion(g, c)
        reg = regular_module(inc.B)
        dec = germ_annihilator_decomposition(inc, reg)
        assert dec.ok
        assert dec.intersection.dim == 0, name


def test_germ_decomposition_battery():
    for name, g, c in battery(GF3, ["pair2", "z2", "gb", "v4"]):
        inc = Inclusion(g, c)
        reg = regular_module(inc.B)
        subs = all_submodules(reg)
        for s in subs:
            if s.dim == reg.dim:
                continue
            V, _ = quotient_module(reg, s)
            dec = germ_annihilator_decomposition(inc, V)
            assert dec.ok, name


def test_single_orbit_summands_agree():
    """On a transitive groupoid all per-unit induced ideals coincide."""
    g = pair_groupoid(3)
    inc = Inclusion(g, Cocycle.trivial(g, GF3))
    reg = regular_module(inc.B)
    dec = germ_annihilator_decomposition(inc, reg)
    dims = {s.basis for s in dec.per_unit.values()}
    assert len(dims) == 1
    assert dec.intersection == next(iter(dec.per_unit.values()))


def test_effros_hahn_zero_ideal_simple_fixture():
    g = pair_groupoid(2)
    inc = Inclusion(g, Cocycle.trivial(g, GF2))
    zero = Subspace.zero(inc.m, GF2)
    rep = effros_hahn_check(inc, zero)
    assert rep.ok


def test_effros_hahn_augmentation_type_ideal():
    """An ideal living over the twisted unit decomposes through unit 0."""
    gb = make_gb()
    inc = Inclusion(gb, Cocycle.trivial(gb, GF3))
    prims = primitive_ideals(inc, left_ideals(inc))
    # pick a primitive ideal whose witness has support at unit 0
    found = False
    for ideal, witness in prims:
        g0 = germ_space(inc, witness, 0)
        if g0.quotient.dim > 0:
            rep = effros_hahn_check(inc, ideal, witness)
            assert rep.primitive_single_unit == 0
            found = True
    assert found


def test_effros_hahn_all_ideals_gf2():
    for name, g, c in battery(GF2, ["pair2", "z2", "gb", "du"]):
        inc = Inclusion(g, c)
        for ideal in enumerate_ideals(inc, left_ideals(inc)):
            if ideal.dim == inc.m:
                continue
            rep = effros_hahn_check(inc, ideal)
            assert rep.ok, name


def test_question_12_15_all_primitives():
    for name, g, c in battery(GF2, ["pair2", "z2", "gb"]) + battery(
        GF3, ["pair2", "z2", "gb"]
    ):
        inc = Inclusion(g, c)
        for ideal, witness in primitive_ideals(inc, left_ideals(inc)):
            rep = question_12_15_experiment(inc, ideal, witness)
            assert rep.answer == "YES", name
            assert rep.unit is not None


def test_question_12_15_pair3_unique_primitive():
    g = pair_groupoid(3)
    inc = Inclusion(g, Cocycle.trivial(g, GF2))
    prims = primitive_ideals(inc, left_ideals(inc))
    assert len(prims) == 1
    ideal, witness = prims[0]
    assert ideal.dim == 0
    rep = question_12_15_experiment(inc, ideal, witness)
    assert rep.answer == "YES"
    assert rep.inducing_ideal_dim == 0


def test_question_12_15_quaternion_gf3():
    g, c = quaternion_fixture(GF3)
    inc = Inclusion(g, c)
    prims = primitive_ideals(inc, left_ideals(inc))
    assert len(prims) == 1
    ideal, witness = prims[0]
    assert ideal.dim == 0
    rep = question_12_15_experiment(inc, ideal, witness)
    assert rep.answer == "YES"
    assert rep.inducing_ideal_dim == 0
    assert rep.germ_dim == 2


def test_ideal_class_validates_closure():
    g = make_z2()
    inc = Inclusion(g, Cocycle.trivial(g, QQ))
    aug = Subspace.span([(QQ.one(), QQ.of(-1))], 2, QQ)
    Ideal(inc.B, aug)
    not_ideal = Subspace.span([(QQ.one(), QQ.zero())], 2, QQ)
    with pytest.raises(ValueError):
        Ideal(inc.B, not_ideal)


def test_two_sided_criterion_random_triples():
    """b annihilates Ind(V/W) iff d b V lies in W for all basis d."""
    rng = random.Random(424242)
    for name, g, c in battery(GF3, ["pair2", "gb"]):
        inc = Inclusion(g, c)
        reg = regular_module(inc.B)
        for x in g.units:
            gs = germ_space(inc, reg, x)
            if gs.quotient.dim == 0:
                continue
            germ_subs = all_submodules(gs.module)
            for t in germ_subs:
                lifted = [gs.quotient.inject(v) for v in t.basis]
                W = Subspace.span(
                    list(lifted) + list(gs.quotient.kernel.basis), reg.dim, GF3
                )
                VW, _ = isotropy_quotient_module(inc, reg, x, W)
                if VW.dim == 0:
                    side1_ann = Subspace.full(inc.m, GF3)
                else:
                    side1_ann = annihilator(induce(inc, x, VW).module)
                for _ in range(13):
                    b = tuple(GF3.of(rng.randrange(3)) for _ in range(inc.m))
                    side1 = b in side1_ann
                    side2 = True
                    for d in range(inc.m):
                        db = inc.multiply(inc.delta_vector(d), b)
                        act = reg.action_of(db)
                        for j in range(reg.dim):
                            col = tuple(act[r][j] for r in range(reg.dim))
                            if col not in W:
                                side2 = False
                                break
                        if not side2:
                            break
                    assert side1 == side2, name


def test_cor_12_11_specialization():
    """With W = J_x V the two-sided criterion reads d b V inside J_x V."""
    gb = make_gb()
    inc = Inclusion(gb, Cocycle.trivial(gb, GF3))
    reg = regular_module(inc.B)
    rng = random.Random(11)
    for x in gb.units:
        gs = germ_space(inc, reg, x)
        W = gs.quotient.kernel
        ann = annihilator(induce(inc, x, gs.module).module)
        for _ in range(20):
            b = tuple(GF3.of(rng.randrange(3)) for _ in range(inc.m))
            side1 = b in ann
            side2 = all(
                tuple(
                    reg.action_of(inc.multiply(inc.delta_vector(d), b))[r][j]
                    for r in range(reg.dim)
                )
                in W
                for d in range(inc.m)
                for j in range(reg.dim)
            )
            assert side1 == side2


# -- ideals read off the left-ideal lattice ---------------------------------------


def bimodule_ideals(inclusion):
    """The enumeration ``enumerate_ideals`` replaced: the subspaces invariant
    under every left and right multiplication of B at once."""
    left, right = inclusion.B.mult_rows()
    return all_invariant_subspaces(left + right, inclusion.m, inclusion.field)


def small_field_battery():
    """Every twisted-battery groupoid over GF(2) and GF(3): the trivial twist,
    the quaternion sign cocycle on V4, and over GF(3) the coboundary of
    b = 2 on the non-units."""
    cases = []
    for field in (GF2, GF3):
        cases += [(f"{name}/{field}", g, c) for name, g, c in battery(field)]
        cases.append((f"v4quat/{field}", *quaternion_fixture(field)))
    for name, g, _ in battery(GF3):
        values = {a: 1 if g.is_unit(a) else 2 for a in g.arrows()}
        cases.append((f"{name}/GF3/coboundary", g, coboundary(g, GF3, values)))
    return cases


def test_ideals_from_left_ideals_match_bimodule_enumeration():
    for name, g, c in small_field_battery():
        inc = Inclusion(g, c)
        assert enumerate_ideals(inc, left_ideals(inc)) == bimodule_ideals(inc), name


@pytest.mark.parametrize("n,p,count", [(2, 5, 8), (2, 7, 10), (3, 2, 16), (4, 2, 67)])
def test_matrix_algebra_left_ideals_are_subspaces(n, p, count):
    """The left ideals of M_n(F_p) are the matrices with rows in a fixed
    subspace of F_p^n, one per subspace: 1 + (p + 1) + 1 of them for n = 2,
    16 for F_2^3 and 67 for F_2^4.  Only 0 and B are two-sided."""
    g = pair_groupoid(n)
    inc = Inclusion(g, Cocycle.trivial(g, GF(p)))
    lattice = left_ideals(inc)
    assert len(lattice) == count
    assert [I.dim for I in enumerate_ideals(inc, lattice)] == [0, n * n]
