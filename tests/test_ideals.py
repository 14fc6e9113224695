"""Induced ideals, annihilator identities, and the decomposition theory."""

import functools
import itertools
import random

import pytest

from groupoidalg import ideals
from groupoidalg.errors import BudgetExceeded, TheoremViolation
from groupoidalg.groupoid import (
    action_groupoid,
    cyclic_group_table,
    group_bundle,
    group_groupoid,
    pair_groupoid,
)
from groupoidalg.ideals import (
    effros_hahn_check,
    enumerate_ideals,
    ideal_decomposition,
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
    LATTICE_BUDGET,
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

from conftest import (
    all_pairs_lattice,
    battery,
    germ_annihilator_decomposition,
    germ_inducing_unit,
    kernel_induced_ideal,
    make_gb,
    make_swap3_action,
    make_z2,
    prime_twisted_battery,
    quaternion_fixture,
    simple_quotient_primitive_ideals,
    twisted_battery,
)

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
    with pytest.raises(ValueError, match="^I is not a two-sided ideal of the isotropy algebra$"):
        induced_ideal(inc, 0, line)
    with pytest.raises(ValueError, match="^not a two-sided ideal$"):
        effros_hahn_check(inc, line)


def test_effros_hahn_check_builds_no_module_without_a_witness(monkeypatch):
    """The germ annihilators of B/I are read off I: no annihilator, quotient
    or germ module is computed on any proper ideal of gb/GF(3), and the
    report's per-unit dims are those of the germ route on B/I."""
    g = make_gb()
    inc = Inclusion(g, Cocycle.trivial(g, GF3))
    proper = [i for i in enumerate_ideals(inc, left_ideals(inc)) if i.dim < inc.m]
    assert proper
    reg = regular_module(inc.B)
    germ_dims = [{x: s.dim for x, s in
                  germ_annihilator_decomposition(inc, quotient_module(reg, i)[0]).per_unit.items()}
                 for i in proper]
    calls = []
    for name in ("annihilator", "quotient_module", "germ_space"):
        monkeypatch.setattr(ideals, name, lambda *args, name=name, **kw: calls.append(name))
    for ideal, dims in zip(proper, germ_dims):
        rep = effros_hahn_check(inc, ideal)
        assert rep.ok and rep.per_unit_dims == dims
    assert calls == []


def test_effros_hahn_check_takes_a_held_decomposition(monkeypatch):
    """The zero ideal's check takes the induced ideals that prop_12_12's
    decomposition of B/0 left on the inclusion: it places no ideal and
    reports the same per-unit ideals.  A subspace that is not the
    intersection of its induced ideals (a one-sided ideal of M_2) is refused."""
    g = make_gb()
    inc = Inclusion(g, Cocycle.trivial(g, GF3))
    zero = Subspace.zero(inc.m, GF3)
    regular = ideal_decomposition(inc, zero)
    placements, place = [], ideals._place_induced
    monkeypatch.setattr(ideals, "_place_induced", lambda *args: placements.append(args) or place(*args))
    rep = effros_hahn_check(inc, zero)
    assert placements == [] and rep.per_unit_dims == {x: s.dim for x, s in regular.items()}
    monkeypatch.undo()
    g = pair_groupoid(2)
    inc = Inclusion(g, Cocycle.trivial(g, GF3))
    one_sided = next(s for s in left_ideals(inc) if not is_two_sided_ideal(inc.B, s))
    with pytest.raises(TheoremViolation, match="^the induced ideals do not intersect to I$"):
        ideal_decomposition(inc, one_sided)


def test_effros_hahn_check_refuses_a_wrong_annihilator(monkeypatch):
    """Each unit's inducing ideal replaced by the annihilator of the regular
    module's germ, 0, instead of that of B/I's: the intersection is not I."""
    g = make_gb()
    inc = Inclusion(g, Cocycle.trivial(g, GF3))
    ideal = next(i for i in enumerate_ideals(inc, left_ideals(inc)) if 0 < i.dim < inc.m)
    original = ideals.induced_ideal
    monkeypatch.setattr(ideals, "induced_ideal",
                        lambda inc, x, I: original(inc, x, Subspace.zero(I.ambient_dim, I.field)))
    with pytest.raises(TheoremViolation, match="^the induced ideals do not intersect to I$"):
        effros_hahn_check(inc, ideal)


def test_ideal_decomposition_matches_the_germ_route():
    """ideal_decomposition against the germ-module oracle on B/I, with B/I
    built through quotient_module: equal per-unit bases, an intersection
    equal to Ann(B/I), and Ann(B/I) = I.  Every proper ideal of the battery
    over GF(2), GF(3), GF(5) and GF(7), twisted by coboundaries and the
    quaternion cocycle; over Q, the zero ideal and the ideals induced from
    0 and from B(x, x) at each unit (the latter is B, whose quotient is 0)."""
    checked = 0
    cases = prime_twisted_battery() + twisted_battery()
    for name, g, c in cases:
        inc = Inclusion(g, c)
        if c.field.p is None:
            corners = [(x, make(inc.isotropy_data(x, x).dim, c.field))
                       for x in g.units for make in (Subspace.zero, Subspace.full)]
            candidates = {Subspace.zero(inc.m, c.field),
                          *(induced_ideal(inc, x, corner) for x, corner in corners)}
        else:
            candidates = [i for i in enumerate_ideals(inc, left_ideals(inc)) if i.dim < inc.m]
        reg = regular_module(inc.B)
        for I in candidates:
            V, _ = quotient_module(reg, I)
            oracle = germ_annihilator_decomposition(inc, V)
            assert oracle.annihilator == I, (name, I)
            per_unit = ideal_decomposition(inc, I)
            assert {x: s.basis for x, s in per_unit.items()} == \
                {x: s.basis for x, s in oracle.per_unit.items()}, (name, I)
            assert oracle.intersection == I, (name, I)
            checked += 1
    assert checked > len(cases)


def test_effros_hahn_single_unit_matches_the_germ_route():
    """The single inducing unit of a primitive ideal, read off the
    decomposition, is the one the germ loop finds (the first unit whose
    nonzero germ of the witness induces I), on every primitive ideal of the
    prime twisted battery."""
    checked = 0
    for name, g, c in prime_twisted_battery():
        inc = Inclusion(g, c)
        for I, witness in primitive_ideals(inc, left_ideals(inc)):
            unit = effros_hahn_check(inc, I).single_unit
            assert unit is not None and unit == germ_inducing_unit(inc, witness), (name, I)
            checked += 1
    assert checked > len(prime_twisted_battery())


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


def isotropy_ideals(inc, x):
    """The two-sided ideals of B(x, x): all of them over GF(p), 0 and B(x, x) over Q."""
    iso = inc.isotropy_data(x, x).presentation
    if inc.field.p is None:
        return [Subspace.zero(iso.dim, inc.field), Subspace.full(iso.dim, inc.field)]
    return [s for s in all_submodules(regular_module(iso)) if is_two_sided_ideal(iso, s)]


def test_induced_ideal_matches_sandwich_oracle():
    """At every unit of the twisted battery: I = 0 and I = B(x,x), and over
    GF(7) every ideal of B(x,x)."""
    for name, g, c in twisted_battery():
        inc = Inclusion(g, c)
        for x in g.units:
            for I in isotropy_ideals(inc, x):
                assert induced_ideal(inc, x, I) == sandwich_induced_ideal(inc, x, I), (name, x, I)


def test_placed_induced_ideal_matches_the_kernel_oracle():
    """induced_ideal, placed through the orbit sections, against the
    constraint kernel at every unit, the units after the first of their
    orbit included: every two-sided ideal of B(x, x) over the prime twisted
    battery, and 0 and B(x, x) over Q, the quaternion twist included."""
    cases = prime_twisted_battery() + [case for case in twisted_battery() if case[2].field.p is None]
    later = 0
    for name, g, c in cases:
        inc = Inclusion(g, c)
        for x in g.units:
            later += g.orbit(x)[0] != x
            for I in isotropy_ideals(inc, x):
                assert induced_ideal(inc, x, I) == kernel_induced_ideal(inc, x, I), (name, x, I)
    assert later > 0


def test_units_of_one_orbit_share_one_induced_ideal(monkeypatch):
    """The corners of one ideal at the units of one orbit induce one ideal,
    held once and checked two-sided in B once: on swap3 over GF(3) (a free
    orbit {0, 1} next to a fixed point with isotropy Z2) the zero ideal's
    three units give two ideals and two B-level checks."""
    g = make_swap3_action()
    inc = Inclusion(g, Cocycle.trivial(g, GF3))
    checked, check = [], ideals.is_two_sided_ideal
    monkeypatch.setattr(ideals, "is_two_sided_ideal",
                        lambda algebra, S: checked.append(algebra is inc.B) or check(algebra, S))
    per_unit = ideal_decomposition(inc, Subspace.zero(inc.m, GF3))
    assert per_unit[0] is per_unit[1] and per_unit[0] != per_unit[2]
    assert checked.count(True) == 2


def test_ideal_decomposition_intersects_each_distinct_ideal_once(monkeypatch):
    """The ideals that units of one orbit share are intersected once, with
    the same result: on swap3 over GF(3) the zero ideal's three units give
    two distinct ideals, so one intersection; on pair3 over Q one ideal
    and none."""
    calls, intersect = [], Subspace.intersect
    monkeypatch.setattr(Subspace, "intersect",
                        lambda self, other: calls.append(self is other) or intersect(self, other))
    for g, field, count in ((make_swap3_action(), GF3, 1), (pair_groupoid(3), QQ, 0)):
        calls.clear()
        inc = Inclusion(g, Cocycle.trivial(g, field))
        zero = Subspace.zero(inc.m, field)
        per_unit = ideal_decomposition(inc, zero)
        assert calls == [False] * count
        assert functools.reduce(intersect, per_unit.values()) == zero


def test_a_changed_block_scalar_is_refused(monkeypatch):
    """One scalar of one block delta_(n_z) I delta_(n_y^-1), z != x, doubled:
    the placed span keeps its corner and the arrows outside the orbit, so by
    the lemma of ``induced_ideal`` it is not two-sided.  Z4 acting on two
    points through Z2 (isotropy Z2) under a coboundary twist over GF(3),
    every scalar of n_z's moves, both proper ideals of B(x, x)."""
    g = action_groupoid(cyclic_group_table(4), [[(p + k) % 2 for p in range(2)] for k in range(4)])
    c = coboundary(g, GF3, {a: 1 if g.is_unit(a) else 2 for a in g.arrows()})
    x = g.units[0]
    nz = next(n for y, n in g.sections(x).items() if y != x)
    inc, moves = Inclusion(g, c), ideals._moves
    proper = [I for I in isotropy_ideals(inc, x) if 0 < I.dim < inc.isotropy_data(x, x).dim]
    assert len(proper) == 2
    for I in proper:
        for arrow in moves(inc.B.rows, nz):
            def mutant(rows, h, arrow=arrow):
                out = moves(rows, h)
                if h == nz:
                    target, w = out[arrow]
                    out = {**out, arrow: (target, GF3.mul(2, w))}
                return out

            with monkeypatch.context() as m:
                m.setattr(ideals, "_moves", mutant)
                with pytest.raises(TheoremViolation, match="^induced ideal is not two-sided$"):
                    induced_ideal(Inclusion(g, c), x, I)


def test_a_placement_of_another_ideal_is_refused(monkeypatch):
    """The placement of Ind_x(0) handed back for I = B(x, x) on gb over
    GF(3): an ideal holding 1 - 1_O, refused because its corner is not I."""
    g, place = make_gb(), ideals._place_induced
    inc = Inclusion(g, Cocycle.trivial(g, GF3))
    dim = inc.isotropy_data(0, 0).dim
    zero, full = Subspace.zero(dim, GF3), Subspace.full(dim, GF3)
    monkeypatch.setattr(ideals, "_place_induced", lambda inclusion, unit, J: place(inclusion, unit, zero))
    with pytest.raises(TheoremViolation, match="^the corner of the induced ideal is not I$"):
        induced_ideal(inc, 0, full)


def test_a_dropped_outside_delta_is_refused(monkeypatch):
    """The placement with the delta of one arrow outside the orbit of x left
    out, for every such arrow, unit x and I in (0, B(x, x)) of gb, du and
    swap3 over GF(3).  A unit left out can leave an ideal with corner I
    (B = K G_0 x K x K on gb), refused as missing 1 - 1_O."""
    place, refusals = ideals._place_induced, set()
    for name, g, c in battery(GF3, ["gb", "du", "swap3"]):
        for x in g.units:
            dim = Inclusion(g, c).isotropy_data(x, x).dim
            for a in (a for a in g.arrows() if g.orbit(g.tgt[a]) != g.orbit(x)):
                def dropped(inclusion, unit, J, a=a):
                    P = place(inclusion, unit, J)
                    kept = [(pc, row) for pc, row in zip(P.pivots, P.basis) if pc != a]
                    return Subspace(P.ambient_dim, P.field, [r for _, r in kept], [pc for pc, _ in kept])

                for I in (Subspace.zero(dim, GF3), Subspace.full(dim, GF3)):
                    with monkeypatch.context() as m:
                        m.setattr(ideals, "_place_induced", dropped)
                        with pytest.raises(TheoremViolation) as err:
                            induced_ideal(Inclusion(g, c), x, I)
                    refusals.add(str(err.value))
    assert refusals == {"induced ideal misses a unit outside the orbit", "induced ideal is not two-sided"}


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
            rep = effros_hahn_check(inc, ideal)
            assert rep.single_unit == 0
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


def test_two_sided_ideal_check_validates_closure():
    """The augmentation ideal of Q[Z2] is two-sided; the line of delta_e is not."""
    g = make_z2()
    inc = Inclusion(g, Cocycle.trivial(g, QQ))
    aug = Subspace.span([(QQ.one(), QQ.of(-1))], 2, QQ)
    assert is_two_sided_ideal(inc.B, aug)
    not_ideal = Subspace.span([(QQ.one(), QQ.zero())], 2, QQ)
    assert not is_two_sided_ideal(inc.B, not_ideal)


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
    under every left and right multiplication of B at once, spun seed by
    seed (the left and right maps together are not closed under products,
    so they are not a module action that the enumeration would accept)."""
    left, right = inclusion.B.left_mult_rows(), inclusion.B.right_mult_rows()
    return all_pairs_lattice(left + right, inclusion.m, inclusion.field)


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


def orbit_battery():
    """``small_field_battery``, the battery over GF(5) and GF(7) with the
    quaternion twist where the B-level oracle takes at most 7^6 seeds, and
    action groupoids over GF(3) under a coboundary, whose sections n_y carry
    scalars: Z_2 on 2 + 1 points, Z_3 on 3 points and Z_4 on 2 points; and
    Z_3 with its identity as the last arrow."""
    cases = small_field_battery()
    for field in (GF(5), GF7):
        cases += [(f"{name}/{field}", g, c)
                  for name, g, c in [*battery(field), ("v4quat", *quaternion_fixture(field))]
                  if field.p ** g.n_arrows <= 7**6]
    actions = {"Z2 on 2+1": (2, [[0, 1, 2], [1, 0, 2]]),
               "Z3 on 3": (3, [[0, 1, 2], [1, 2, 0], [2, 0, 1]]),
               "Z4 on 2": (4, [[0, 1], [1, 0], [0, 1], [1, 0]])}
    for name, (n, action) in actions.items():
        g = action_groupoid(cyclic_group_table(n), action)
        values = {a: 1 if g.is_unit(a) else 2 for a in g.arrows()}
        cases.append((f"{name}/GF3/coboundary", g, coboundary(g, GF3, values)))
    # Z_3 with its identity last, so the unit is not the least isotropy arrow
    g = group_groupoid([[1, 2, 0], [2, 0, 1], [0, 1, 2]])
    cases += [(f"Z3, identity last/{field}", g, Cocycle.trivial(g, field)) for field in (GF2, GF3)]
    return cases


def test_left_ideals_match_the_regular_module_lattice():
    """Enumerated at one unit per orbit and placed by the sections, the left
    ideals are the B-level lattice of the regular module, in its order."""
    for name, g, c in orbit_battery():
        inc = Inclusion(g, c)
        assert left_ideals(inc) == all_submodules(regular_module(inc.B)), name


def test_primitive_ideals_are_the_maximal_ideals():
    """The maximal two-sided ideals are the annihilators of the simple
    quotients of B (the conftest oracle), in the same order, and each
    witness B/M is a certified simple module with annihilator P."""
    checked = 0
    for name, g, c in orbit_battery():
        inc = Inclusion(g, c)
        lattice = left_ideals(inc)
        prims = primitive_ideals(inc, lattice)
        oracle = simple_quotient_primitive_ideals(inc, lattice)
        assert [P.basis for P, _ in prims] == [P.basis for P, _ in oracle], name
        for P, witness in prims:
            assert annihilator(witness) == P, (name, P)
            verdict = is_irreducible(witness)
            assert verdict.status == "irreducible" and verdict.certified, (name, P)
            checked += 1
    assert checked > len(orbit_battery())


def test_left_ideals_refusals():
    """``left_ideals`` refuses over Q; when a module of arrows into a unit
    is past the enumeration budget (Z_13 over GF(3): 3^13 > 2^20); and
    when the product of the orbit counts is past the lattice budget, before
    it is built (ten Z_2 over GF(2): 3 left ideals each, 3^10 > 20000)."""
    g = make_z2()
    with pytest.raises(BudgetExceeded, match="requires a prime field"):
        left_ideals(Inclusion(g, Cocycle.trivial(g, QQ)))
    g = group_groupoid(cyclic_group_table(13))
    with pytest.raises(BudgetExceeded, match=r"3\^13 candidate vectors exceed the budget"):
        left_ideals(Inclusion(g, Cocycle.trivial(g, GF3)))
    g = group_bundle([cyclic_group_table(2)] * 10)
    with pytest.raises(BudgetExceeded, match=f"59049 left ideals exceed the lattice budget of {LATTICE_BUDGET}"):
        left_ideals(Inclusion(g, Cocycle.trivial(g, GF2)))


@pytest.mark.parametrize("n,p,count", [(2, 5, 8), (2, 7, 10), (2, 11, 14), (3, 2, 16),
                                     (3, 3, 28), (4, 2, 67), (4, 3, 212), (5, 2, 374),
                                     (6, 2, 2825)])
def test_matrix_algebra_left_ideals_are_subspaces(n, p, count):
    """The left ideals of M_n(F_p) are the matrices with rows in a fixed
    subspace of F_p^n, one per subspace: 1 + (p + 1) + 1 = p + 3 of them
    for n = 2, 1 + (p^2 + p + 1) + (p^2 + p + 1) + 1 for n = 3 (16 over
    F_2, 28 over F_3), and the sums of the Gaussian binomials for n >= 4:
    1 + 15 + 35 + 15 + 1 = 67 over F_2 and 1 + 40 + 130 + 40 + 1 = 212 over
    F_3 for n = 4, 374 and 2825 over F_2 for n = 5 and 6.  Only 0 and B
    are two-sided."""
    g = pair_groupoid(n)
    inc = Inclusion(g, Cocycle.trivial(g, GF(p)))
    lattice = left_ideals(inc)
    assert len(lattice) == count
    assert [I.dim for I in enumerate_ideals(inc, lattice)] == [0, n * n]
