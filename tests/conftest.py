"""Shared fixtures: the groupoid battery, twist constructors, modules
that break unitality only, the spinning reference for cyclic closures
and invariant-subspace lattices, the germ-module route of Prop 12.12 and
Theorem 12.14 (ii), and the constraint kernel of an induced ideal."""

from dataclasses import dataclass

import pytest

from groupoidalg.errors import TheoremViolation

from groupoidalg.groupoid import (
    action_groupoid,
    cyclic_group_table,
    disjoint_union,
    group_bundle,
    group_groupoid,
    klein_four_table,
    pair_groupoid,
)
from groupoidalg.ideals import induced_ideal
from groupoidalg.linalg import GF, QQ, Subspace, right_kernel
from groupoidalg.modrep import (
    FdModule,
    annihilator,
    closure_under,
    direct_sum,
    germ_space,
    normalized_vectors,
    regular_module,
)
from groupoidalg.twist import Cocycle, coboundary, quaternion_sign_cocycle

Z2_TABLE = cyclic_group_table(2)
TRIVIAL_GROUP = [[0]]


def make_pair2():
    return pair_groupoid(2)


def make_pair3():
    return pair_groupoid(3)


def make_z2():
    return group_groupoid(Z2_TABLE)


def make_v4():
    return group_groupoid(klein_four_table())


def make_gb():
    """Group bundle over three units with a Z2 fiber at unit 0."""
    return group_bundle([Z2_TABLE, TRIVIAL_GROUP, TRIVIAL_GROUP])


def make_swap_action():
    """Z2 swapping two points; isomorphic to the pair groupoid on 2 points."""
    return action_groupoid(Z2_TABLE, [[0, 1], [1, 0]])


def make_swap3_action():
    """Z2 swapping two of three points: a free orbit next to a fixed point
    with isotropy Z2, the smallest fixture mixing both phenomena."""
    return action_groupoid(Z2_TABLE, [[0, 1, 2], [1, 0, 2]])


def make_du():
    return disjoint_union(pair_groupoid(2), make_gb())


GROUPOID_MAKERS = {
    "pair1": lambda: pair_groupoid(1),
    "pair2": make_pair2,
    "pair3": make_pair3,
    "z2": make_z2,
    "v4": make_v4,
    "gb": make_gb,
    "swap": make_swap_action,
    "swap3": make_swap3_action,
    "du": make_du,
}


def battery(field, names=None):
    """(name, groupoid, validated trivial cocycle) triples over the field."""
    names = names or list(GROUPOID_MAKERS)
    out = []
    for name in names:
        g = GROUPOID_MAKERS[name]()
        assert g.validate() is None
        out.append((name, g, Cocycle.trivial(g, field)))
    return out


def quaternion_fixture(field):
    g = make_v4()
    c = quaternion_sign_cocycle(g, field)
    assert c.validated
    return g, c


def twisted_battery():
    """(name, groupoid, cocycle): the battery over Q, the quaternion twist
    over Q, and the battery over GF(7) under the coboundary of b = 3 on
    non-units, which takes the value 3 * 3 / 1 = 2 at (a, a^-1) for every
    non-unit a."""
    gf7 = GF(7)
    cases = battery(QQ) + [("v4quat", *quaternion_fixture(QQ))]
    for name, g, _ in battery(gf7):
        values = {a: 1 if g.is_unit(a) else 3 for a in g.arrows()}
        cocycle = coboundary(g, gf7, values)
        assert all(cocycle(a, g.inv[a]) == 2 for a in g.arrows() if not g.is_unit(a))
        cases.append((f"{name}/GF7", g, cocycle))
    return cases


def prime_twisted_battery(primes=(2, 3, 5, 7)):
    """(name, groupoid, cocycle) over each GF(p): the battery under the
    coboundary of b = 2 on non-units (trivial over GF(2), whose only
    nonzero scalar is 1), and the quaternion twist for odd p."""
    cases = []
    for p in primes:
        field = GF(p)
        for name, g, _ in battery(field):
            values = {a: 1 if g.is_unit(a) else (1 if p == 2 else 2) for a in g.arrows()}
            cases.append((f"{name}/GF{p}", g, coboundary(g, field, values)))
        if p > 2:
            cases.append((f"v4quat/GF{p}", *quaternion_fixture(field)))
    return cases


def oracle_battery():
    """The twisted battery (Q, the quaternion twist, GF(7) coboundaries) and
    the battery over GF(2) and GF(3), the quaternion twist over GF(3) included."""
    gf2, gf3 = GF(2), GF(3)
    return (twisted_battery() + battery(gf2) + battery(gf3)
            + [("v4quat/GF3", *quaternion_fixture(gf3))])


@pytest.fixture
def pair2():
    return make_pair2()


@pytest.fixture
def pair3():
    return make_pair3()


@pytest.fixture
def z2():
    return make_z2()


@pytest.fixture
def gb():
    return make_gb()


@pytest.fixture
def v4_quaternion_Q():
    return quaternion_fixture(QQ)


def idempotent_unit_modules(algebra):
    """Modules satisfying the module law on which the unit acts as a proper
    idempotent: all-zero actions on K^2, and the regular module plus a
    zero-action line."""
    zero = algebra.field.zero()
    square = FdModule(algebra, [((zero, zero), (zero, zero))] * algebra.dim, "zero^2")
    line = FdModule(algebra, [((zero,),)] * algebra.dim, "zero")
    return [square, direct_sum(regular_module(algebra), line)]


def per_seed_closures(matrices, dim, field):
    """The spinning reference: one `closure_under` per seed."""
    return [(seed, closure_under(matrices, [seed], dim, field))
            for seed in normalized_vectors(dim, field.p)]


def all_pairs_lattice(matrices, dim, field):
    """Zero and the per-seed spun closures, closed under sums by joining
    every new subspace with every one found."""
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


@dataclass
class GermDecomposition:
    """Per-unit induced annihilators of the germ spaces and their intersection."""

    annihilator: Subspace
    per_unit: dict
    intersection: Subspace

    @property
    def ok(self) -> bool:
        return self.annihilator == self.intersection


def germ_annihilator_decomposition(inclusion, V) -> GermDecomposition:
    """The general germ route of Prop 12.12, the oracle of
    ``ideals.ideal_decomposition``: Ann(V) as the intersection of the ideals
    induced from the annihilators of the germ modules V / J_x V."""
    ann = annihilator(V)
    per_unit = {}
    intersection = None
    for x in inclusion.groupoid.units:
        g = germ_space(inclusion, V, x)
        ind = induced_ideal(inclusion, x, annihilator(g.module))
        per_unit[x] = ind
        intersection = ind if intersection is None else intersection.intersect(ind)
    out = GermDecomposition(ann, per_unit, intersection)
    if not out.ok:
        raise TheoremViolation("germ decomposition missed the annihilator")
    return out


def germ_inducing_unit(inclusion, witness):
    """The germ route of Theorem 12.14 (ii), the oracle of the single unit
    of ``ideals.effros_hahn_check``: the first unit whose nonzero germ of
    the witness has an annihilator inducing Ann(witness), else None."""
    ann = annihilator(witness)
    for x in inclusion.groupoid.units:
        g = germ_space(inclusion, witness, x)
        if g.quotient.dim and induced_ideal(inclusion, x, annihilator(g.module)) == ann:
            return x
    return None


def kernel_induced_ideal(inclusion, x, I):
    """The oracle of ``ideals.induced_ideal``: Ind_x(I) as the kernel of one
    block of constraint rows per basis pair (alpha, beta), the matrix of
    c -> I.reduce(E(x,x)(delta_alpha c delta_beta)).  Both products are
    read off ``B.rows``: rows[alpha] holds (k, ((alpha k, w1),)) and
    rows[alpha k] holds (beta, ((alpha k beta, w2),)), so column k of the
    block is w1 w2 times the residual of E on the arrow alpha k beta."""
    f, m, rows = inclusion.field, inclusion.m, inclusion.B.rows
    # residual[k] = I.reduce(E(x,x)(delta_k)), by linearity of the reduction
    residual = [I.reduce(col) for col in zip(*inclusion.projection_matrix(x, x))]
    constraints = {}
    for alpha, row in enumerate(rows):
        for k, ((ak, w1),) in row:
            for beta, ((akb, w2),) in rows[ak]:
                w = f.mul(w1, w2)
                for r, res in enumerate(residual[akb]):
                    if res != 0:
                        constraint = constraints.setdefault((alpha, beta, r), [f.zero()] * m)
                        constraint[k] = f.mul(w, res)
    return right_kernel(list(constraints.values()), m, f)
