"""Induced ideals, primitive ideals, and decomposition of annihilators.

For an ideal I of the isotropy algebra B(x, x), the induced ideal is

    { b in B : E(x,x)(g b h) lies in I for all g, h in B }.

The quantifier over g and h reduces to basis elements: (g, h) -> E(gbh)
is bilinear, so membership of E(gbh) mod I for all basis pairs forces it
for all pairs (one line: residuals of a bilinear map vanish on a basis
iff they vanish everywhere).  This makes the induced ideal the kernel
of an explicit linear map and keeps everything exact.

The decomposition theory verified here: the annihilator of any unital
module is the intersection over units of the ideals induced from the
annihilators of its germ spaces, every two-sided ideal is an
intersection of induced ideals, every primitive ideal is a single
induced ideal, and (in this finite discrete setting, where every unit
is isolated) the inducing ideal can always be chosen primitive.

The germ annihilators have a closed form.  For a unital B-module V, a
unit x and c in B(x, x) = delta_x B delta_x,

    Ann_{B(x,x)}(V / J_x V) = delta_x Ann(V) delta_x,

since c V lies in J_x V = (1 - delta_x) V iff delta_x c V = 0 iff c V = 0.
With V = B/I for a two-sided ideal I, Ann(V) = I, so the ideal that
induces I's summand at x is delta_x I delta_x, read off I's basis with no
module built (``ideal_decomposition``).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .errors import BudgetExceeded, TheoremViolation
from .isotropy import Inclusion
from .linalg import Subspace, right_kernel, rref
from .modrep import (
    LATTICE_BUDGET,
    FdModule,
    all_invariant_subspaces,
    annihilator,
    germ_space,
    is_irreducible,
    is_two_sided_ideal,
    quotient_module,
    regular_module,
)


@dataclass
class Ideal:
    """A two-sided ideal of a presented algebra, held as an RREF subspace."""

    algebra: object
    subspace: Subspace

    def __post_init__(self):
        if not is_two_sided_ideal(self.algebra, self.subspace):
            raise ValueError("subspace is not closed under two-sided multiplication")

    @property
    def dim(self):
        return self.subspace.dim


def induced_ideal(inclusion: Inclusion, x: int, I: Subspace) -> Subspace:
    """The ideal of B induced from an ideal I of the isotropy algebra at x.

    The kernel of one block of constraint rows per basis pair
    (alpha, beta): the matrix of c -> I.reduce(E(x,x)(delta_alpha c delta_beta)).
    Both products are read off ``B.rows``: rows[alpha] holds
    (k, ((alpha k, w1),)) and rows[alpha k] holds (beta, ((alpha k beta, w2),)),
    so column k of the block is w1 w2 times the residual of E on the arrow
    alpha k beta.  Only the rows that some nonzero entry touches are kept.
    The result is kept on the inclusion under (x, I.basis), next to its
    induced modules, so both ideal checks run on the first call only; a
    call that raises keeps nothing.
    """
    key = (x, I.basis)
    if key in inclusion._induced_ideals:
        return inclusion._induced_ideals[key]
    data = inclusion.isotropy_data(x, x)
    if not is_two_sided_ideal(data.presentation, I):
        raise ValueError("I is not a two-sided ideal of the isotropy algebra")
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
    out = right_kernel(list(constraints.values()), m, f)
    if not is_two_sided_ideal(inclusion.B, out):
        raise TheoremViolation("induced ideal is not two-sided")
    inclusion._induced_ideals[key] = out
    return out


def primitive_from_isotropy(inclusion: Inclusion, x: int, W: FdModule) -> Subspace:
    """Induce the annihilator of an irreducible isotropy module.

    Requires an exact irreducibility verdict; cross-checks the induced
    ideal against the annihilator of the induced module before returning.
    """
    from .induction import induce

    verdict = is_irreducible(W)
    if not (verdict.status == "irreducible" and verdict.certified):
        raise ValueError("witness module is not certified irreducible")
    ann_w = annihilator(W)
    ideal = induced_ideal(inclusion, x, ann_w)
    ind = induce(inclusion, x, W)
    if annihilator(ind.module) != ideal:
        raise TheoremViolation("induced annihilator mismatch")
    return ideal


def ideal_decomposition(inclusion: Inclusion, I: Subspace) -> dict:
    """{x: the ideal induced from delta_x I delta_x} over the units of B, for a
    two-sided ideal I, checked to intersect to I.

    delta_x I delta_x is the annihilator of the germ of B/I at x: c in
    delta_x B delta_x kills (B/I) / J_x (B/I) iff delta_x c (B/I) = 0 iff
    c (B/I) = 0 iff c lies in Ann(B/I) = I.  In B(x, x)'s coordinates it
    is the span of I's basis rows read at the isotropy arrows of x, the
    section pivots of C(x, x)/H(x, x).  So this is Prop 12.12 for V = B/I
    (I = 0 gives the regular module) with neither B/I nor a germ module
    built.  Raises TheoremViolation unless the intersection is I.
    """
    f, per_unit = inclusion.field, {}
    for x in inclusion.groupoid.units:
        arrows = inclusion.isotropy_data(x, x).quotient.section.pivots
        corner = Subspace.span([tuple(row[a] for a in arrows) for row in I.basis], len(arrows), f)
        per_unit[x] = induced_ideal(inclusion, x, corner)
    if functools.reduce(Subspace.intersect, per_unit.values()) != I:
        raise TheoremViolation("the induced ideals do not intersect to I")
    return per_unit


# ---------------------------------------------------------------------------
# ideal enumeration and the decomposition reports


def _moves(rows, g):
    """delta_g delta_a = w delta_(g a) for each arrow a that g composes with,
    read off ``B.rows`` as a -> (g a, w)."""
    return {a: (ga, w) for a, ((ga, w),) in rows[g]}


def _orbit_left_ideals(inclusion: Inclusion, x: int):
    """The left ideals of B inside the block of the orbit of x, as a list.

    Each is B.W = sum_y delta_(n_y) W for a submodule W of delta_x B (the
    arrows into x) under the left deltas of G_x, n_y from ``FiniteGroupoid.sections``.
    A product of deltas is one scaled delta, so delta_(n_y) W is read off
    ``B.rows`` and put in RREF on the arrows into y, except delta_x W = W
    (a normalized cocycle), RREF already.  These arrow sets are disjoint,
    so the blocks' rows, sorted by pivot, are the RREF basis of B.W.  Every
    gamma: y -> z is a multiple of n_z h n_y^-1 with h in G_x, so the
    deltas of h, n_y and n_y^-1 generate the block, and B.W is checked
    stable under them with ``contains_all``.
    """
    f, gpd, rows, m = inclusion.field, inclusion.groupoid, inclusion.B.rows, inclusion.m
    zero, arrows = f.zero(), gpd.into[x]
    isotropy = gpd.isotropy_group(x)
    local = inclusion.B.left_mult_rows(arrows)  # left multiplications on delta_x B
    actions = [local[h] for h in isotropy if h != x]
    sections = [n for y, n in gpd.sections(x).items() if y != x]
    moves = [_moves(rows, g) for g in [*isotropy, *sections, *(gpd.inv[n] for n in sections)]]
    placing = {}  # per y != x, the position of n_y a among the arrows into y and its scalar w
    for n in sections:
        position = {b: j for j, b in enumerate(gpd.into[gpd.tgt[n]])}
        placing[gpd.tgt[n]] = [(position[na], w) for na, w in map(_moves(rows, n).get, arrows)]
    out = []
    for W in all_invariant_subspaces(actions, len(arrows), f):
        placed = _placed(W.basis, W.pivots, arrows, m, zero)
        for y, targets in placing.items():
            moved = [[zero] * len(arrows) for _ in W.basis]
            for vec, row in zip(moved, W.basis):
                for (j, w), c in zip(targets, row):
                    if c != 0:
                        vec[j] = f.mul(w, c)
            placed += _placed(*rref(moved, f), gpd.into[y], m, zero)
        ideal = _joined(placed, m, f)
        if not ideal.contains_all(_images(ideal.basis, moves, m, f)):
            raise TheoremViolation(f"B.W is not a left ideal for W of dim {W.dim} at {x}")
        out.append(ideal)
    return out


def _placed(rows, pivots, support, m, zero):
    """(pivot arrow, vector of B) of each RREF row on the arrows ``support``."""
    out = []
    for r, pc in zip(rows, pivots):
        vec = [zero] * m
        for b, c in zip(support, r):
            vec[b] = c
        out.append((support[pc], tuple(vec)))
    return out


def _joined(rows, m, f) -> Subspace:
    """The span of RREF rows on disjoint sets of arrows, given as (pivot, row)
    pairs: sorted by pivot, they are its RREF basis."""
    rows = sorted(rows)
    return Subspace(m, f, [r for _, r in rows], [pc for pc, _ in rows])


def _images(vectors, moves, m, f):
    """The nonzero images of the vectors under the deltas given by their ``_moves``."""
    zero = f.zero()
    for v in vectors:
        support = [(a, c) for a, c in enumerate(v) if c != 0]
        for move in moves:
            terms = [(move[a], c) for a, c in support if a in move]
            if terms:
                img = [zero] * m
                for (ga, w), c in terms:
                    img[ga] = f.mul(w, c)
                yield img


def left_ideals(inclusion: Inclusion):
    """Every left ideal of B, enumerated at one unit per orbit.

    The orbit idempotents 1_O are central, so a left ideal L is the sum of
    its blocks 1_O L, and the imprimitivity bimodule makes 1_O L = B.W for
    W = delta_x L, x the least unit of O (``_orbit_left_ideals``): the
    blocks are the submodules of delta_x B, of dimension |O| |G_x|, over
    B(x, x).  L is one block per orbit; blocks sit on disjoint arrows, so
    their rows join into one RREF basis.  Exhaustive over GF(p) within the
    budgets: each enumeration within ``ENUMERATION_BUDGET``, and the
    product of the block counts within ``LATTICE_BUDGET``, refused before
    it is built.  Sorted by (dim, basis) so reports are deterministic; the
    ideals and the primitive ideals are both read off this one lattice.
    ``all_submodules(regular_module(B))`` is the same lattice at B level.
    """
    gpd, m, f = inclusion.groupoid, inclusion.m, inclusion.field
    factors = [_orbit_left_ideals(inclusion, x) for x in gpd.units if gpd.orbit(x)[0] == x]
    count = math.prod(map(len, factors))
    if count > LATTICE_BUDGET:
        raise BudgetExceeded(f"{count} left ideals exceed the lattice budget of {LATTICE_BUDGET}")
    ideals = [_joined([row for b in blocks for row in zip(b.pivots, b.basis)], m, f)
              for blocks in itertools.product(*factors)]
    return sorted(ideals, key=lambda s: (s.dim, s.basis))


def enumerate_ideals(inclusion: Inclusion, lattice):
    """The two-sided ideals of B: the left ideals (``lattice``, as
    ``left_ideals`` returns it) that are right ideals too, in lattice order."""
    return [s for s in lattice if is_two_sided_ideal(inclusion.B, s)]


def irreducible_quotients_of_regular(inclusion: Inclusion, lattice):
    """All simple quotients regular/M for maximal submodules M, with their data.

    ``lattice`` is every left ideal of B, as ``left_ideals`` returns it.
    Every irreducible module of a unital finite-dimensional algebra is a
    quotient of the regular module by a maximal submodule, so this list
    meets every primitive ideal.
    Returns a list of (maximal_submodule, simple_module) pairs.
    """
    reg = regular_module(inclusion.B)
    full_dim = reg.dim
    out = []
    for M in lattice:
        if M.dim == full_dim:
            continue
        is_maximal = not any(
            M.dim < W.dim < full_dim and W.contains_subspace(M) for W in lattice
        )
        if is_maximal:
            simple, _ = quotient_module(reg, M, name=f"simple/{M.dim}")
            out.append((M, simple))
    return out


def primitive_ideals(inclusion: Inclusion, lattice):
    """Primitive ideals of B as {annihilator of simple quotient}, deduplicated.

    ``lattice`` is every left ideal of B, as ``left_ideals`` returns it.
    Returns a sorted list of (ideal, witness simple module) pairs; the
    witness is any irreducible module with that annihilator.
    """
    seen = {}
    for _, simple in irreducible_quotients_of_regular(inclusion, lattice):
        ann = annihilator(simple)
        if ann.basis not in seen:
            seen[ann.basis] = (ann, simple)
    return [seen[k] for k in sorted(seen, key=lambda b: (len(b), b))]


@dataclass
class EffrosHahnReport:
    """Decomposition of one ideal into induced ideals."""

    ideal_dim: int
    per_unit_dims: dict
    decomposed: bool
    primitive_single_unit: int | None = None

    @property
    def ok(self) -> bool:
        return self.decomposed


def effros_hahn_check(inclusion: Inclusion, I: Subspace,
                      witness: FdModule | None = None) -> EffrosHahnReport:
    """Express an ideal as an intersection of induced ideals.

    Decomposes I through ``ideal_decomposition``: the germ of B/I at x has
    annihilator delta_x Ann(B/I) delta_x = delta_x I delta_x (c V lies in
    J_x V = (1 - delta_x) V iff delta_x c V = 0 iff c V = 0), so neither B/I
    nor its germ modules are built.  When a witness irreducible module with
    annihilator I is supplied, also finds a single unit x with I equal to
    the ideal induced from the annihilator of the witness's germ space at x.
    """
    if not is_two_sided_ideal(inclusion.B, I):
        raise ValueError("not a two-sided ideal")
    if I.dim == inclusion.m:
        raise ValueError("the improper ideal has no decomposition report")
    per_unit = ideal_decomposition(inclusion, I)
    single = None
    if witness is not None:
        if annihilator(witness) != I:
            raise ValueError("witness module does not have annihilator I")
        for x in inclusion.groupoid.units:
            g = germ_space(inclusion, witness, x)
            if g.quotient.dim == 0:
                continue
            candidate = induced_ideal(inclusion, x, annihilator(g.module))
            if candidate == I:
                single = x
                break
        if single is None:
            raise TheoremViolation("no single inducing unit found for a primitive ideal")
    return EffrosHahnReport(I.dim, {x: s.dim for x, s in per_unit.items()}, True, single)


@dataclass
class InducedPrimitivityReport:
    """Answer to: is this primitive ideal induced by a primitive isotropy ideal?

    In the finite discrete setting every unit is isolated, so the answer
    is always yes, with the germ space at the witnessing unit giving the
    irreducible inducing module.  The report only certifies this finite
    case.
    """

    answer: str
    unit: int | None
    inducing_ideal_dim: int | None
    germ_dim: int | None


def question_12_15_experiment(inclusion: Inclusion, I: Subspace, witness: FdModule) -> InducedPrimitivityReport:
    """Produce an explicit primitive inducing ideal for a primitive ideal.

    ``witness`` must be an irreducible module with annihilator I.  Finds
    a unit with nonzero germ space, certifies the germ space irreducible
    (exact over prime fields), and checks that the ideal induced from
    its annihilator recovers I.
    """
    if annihilator(witness) != I:
        raise ValueError("witness module does not have annihilator I")
    verdict = is_irreducible(witness)
    if not (verdict.status == "irreducible" and verdict.certified):
        raise ValueError("witness module is not certified irreducible")
    for x in inclusion.groupoid.units:
        g = germ_space(inclusion, witness, x)
        if g.quotient.dim == 0:
            continue
        germ_verdict = is_irreducible(g.module)
        if not (germ_verdict.status == "irreducible" and germ_verdict.certified):
            raise TheoremViolation("germ space of an irreducible module is reducible "
                                   "at an isolated point")
        ann_g = annihilator(g.module)
        induced = induced_ideal(inclusion, x, ann_g)
        if induced != I:
            raise TheoremViolation("induced primitive ideal does not recover I")
        return InducedPrimitivityReport("YES", x, ann_g.dim, g.quotient.dim)
    raise TheoremViolation("irreducible module with no nonzero germ space")
