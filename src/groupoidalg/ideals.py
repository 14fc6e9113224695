"""Induced ideals, primitive ideals, and decomposition of annihilators.

For an ideal I of the isotropy algebra B(x, x), the induced ideal is

    Ind_x(I) = { b in B : E(x,x)(g b h) lies in I for all g, h in B },

the largest ideal whose corner delta_x . delta_x lies in I.  The
imprimitivity bimodule makes the block 1_O B of the orbit O of x Morita
equivalent to B(x, x), so Ind_x(I) is the span of the arrows outside O
and of the blocks delta_(n_z) I delta_(n_y^-1) for y, z in O, n_y: x -> y
the orbit sections.  ``induced_ideal`` places these blocks with no linear
system solved and checks the result against a lemma that makes it exactly
Ind_x(I), all in exact arithmetic.

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
from .linalg import Subspace, rref
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
    """Ind_x(I), the ideal of B induced from an ideal I of the isotropy
    algebra at x: {b in B : E(x,x)(g b h) lies in I for all g, h in B}.

    E(x,x)(c) is the corner delta_x c delta_x read at the isotropy arrows
    of x.  ``_place_induced`` places the ideal with no linear system
    solved, and the lemma below checks that it is Ind_x(I).  Let O be the
    orbit of x, 1_O (the indicator of its units) its central idempotent
    and n_y: x -> y the sections of ``FiniteGroupoid.sections``.

    Lemma.  An ideal P of B that contains (1 - 1_O) B and has corner
    delta_x P delta_x = I is Ind_x(I).
    (a) Ind_x(I) is the largest ideal whose corner lies in I: it is an
        ideal, g = h = delta_x puts its corner in I, and for b in an ideal
        K with corner in I, E(g b h) lies in delta_x K delta_x, inside I.
    (b) Every ideal K inside 1_O B is B (delta_x K delta_x) B: K = 1_O K 1_O
        is the sum of the delta_z K delta_y over y, z in O, and delta_y is
        a scaled delta_(n_y) delta_x delta_(n_y^-1), so delta_z k delta_y
        lies in B delta_x (delta_(n_z^-1) k delta_(n_y)) delta_x B.
    (c) By (a), P lies in Q = Ind_x(I).  Q = (1 - 1_O) Q + 1_O Q, the first
        term lies in P, and by (b) 1_O Q = B (delta_x Q delta_x) B lies in
        B (delta_x P delta_x) B, inside P.  So P = Q.
    An ideal contains (1 - 1_O) B iff it contains 1 - 1_O.  So the result
    is refused with a TheoremViolation unless it contains 1 - 1_O, its rows
    read at the isotropy arrows of x span I, and it is two-sided: whatever
    the placement did, what is returned is Ind_x(I).

    The result is kept on the inclusion under (x, I.basis), next to its
    induced modules.  The units of one orbit induce one ideal from the
    corners of one ideal, so a result equal to one held already is taken
    as that one, and the two-sided check runs once per distinct result.  A
    call that raises keeps nothing.
    """
    key = (x, I.basis)
    held = inclusion._induced_ideals
    if key in held:
        return held[key]
    data = inclusion.isotropy_data(x, x)
    if not is_two_sided_ideal(data.presentation, I):
        raise ValueError("I is not a two-sided ideal of the isotropy algebra")
    gpd, isotropy = inclusion.groupoid, data.quotient.section.pivots
    placed = _place_induced(inclusion, x, I)
    out = next((s for s in held.values() if s == placed), placed)
    orbit = gpd.orbit(x)
    if inclusion.unit_indicator_vector([u for u in gpd.units if u not in orbit]) not in out:
        raise TheoremViolation("induced ideal misses a unit outside the orbit")
    corner = [tuple(row[a] for a in isotropy) for row in out.basis]
    if Subspace.span(corner, len(isotropy), inclusion.field) != I:
        raise TheoremViolation("the corner of the induced ideal is not I")
    if out is placed and not is_two_sided_ideal(inclusion.B, out):
        raise TheoremViolation("induced ideal is not two-sided")
    held[key] = out
    return out


def _place_induced(inclusion: Inclusion, x: int, I: Subspace) -> Subspace:
    """The span of the deltas of the arrows outside the orbit O of x and,
    for each pair (y, z) of O, the block delta_(n_z) I delta_(n_y^-1).

    h -> n_z h n_y^-1 maps G_x (I's coordinates) onto the arrows y -> z,
    and delta_(n_z) (delta_h delta_(n_y^-1)) = w1 w2 delta_(n_z h n_y^-1),
    both scalars read off ``B.rows`` through ``_moves``.  The blocks sit on
    disjoint arrows, so their RREF rows join into one RREF basis."""
    f, gpd, rows, m = inclusion.field, inclusion.groupoid, inclusion.B.rows, inclusion.m
    sections = gpd.sections(x)
    outside = [a for a in range(m) if gpd.tgt[a] not in sections]
    placed = list(zip(outside, Subspace.deltas(outside, m, f).basis))
    if I.dim:
        right = [_moves(rows, h) for h in inclusion.isotropy_data(x, x).quotient.section.pivots]
        for z, nz in sections.items():
            left, hom = _moves(rows, nz), {y: [] for y in sections}  # hom[y]: the arrows y -> z
            for b in gpd.into[z]:
                hom[gpd.src[b]].append(b)
            for y, ny in sections.items():
                position, targets = {b: j for j, b in enumerate(hom[y])}, []
                for move in right:
                    hb, w1 = move[gpd.inv[ny]]
                    a, w2 = left[hb]
                    targets.append((position[a], f.mul(w1, w2)))
                placed += _block(I.basis, targets, hom[y], m, f)
    return _joined(placed, m, f)


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
    built.  Raises TheoremViolation unless the intersection is I.  Each
    distinct ideal enters the intersection once (the units of one orbit
    share one held ideal): S cap S = S, and RREF bases are canonical.
    """
    f, per_unit = inclusion.field, {}
    for x in inclusion.groupoid.units:
        arrows = inclusion.isotropy_data(x, x).quotient.section.pivots
        corner = Subspace.span([tuple(row[a] for a in arrows) for row in I.basis], len(arrows), f)
        per_unit[x] = induced_ideal(inclusion, x, corner)
    if functools.reduce(Subspace.intersect, dict.fromkeys(per_unit.values())) != I:
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
            placed += _block(W.basis, targets, gpd.into[y], m, f)
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


def _block(basis, targets, support, m, f):
    """``_placed`` of the RREF of the basis rows moved onto the arrows
    ``support``: coordinate i goes to position j, scaled by w, for
    (j, w) = targets[i]."""
    zero = f.zero()
    moved = [[zero] * len(support) for _ in basis]
    for vec, row in zip(moved, basis):
        for (j, w), c in zip(targets, row):
            if c != 0:
                vec[j] = f.mul(w, c)
    return _placed(*rref(moved, f), support, m, zero)


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
    By the same lemma that annihilator is delta_x I delta_x, so the ideal it
    induces is the decomposition's entry at x, and x is the first unit
    whose entry is I (a zero germ has annihilator B(x, x), which induces B).
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
        single = next((x for x, s in per_unit.items() if s == I), None)
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
