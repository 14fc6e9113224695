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
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import TheoremViolation
from .isotropy import Inclusion
from .linalg import Subspace, right_kernel
from .modrep import (
    FdModule,
    all_submodules,
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
    """
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
    basis = right_kernel(list(constraints.values()), m, f)
    out = Subspace.span(basis, m, f)
    if not is_two_sided_ideal(inclusion.B, out):
        raise TheoremViolation("induced ideal is not two-sided")
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


@dataclass
class GermDecomposition:
    """Per-unit induced annihilators of the germ spaces and their intersection."""

    annihilator: Subspace
    per_unit: dict
    intersection: Subspace

    @property
    def ok(self) -> bool:
        return self.annihilator == self.intersection


def germ_annihilator_decomposition(inclusion: Inclusion, V: FdModule) -> GermDecomposition:
    """Ann(V) as the intersection of the ideals induced from the germ annihilators."""
    ann = annihilator(V)
    per_unit = {}
    intersection = None
    for x in inclusion.groupoid.units:
        g = germ_space(inclusion, V, x)
        ann_g = annihilator(g.module)
        ind = induced_ideal(inclusion, x, ann_g)
        per_unit[x] = ind
        intersection = ind if intersection is None else intersection.intersect(ind)
    if intersection is None:
        intersection = Subspace.full(inclusion.m, inclusion.field)
    out = GermDecomposition(ann, per_unit, intersection)
    if not out.ok:
        raise TheoremViolation("germ decomposition missed the annihilator")
    return out


# ---------------------------------------------------------------------------
# ideal enumeration and the decomposition reports


def left_ideals(inclusion: Inclusion):
    """Every left ideal of B: the submodule lattice of its regular module.

    Exhaustive over GF(p) within the budget; sorted by (dim, basis) so
    reports are deterministic.  The ideals and the primitive ideals are
    both read off this one lattice.
    """
    return all_submodules(regular_module(inclusion.B))


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


def effros_hahn_check(inclusion: Inclusion, I: Subspace, witness: FdModule | None = None) -> EffrosHahnReport:
    """Express an ideal as an intersection of induced ideals.

    Builds V = B/I, decomposes Ann(V) = I through the germ spaces; when a
    witness irreducible module with annihilator I is supplied, also finds
    a single unit x with I equal to the ideal induced from the
    annihilator of the witness's germ space at x.
    """
    if not is_two_sided_ideal(inclusion.B, I):
        raise ValueError("not a two-sided ideal")
    if I.dim == inclusion.m:
        raise ValueError("the improper ideal has no decomposition report")
    reg = regular_module(inclusion.B)
    V, _ = quotient_module(reg, I, name="B/I")
    ann = annihilator(V)
    if ann != I:
        raise TheoremViolation("Ann(B/I) differs from I")
    decomposition = germ_annihilator_decomposition(inclusion, V)
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
    return EffrosHahnReport(
        I.dim,
        {x: s.dim for x, s in decomposition.per_unit.items()},
        decomposition.ok,
        single,
    )


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
