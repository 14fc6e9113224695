"""Isotropy algebras of the inclusion "unit functions inside convolution algebra".

For units x, y of the groupoid let J_x be the ideal of unit functions
vanishing at x.  Out of the pair (J_y, J_x) this module builds, inside
the convolution algebra B:

    C(y, x) = {c : c J_x in J_y B  and  J_y c in B J_x}
    H(y, x) = J_y B J_x             (= C intersect L)
    L(y, x) = J_y B + B J_x
    B(y, x) = C(y, x) / H(y, x)     (the isotropy module; an algebra when y = x)

together with the projection E(y, x): B -> B(y, x) that kills L.  The
pair (J_y, J_x) is always regular here (B = C + L), which the
constructor asserts.  For y = x the quotient is a unital algebra
canonically isomorphic to the twisted group algebra of the isotropy
group at x; the isomorphism is produced as an explicit certificate.

The general ideal-pair entry points (``c_space_for_ideals`` and
``isotropy_data_for_ideals``) accept arbitrary s-unital ideals of A;
the rest of the package only exercises them at point ideals.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotAUnit, TheoremViolation
from .groupoid import FiniteGroupoid
from .linalg import (
    QuotientSpace,
    Subspace,
    combine,
    identity_matrix,
    mat_vec,
    operator_matrix,
    right_kernel,
    rref,
)
from .steinberg import AlgebraPresentation, presentation_of_B, twisted_group_algebra
from .twist import Cocycle, restrict_to_isotropy


@dataclass
class PointIdeal:
    """The ideal of unit functions vanishing at x, with local units."""

    x: int
    basis: Subspace

    def local_unit_vector(self, vectors, inclusion):
        """Indicator of the union of supports: an idempotent u with uf = f.

        Works for any finite family inside the ideal; supports never
        contain x, so the indicator stays inside the ideal.
        """
        units = set()
        for v in vectors:
            for a, c in enumerate(v):
                if c != 0:
                    units.add(a)
        units.discard(self.x)
        return inclusion.unit_indicator_vector(sorted(units))


class IsotropyData:
    """The spaces and quotient attached to one pair of units."""

    __slots__ = ("y", "x", "C", "H", "L", "quotient", "presentation", "unit_coords")

    def __init__(self, y, x, C, H, L, quotient, presentation=None, unit_coords=None):
        self.y = y
        self.x = x
        self.C = C
        self.H = H
        self.L = L
        self.quotient = quotient
        self.presentation = presentation
        self.unit_coords = unit_coords

    @property
    def dim(self):
        return self.quotient.dim


@dataclass
class IsotropyIsomorphism:
    """Certificate matching an isotropy algebra with a twisted group algebra.

    ``members`` lists the isotropy arrows in basis order; ``matrix`` maps
    quotient section coordinates to coefficient functions on the members;
    the two presentations have identical structure constants under it.
    """

    x: int
    members: tuple
    matrix: tuple
    isotropy_presentation: AlgebraPresentation
    group_presentation: AlgebraPresentation


class Inclusion:
    """Shared context for one groupoid, twist and coefficient field.

    Holds the presentation of B and caches per-pair isotropy data,
    projection matrices and isotropy identifications; every downstream
    construction (bimodules, induction, induced ideals) runs through it.
    Linear constraints on B, such as those cutting out C(y, x), are the
    matrices (``linalg.operator_matrix``) of maps built from B's product
    on basis vectors.
    """

    def __init__(self, groupoid: FiniteGroupoid, cocycle: Cocycle):
        if not cocycle.validated:
            raise ValueError("cocycle must pass validate_cocycle before use")
        self.groupoid = groupoid
        self.cocycle = cocycle
        self.field = cocycle.field
        self.B = presentation_of_B(groupoid, cocycle)
        self.m = self.B.dim
        self._data = {}
        self._emat = {}
        self._iso_cache = {}

    # -- elementary vectors and subspaces -------------------------------------

    def unit_indicator_vector(self, units_subset):
        v = [self.field.zero()] * self.m
        for u in units_subset:
            if not self.groupoid.is_unit(u):
                raise NotAUnit(f"arrow {u} is not a unit")
            v[u] = self.field.one()
        return tuple(v)

    def delta_vector(self, arrow):
        v = [self.field.zero()] * self.m
        v[arrow] = self.field.one()
        return tuple(v)

    def A_subspace(self) -> Subspace:
        return Subspace.span(
            [self.delta_vector(u) for u in self.groupoid.units], self.m, self.field
        )

    def full_space(self) -> Subspace:
        return Subspace.full(self.m, self.field)

    def point_ideal(self, x) -> PointIdeal:
        if not self.groupoid.is_unit(x):
            raise NotAUnit(f"arrow {x} is not a unit")
        vectors = [self.delta_vector(u) for u in self.groupoid.units if u != x]
        return PointIdeal(x, Subspace.span(vectors, self.m, self.field))

    def multiply(self, u, v):
        return self.B.multiply(u, v)

    def subspace_product(self, S: Subspace, T: Subspace) -> Subspace:
        """span{s t} over basis pairs; bilinearity makes this the full product."""
        vectors = [self.multiply(s, t) for s in S.basis for t in T.basis]
        return Subspace.span(vectors, self.m, self.field)

    # -- the L, C, H spaces ----------------------------------------------------

    def JB(self, y) -> Subspace:
        return self.subspace_product(self.point_ideal(y).basis, self.full_space())

    def BJ(self, x) -> Subspace:
        return self.subspace_product(self.full_space(), self.point_ideal(x).basis)

    def left_right_spaces(self, y, x):
        """(J_y B, B J_x, L(y, x)) as subspaces of B."""
        jb = self.JB(y)
        bj = self.BJ(x)
        return jb, bj, jb.add(bj)

    def c_space_for_ideals(self, I: Subspace, J: Subspace) -> Subspace:
        """{c : c J in I B, I c in B J} for ideals I, J of A (general entry point)."""
        return self._c_space(I, J, *self._sided_products(I, J))

    def _sided_products(self, I, J):
        full = self.full_space()
        return self.subspace_product(I, full), self.subspace_product(full, J)

    def _c_space(self, I, J, IB, BJ) -> Subspace:
        m, f = self.m, self.field
        eye = identity_matrix(m, f)
        rows = []
        for a in J.basis:
            rows.extend(operator_matrix(lambda c: IB.reduce(self.multiply(c, a)), eye))
        for a in I.basis:
            rows.extend(operator_matrix(lambda c: BJ.reduce(self.multiply(a, c)), eye))
        return Subspace.span(right_kernel(rows, m, f), m, f)

    def isotropy_data_for_ideals(self, I: Subspace, J: Subspace) -> IsotropyData:
        """C/H data for a general s-unital ideal pair of A; asserts H = C cap L."""
        IB, BJ = self._sided_products(I, J)
        C = self._c_space(I, J, IB, BJ)
        L = IB.add(BJ)
        H = self.subspace_product(IB, J)
        if C.intersect(L) != H:
            raise TheoremViolation("H = C intersect L failed for the given ideal pair")
        return IsotropyData(None, None, C, H, L, QuotientSpace(C, H))

    def compute_C(self, y, x) -> Subspace:
        return self.c_space_for_ideals(
            self.point_ideal(y).basis, self.point_ideal(x).basis
        )

    def isotropy_data(self, y, x) -> IsotropyData:
        """All spaces for the unit pair (y, x); cached; asserts regularity."""
        key = (y, x)
        if key in self._data:
            return self._data[key]
        data = self.isotropy_data_for_ideals(
            self.point_ideal(y).basis, self.point_ideal(x).basis
        )
        if data.C.add(data.L).dim != self.m:
            raise TheoremViolation(f"regularity B = C + L failed at ({y}, {x})")
        data.y, data.x = y, x
        if y == x:
            data.presentation, data.unit_coords = self._build_isotropy_presentation(
                x, data.C, data.H, data.quotient
            )
        self._data[key] = data
        return data

    def _build_isotropy_presentation(self, x, C, H, quotient):
        # well-definedness of the product on C/H: H C + C H inside H
        for h in H.basis:
            for c in C.basis:
                if self.multiply(h, c) not in H or self.multiply(c, h) not in H:
                    raise TheoremViolation("H is not an ideal of C")
        section = quotient.section_basis
        products = {}
        for i, s in enumerate(section):
            for j, t in enumerate(section):
                prod = self.multiply(s, t)
                if prod not in C:
                    raise TheoremViolation("product left the C space")
                products[(i, j)] = dict(enumerate(quotient.project(prod)))
        unit = self.delta_vector(x)
        if unit not in C:
            raise TheoremViolation("unit indicator fell outside C(x, x)")
        unit_coords = quotient.project(unit)
        labels = [f"c{i}" for i in range(quotient.dim)]
        pres = AlgebraPresentation(self.field, labels, products, unit_coords)
        if not pres.check_unit():
            raise TheoremViolation("unit class of the isotropy algebra failed")
        return pres, unit_coords

    def isotropy_algebra(self, x) -> IsotropyData:
        return self.isotropy_data(x, x)

    # -- the projection E(y, x) -------------------------------------------------

    def projection_matrix(self, y, x):
        """Matrix of E(y, x): rows are quotient coordinates, columns arrows.

        Regularity (B = C + L) and H = C intersect L make the section basis
        of C/H together with a basis of L a basis of B.  One row reduction
        of [section ; L basis | identity] inverts that basis: the row with
        pivot at arrow a writes delta_a as a combination of the stacked
        rows, and its section coefficients are E(y, x)(delta_a).
        """
        key = (y, x)
        if key in self._emat:
            return self._emat[key]
        data = self.isotropy_data(y, x)
        stack = data.quotient.section_basis + data.L.basis
        eye = identity_matrix(len(stack), self.field)
        reduced, pivots = rref([s + e for s, e in zip(stack, eye)], self.field)
        if pivots != list(range(self.m)):
            raise TheoremViolation(f"section and L do not form a basis of B at ({y}, {x})")
        d = data.quotient.dim
        mat = tuple(
            tuple(reduced[a][self.m + r] for a in range(self.m)) for r in range(d)
        )
        self._emat[key] = mat
        return mat

    def isotropy_projection(self, x, vec):
        """E(x, x) applied to an element or coefficient vector; quotient coords."""
        if hasattr(vec, "to_vector"):
            vec = vec.to_vector()
        return mat_vec(self.projection_matrix(x, x), vec, self.field)

    def projection(self, y, x, vec):
        return mat_vec(self.projection_matrix(y, x), vec, self.field)

    # -- bimodule products -------------------------------------------------------

    def bimodule_product(self, z, y, x, g_coords, h_coords):
        """B(z, y) x B(y, x) -> B(z, x) on quotient coordinates."""
        dzy = self.isotropy_data(z, y)
        dyx = self.isotropy_data(y, x)
        dzx = self.isotropy_data(z, x)
        g = dzy.quotient.inject(g_coords)
        h = dyx.quotient.inject(h_coords)
        prod = self.multiply(g, h)
        if prod not in dzx.C:
            raise TheoremViolation("bimodule product left the C space")
        return dzx.quotient.project(prod)

    # -- identification with the twisted group algebra ---------------------------

    def identify_with_twisted_group_algebra(self, x) -> IsotropyIsomorphism:
        """The restriction map B(x,x) -> functions on the isotropy group.

        Verifies bijectivity and multiplicativity against the twisted
        group algebra of the restricted cocycle; a mismatch is a hard
        failure since the identification holds by general theory.
        """
        if x in self._iso_cache:
            return self._iso_cache[x]
        data = self.isotropy_data(x, x)
        members = tuple(self.groupoid.isotropy_group(x))
        group_pres = twisted_group_algebra(
            self.groupoid.isotropy_table(x),
            members,
            restrict_to_isotropy(self.cocycle, x),
            self.field,
        )
        if data.dim != len(members):
            raise TheoremViolation(
                f"dim B({x},{x}) = {data.dim} but isotropy group has {len(members)} arrows"
            )
        # L(x, x) must vanish on the isotropy group (null-space description)
        for row in data.L.basis:
            if any(row[g] != 0 for g in members):
                raise TheoremViolation("L(x, x) does not vanish on the isotropy group")
        section = data.quotient.section_basis
        matrix = tuple(tuple(s[g] for g in members) for s in section)
        restriction = Subspace.span(matrix, len(members), self.field)
        if restriction.dim != len(members):
            raise TheoremViolation("restriction map is not bijective")
        for i in range(data.dim):
            for j in range(data.dim):
                prod_coords = data.presentation.table[i][j]
                lhs = combine(prod_coords, matrix, self.field)
                rhs = group_pres.multiply(matrix[i], matrix[j])
                if lhs != rhs:
                    raise TheoremViolation("structure constants do not match")
        cert = IsotropyIsomorphism(x, members, matrix, data.presentation, group_pres)
        self._iso_cache[x] = cert
        return cert
