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

A = K^units is a product of fields, so its ideals are spanned by unit
deltas (``c_space_for_ideals`` and ``isotropy_data_for_ideals`` take any
such pair; the package uses point ideals), and a product of two deltas
is one scaled delta or zero.  So all these spaces are delta spans, read
off B's product index as sets of arrows with no elimination, and E(y, x)
is the coordinate projection onto the arrows of C outside H.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ContainmentError, NotAUnit, TheoremViolation
from .groupoid import FiniteGroupoid
from .linalg import QuotientSpace, Subspace, mat_vec
from .steinberg import AlgebraPresentation, presentation_of_B, twisted_group_algebra
from .twist import Cocycle, restrict_to_isotropy


@dataclass
class PointIdeal:
    """The ideal of unit functions vanishing at x."""

    x: int
    basis: Subspace


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

    Holds the presentation of B and caches per-pair isotropy data (whose
    quotient section is the matrix of E(y, x)), isotropy identifications,
    the bimodules and induced modules of ``induction`` and the induced
    ideals of ``ideals``; every
    downstream construction (bimodules, induction, induced ideals) runs
    through it.
    Ideals of A, and every space built from a pair of them, are sets of
    arrows read off ``B.rows``; they are handed out as ``Subspace`` delta
    spans, whose pivots are those arrows.
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
        self._iso_cache = {}
        self._bimodules = {}
        self._induced = {}
        self._induced_ideals = {}

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

    def _span(self, arrows) -> Subspace:
        return Subspace.deltas(arrows, self.m, self.field)

    def _point_units(self, x) -> frozenset:
        """The units spanning J_x: every unit but x."""
        if not self.groupoid.is_unit(x):
            raise NotAUnit(f"arrow {x} is not a unit")
        return frozenset(self.groupoid.units) - {x}

    def point_ideal(self, x) -> PointIdeal:
        return PointIdeal(x, self._span(self._point_units(x)))

    def multiply(self, u, v):
        return self.B.multiply(u, v)

    # -- the L, C, H spaces as arrow sets ----------------------------------------

    def _units_of(self, ideal: Subspace) -> frozenset:
        """The units whose deltas span an ideal of A; any other subspace is refused."""
        for row, pc in zip(ideal.basis, ideal.pivots):
            if not self.groupoid.is_unit(pc) or any(c != 0 for c in row[pc + 1:]):
                raise ContainmentError("subspace is not spanned by unit deltas: not an ideal of A")
        return frozenset(ideal.pivots)

    def _products(self, S, T) -> set:
        """The arrows k with e_s e_t = c e_k for some s in S, t in T.

        Each entry of ``B.rows`` holds one term: a product of two deltas is
        one nonzero scaled delta, or zero and absent.
        """
        rows = self.B.rows
        return {k for s in S for t, ((k, _),) in rows[s] if t in T}

    def _arrow_sets(self, I, J):
        """(C, H, L) for ideals I, J of A, all given as sets of arrows."""
        rows, arrows = self.B.rows, range(self.m)
        IB, BJ = self._products(I, arrows), self._products(arrows, J)
        # c -> c u (u in J) and c -> u c (u in I) send delta_a to a scaled
        # delta_a or to 0, so C is spanned by the deltas that neither sends
        # outside IB, resp. BJ
        escapes = {a for a in arrows for u, ((k, _),) in rows[a] if u in J and k not in IB}
        escapes.update(a for u in I for a, ((k, _),) in rows[u] if k not in BJ)
        return set(arrows) - escapes, self._products(IB, J), IB | BJ

    def JB(self, y) -> Subspace:
        return self._span(self._products(self._point_units(y), range(self.m)))

    def BJ(self, x) -> Subspace:
        return self._span(self._products(range(self.m), self._point_units(x)))

    def left_right_spaces(self, y, x):
        """(J_y B, B J_x, L(y, x)) as subspaces of B."""
        jb, bj = self.JB(y), self.BJ(x)
        return jb, bj, self._span(jb.pivots + bj.pivots)

    def c_space_for_ideals(self, I: Subspace, J: Subspace) -> Subspace:
        """{c : c J in I B, I c in B J} for ideals I, J of A (general entry point)."""
        return self._span(self._arrow_sets(self._units_of(I), self._units_of(J))[0])

    def isotropy_data_for_ideals(self, I: Subspace, J: Subspace) -> IsotropyData:
        """C/H data for an ideal pair of A; asserts H = C cap L."""
        C, H, L = self._arrow_sets(self._units_of(I), self._units_of(J))
        if C & L != H:
            raise TheoremViolation("H = C intersect L failed for the given ideal pair")
        C, H = self._span(C), self._span(H)
        return IsotropyData(None, None, C, H, self._span(L), QuotientSpace(C, H))

    def isotropy_data(self, y, x) -> IsotropyData:
        """All spaces for the unit pair (y, x); cached; asserts regularity."""
        key = (y, x)
        if key in self._data:
            return self._data[key]
        data = self.isotropy_data_for_ideals(
            self.point_ideal(y).basis, self.point_ideal(x).basis
        )
        # dim(C + L) = dim C + dim L - dim H, since C cap L = H
        if data.C.dim + data.L.dim - data.H.dim != self.m:
            raise TheoremViolation(f"regularity B = C + L failed at ({y}, {x})")
        data.y, data.x = y, x
        if y == x:
            data.presentation, data.unit_coords = self._build_isotropy_presentation(x, data)
        self._data[key] = data
        return data

    def _build_isotropy_presentation(self, x, data):
        rows, quotient = self.B.rows, data.quotient
        in_C, in_H = set(data.C.pivots), set(data.H.pivots)
        # well-definedness of the product on C/H: H C + C H inside H
        for a in data.C.pivots:
            for b, ((k, _),) in rows[a]:
                if b in in_C and (a in in_H or b in in_H) and k not in in_H:
                    raise TheoremViolation("H is not an ideal of C")
        # the section basis is the deltas of the arrows in C outside H; the
        # pivots and each row of B increase, so these rows are canonical
        index = {a: i for i, a in enumerate(quotient.section.pivots)}
        products = [[] for _ in index]
        for a, i in index.items():
            for b, ((k, c),) in rows[a]:
                if b in index and k not in in_C:
                    raise TheoremViolation("product left the C space")
                if b in index and k in index:
                    products[i].append((index[b], ((index[k], c),)))
        if x not in in_C:
            raise TheoremViolation("unit indicator fell outside C(x, x)")
        unit_coords = quotient.project(self.delta_vector(x))
        labels = [f"c{i}" for i in range(quotient.dim)]
        pres = AlgebraPresentation(self.field, labels, map(tuple, products), unit_coords)
        if not pres.check_unit():
            raise TheoremViolation("unit class of the isotropy algebra failed")
        return pres, unit_coords

    # -- the projection E(y, x) -------------------------------------------------

    def projection_matrix(self, y, x):
        """Matrix of E(y, x): rows are quotient coordinates, columns arrows.

        Regularity (B = C + L) and H = C intersect L make the arrows of
        the section basis (those of C outside H) and the arrows of L a
        partition of all arrows.  E(y, x) kills L and fixes each section
        delta, so it is the coordinate projection onto the section arrows.
        """
        data = self.isotropy_data(y, x)
        section = data.quotient.section.pivots
        if len(section) + data.L.dim != self.m or not set(section).isdisjoint(data.L.pivots):
            raise TheoremViolation(f"section and L do not form a basis of B at ({y}, {x})")
        return data.quotient.section_basis

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
        failure since the identification holds by general theory.  The section
        basis is the deltas of the sorted section arrows, so a bijective ``matrix``
        is the identity and multiplicativity is equality of the ``rows``.
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
        if not set(data.L.pivots).isdisjoint(members):
            raise TheoremViolation("L(x, x) does not vanish on the isotropy group")
        section = data.quotient.section_basis
        matrix = tuple(tuple(s[g] for g in members) for s in section)
        restriction = Subspace.span(matrix, len(members), self.field)
        if restriction.dim != len(members):
            raise TheoremViolation("restriction map is not bijective")
        if data.presentation.rows != group_pres.rows:
            raise TheoremViolation("structure constants do not match")
        cert = IsotropyIsomorphism(x, members, matrix, data.presentation, group_pres)
        self._iso_cache[x] = cert
        return cert
