"""The twisted convolution algebra of a finite groupoid.

Elements are finitely supported scalar coefficient functions on arrows;
the product is convolution twisted by a validated 2-cocycle:

    (f * g)(c) = sum over ab = c of w(a, b) f(a) g(b).

The functions supported on units form the canonical abelian subalgebra A
(pointwise multiplication), and sections supported on bisections are the
prototype normalizers of A.  ``presentation_of_B`` packages the whole
algebra as structure constants, the common carrier shared with isotropy
algebras and twisted group algebras.
"""

from __future__ import annotations

from .errors import BisectionRequired, NoPartialInverse
from .groupoid import FiniteGroupoid
from .linalg import Field, Subspace, common_denominator, int_row, right_kernel
from .twist import Cocycle, bundle_inverse_coefficient


def _require_validated(cocycle: Cocycle):
    if not cocycle.validated:
        raise ValueError("cocycle must pass validate_cocycle before use")


class AlgebraElement:
    """A finitely supported coefficient function on arrows.

    Stored sparsely with zero-elision, so equality is equality of the
    normalized mappings.  All arithmetic requires identical parent
    groupoid and cocycle.
    """

    __slots__ = ("groupoid", "cocycle", "coeffs")

    def __init__(self, groupoid: FiniteGroupoid, cocycle: Cocycle, coeffs=None):
        _require_validated(cocycle)
        self.groupoid = groupoid
        self.cocycle = cocycle
        self.coeffs = {a: v for a, v in (coeffs or {}).items() if v != 0}

    @property
    def field(self) -> Field:
        return self.cocycle.field

    def support(self):
        return sorted(self.coeffs)

    def __getitem__(self, arrow):
        return self.coeffs.get(arrow, self.field.zero())

    def is_zero(self) -> bool:
        return not self.coeffs

    def _check_parent(self, other: "AlgebraElement"):
        if self.groupoid is not other.groupoid or self.cocycle is not other.cocycle:
            raise ValueError("elements belong to different algebras")

    def __add__(self, other):
        self._check_parent(other)
        f = self.field
        out = dict(self.coeffs)
        for a, v in other.coeffs.items():
            out[a] = f.add(out.get(a, f.zero()), v)
        return AlgebraElement(self.groupoid, self.cocycle, out)

    def __sub__(self, other):
        self._check_parent(other)
        f = self.field
        out = dict(self.coeffs)
        for a, v in other.coeffs.items():
            out[a] = f.sub(out.get(a, f.zero()), v)
        return AlgebraElement(self.groupoid, self.cocycle, out)

    def scale(self, c):
        f = self.field
        return AlgebraElement(
            self.groupoid, self.cocycle, {a: f.mul(c, v) for a, v in self.coeffs.items()}
        )

    def __neg__(self):
        return self.scale(self.field.neg(self.field.one()))

    def __mul__(self, other):
        return convolve(self, other)

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraElement)
            and self.groupoid is other.groupoid
            and self.cocycle is other.cocycle
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash(tuple(sorted(self.coeffs.items(), key=lambda kv: kv[0])))

    def to_vector(self):
        """Dense coefficient tuple in arrow-id order."""
        zero = self.field.zero()
        return tuple(self.coeffs.get(a, zero) for a in range(self.groupoid.n_arrows))

    def __repr__(self):
        names = self.groupoid.arrow_names
        terms = [f"{self.field.format(v)}*d[{names[a]}]" for a, v in sorted(self.coeffs.items())]
        return " + ".join(terms) if terms else "0"


def element_from_vector(groupoid, cocycle, vec) -> AlgebraElement:
    return AlgebraElement(
        groupoid, cocycle, {a: v for a, v in enumerate(vec) if v != 0}
    )


def delta(groupoid, cocycle, arrow, value=None) -> AlgebraElement:
    value = cocycle.field.one() if value is None else value
    return AlgebraElement(groupoid, cocycle, {arrow: value})


def convolve(f: AlgebraElement, g: AlgebraElement) -> AlgebraElement:
    """Twisted convolution; bilinear, with support inside supp(f).supp(g)."""
    f._check_parent(g)
    gpd = f.groupoid
    fld = f.field
    w = f.cocycle
    out: dict = {}
    for a, fa in f.coeffs.items():
        sa = gpd.src[a]
        for b, gb in g.coeffs.items():
            if sa != gpd.tgt[b]:
                continue
            c = gpd.comp[a][b]
            term = fld.mul(w(a, b), fld.mul(fa, gb))
            acc = fld.add(out.get(c, fld.zero()), term)
            if acc == 0:
                out.pop(c, None)
            else:
                out[c] = acc
    return AlgebraElement(gpd, w, out)


def embed_unit_function(groupoid, cocycle, values) -> AlgebraElement:
    """Embed a scalar function on units as a unit-supported element.

    The embedding is an algebra homomorphism: convolution of two
    unit-supported elements is the pointwise product of the functions.
    """
    coeffs = {}
    for u, v in values.items():
        if not groupoid.is_unit(u):
            raise ValueError(f"arrow {u} is not a unit")
        coeffs[u] = v
    return AlgebraElement(groupoid, cocycle, coeffs)


def unit_indicator(groupoid, cocycle, units_subset) -> AlgebraElement:
    one = cocycle.field.one()
    return embed_unit_function(groupoid, cocycle, {u: one for u in units_subset})


def algebra_identity(groupoid, cocycle) -> AlgebraElement:
    """The indicator of all units: the two-sided identity of the algebra."""
    return unit_indicator(groupoid, cocycle, groupoid.units)


def delta_section(groupoid, cocycle, values) -> AlgebraElement:
    """Element supported on a bisection with the given nonzero values.

    These sections are exactly the prototype normalizers of A: the support
    being a bisection makes convolution against unit functions move points
    along a partial bijection of the unit space.
    """
    support = sorted(values)
    if not groupoid.is_bisection(support):
        raise BisectionRequired(f"support {support} is not a bisection")
    for a, v in values.items():
        if v == 0:
            raise ValueError(f"zero value on arrow {a} of the bisection")
    return AlgebraElement(groupoid, cocycle, dict(values))


def partial_inverse(n: AlgebraElement) -> AlgebraElement:
    """The partial inverse of a section supported on a bisection.

    Coefficientwise n*(c) = (w(c^-1, c) n(c^-1))^(-1) on the inverted
    support; the result satisfies n n* n = n, n* n n* = n* and conjugates
    the unit-function algebra into itself.
    """
    gpd = n.groupoid
    if not gpd.is_bisection(n.support()):
        raise BisectionRequired(f"support {n.support()} is not a bisection")
    out = {}
    for a, v in n.coeffs.items():
        if v == 0:
            raise NoPartialInverse("zero coefficient inside support")
        out[gpd.inv[a]] = bundle_inverse_coefficient(n.cocycle, a, v)
    return AlgebraElement(gpd, n.cocycle, out)


def dedicated_unit(elements, groupoid=None, cocycle=None) -> AlgebraElement:
    """A unit-supported element acting as identity on the given finite set.

    Returns the indicator of the union of all sources and targets of the
    supports; for an empty family (parent supplied explicitly) the empty
    indicator, i.e. zero.
    """
    if not elements:
        if groupoid is None or cocycle is None:
            raise ValueError("an empty family needs an explicit parent algebra")
        return AlgebraElement(groupoid, cocycle, {})
    gpd = elements[0].groupoid
    coc = elements[0].cocycle
    needed = set()
    for el in elements:
        el._check_parent(elements[0])
        for a in el.coeffs:
            needed.add(gpd.src[a])
            needed.add(gpd.tgt[a])
    return unit_indicator(gpd, coc, sorted(needed))


# ---------------------------------------------------------------------------
# presentations


class AlgebraPresentation:
    """A finite-dimensional algebra as sparse structure constants over a basis.

    The product is held once, as the canonical per-row index ``rows``:
    ``rows[i]`` is the tuple of (j, ((k, c), ...)) over the j with
    basis_i * basis_j != 0, in increasing j, each with the nonzero
    coefficients c of basis_k in increasing k.  So two presentations have
    the same product exactly when their ``rows`` are equal.  The
    constructor takes ``rows`` already in this form (``presentation_of_B``
    and the isotropy algebras walk their products in that order);
    ``from_products`` puts a mapping of products into it first.  Every
    product walks only these nonzero terms.  ``table`` is the dense view
    (``table[i][j]`` the coefficient tuple of basis_i * basis_j), built on
    first read.  The identity's coordinates, when present, are stored in
    ``unit``.  The multiplication maps (as sparse rows) and the constraint
    rows behind ``center`` are read straight off ``rows``; no operator is
    built by ``multiply``.
    """

    def __init__(self, field: Field, labels, rows, unit=None):
        self.field = field
        self.labels = tuple(labels)
        self.dim = len(self.labels)
        self.rows = tuple(rows)
        self.unit = tuple(unit) if unit is not None else None
        self._table = None

    @classmethod
    def from_products(cls, field: Field, labels, products, unit=None):
        """The presentation whose products are ``products``: a basis pair
        (i, j) mapped to the coefficients {k: c} of basis_i * basis_j, where
        zero coefficients and zero products may be left out."""
        rows = [[] for _ in labels]
        for (i, j), coeffs in products.items():
            terms = tuple(sorted((k, c) for k, c in coeffs.items() if c != 0))
            if terms:
                rows[i].append((j, terms))
        return cls(field, labels, (tuple(sorted(r)) for r in rows), unit)

    @property
    def table(self):
        """Dense structure constants; zero entries are ``field.zero()``."""
        if self._table is None:
            zero = self.field.zero()
            zero_row = (zero,) * self.dim
            table = []
            for row in self.rows:
                dense = [zero_row] * self.dim
                for j, terms in row:
                    vec = [zero] * self.dim
                    for k, c in terms:
                        vec[k] = c
                    dense[j] = tuple(vec)
                table.append(tuple(dense))
            self._table = tuple(table)
        return self._table

    def multiply(self, u, v):
        """Bilinear extension of the structure constants to vectors."""
        f = self.field
        out = [f.zero()] * self.dim
        for i, ui in enumerate(u):
            if ui == 0:
                continue
            for j, terms in self.rows[i]:
                vj = v[j]
                if vj != 0:
                    c = f.mul(ui, vj)
                    for k, pk in terms:
                        out[k] = f.add(out[k], f.mul(c, pk))
        return tuple(out)

    def left_mult_rows(self, support=None):
        """For each basis element a, the map v -> e_a v as sparse rows.

        Read off ``rows``: a product e_a e_b = sum p_k e_k puts p_k at
        (k, b) of the map of a.  Row k of a map holds its nonzero entries
        (column, value) in column order, the form of ``FdModule.entries``.
        A sorted ``support`` compresses every map to the span of those basis
        elements: rows and columns run over ``support``, and only terms with
        both indices in it count.  The maps left with no entry are one
        shared map of empty rows.
        """
        index = {k: r for r, k in enumerate(range(self.dim) if support is None else support)}
        return self._maps(index, ((a, b, terms) for a, row in enumerate(self.rows)
                                  for b, terms in row if b in index))

    def right_mult_rows(self, support=None):
        """For each basis element b, the map v -> v e_b, in the form of
        ``left_mult_rows``: e_a e_b = sum p_k e_k puts p_k at (k, a) of the
        map of b, so only the rows of ``rows`` at the a in ``support`` are read."""
        index = {k: r for r, k in enumerate(range(self.dim) if support is None else support)}
        return self._maps(index, ((b, a, terms) for a in index for b, terms in self.rows[a]))

    def _maps(self, index, products):
        """Each i's map from (i, column, terms): p at (k, column) per term (k, p), k in index."""
        maps = [None] * self.dim
        for i, col, terms in products:
            for k, p in terms:
                if k in index:
                    if maps[i] is None:
                        maps[i] = [[] for _ in index]
                    maps[i][index[k]].append((index[col], p))
        empty = ((),) * len(index)
        return [empty if m is None else tuple(map(tuple, m)) for m in maps]

    def basis_vector(self, i):
        f = self.field
        return tuple(f.one() if j == i else f.zero() for j in range(self.dim))

    def check_associativity(self):
        """None, or the first basis triple where (ij)k != i(jk).

        Only the triples where one side can have a nonzero term are
        compared; at every other triple both sides are zero.  (ij)k has
        one only when j is in row i and k in row l for an l of ij, and
        i(jk) only when k is in row j and l is in row i for an l of jk; the
        second kind is reached through ``left``, the i whose row holds l.
        The triples are compared in (i, j, k) order, so the first failure
        is the witness, for any structure constants.  Each side is summed in
        ints: over Q every constant is scaled by their common denominator D,
        so both sides scale by D^2; over GF(p) each side is reduced mod p once.
        """
        p = self.field.p
        scale = common_denominator(self.field, (c for row in self.rows for _, terms in row
                                                for _, c in terms))
        index = [{j: int_row(terms, scale) for j, terms in row} for row in self.rows]
        left = [[] for _ in range(self.dim)]
        for i, row in enumerate(self.rows):
            for l, _ in row:
                left[l].append(i)

        triples = set()
        for i, row in enumerate(self.rows):
            for j, ij in row:
                triples.update((i, j, k) for l, _ in ij for k in index[l])
        for j, row in enumerate(self.rows):
            for k, jk in row:
                triples.update((i, j, k) for l, _ in jk for i in left[l])

        def accumulate(pairs):
            out = {}
            for c, terms in pairs:
                for k, pk in terms:
                    out[k] = out.get(k, 0) + c * pk
            if p is not None:
                out = {k: c % p for k, c in out.items()}
            return {k: c for k, c in out.items() if c}

        for i, j, k in sorted(triples):
            lhs = accumulate((c, index[l].get(k, ())) for l, c in index[i].get(j, ()))
            rhs = accumulate((c, index[i].get(l, ())) for l, c in index[j].get(k, ()))
            if lhs != rhs:
                return (i, j, k)
        return None

    def check_unit(self) -> bool:
        if self.unit is None:
            return False
        for i in range(self.dim):
            e = self.basis_vector(i)
            if self.multiply(self.unit, e) != e or self.multiply(e, self.unit) != e:
                return False
        return True

    def center(self) -> Subspace:
        """The subspace of vectors c with e_i c = c e_i for every basis element i.

        The kernel of one constraint row per (i, k) that a product touches:
        the k-th coordinate of e_i c - c e_i.  A product e_a e_b = sum p_k e_k
        puts +p_k at column b of row (a, k) and -p_k at column a of row (b, k).
        """
        f = self.field
        constraints = {}
        for a, row in enumerate(self.rows):
            for b, terms in row:
                for k, p in terms:
                    for i, col, c in ((a, b, p), (b, a, f.neg(p))):
                        r = constraints.setdefault((i, k), [f.zero()] * self.dim)
                        r[col] = f.add(r[col], c)
        return right_kernel(list(constraints.values()), self.dim, f)

    def __repr__(self):
        return f"AlgebraPresentation(dim={self.dim}, {self.field})"


def presentation_of_B(groupoid: FiniteGroupoid, cocycle: Cocycle) -> AlgebraPresentation:
    """Structure constants of the convolution algebra on the delta basis.

    Basis i is the delta section at arrow i, so the dimension equals the
    number of arrows; the identity is the indicator of the units.  Row a
    of ``rows`` is delta_a delta_b = w(a, b) delta_(ab) over the b in
    ``into[src(a)]``, which is sorted, so the rows are built already
    canonical.
    """
    _require_validated(cocycle)
    f = cocycle.field
    w, one, src, into = cocycle.values.get, cocycle.one, groupoid.src, groupoid.into
    rows = [tuple((b, ((row[b], w((a, b), one)),)) for b in into[src[a]])
            for a, row in enumerate(groupoid.comp)]
    unit = [f.zero()] * groupoid.n_arrows
    for u in groupoid.units:
        unit[u] = f.one()
    return AlgebraPresentation(f, groupoid.arrow_names, rows, unit)


def twisted_group_algebra(table: dict, members, cocycle_values: dict, field: Field,
                          labels=None) -> AlgebraPresentation:
    """Presentation of a twisted group algebra from a group table and cocycle.

    ``members`` fixes the basis order; ``table`` and ``cocycle_values`` are
    keyed by member pairs (as returned by ``FiniteGroupoid.isotropy_table``
    and ``restrict_to_isotropy``).
    """
    members = list(members)
    index = {g: i for i, g in enumerate(members)}
    products = {
        (index[a], index[b]): {index[table[(a, b)]]: cocycle_values[(a, b)]}
        for a in members for b in members
    }
    identity = next(g for g in members if table[(g, g)] == g and all(
        table[(g, h)] == h for h in members
    ))
    unit = [field.zero()] * len(members)
    unit[index[identity]] = field.one()
    if labels is None:
        labels = [f"t{g}" for g in members]
    return AlgebraPresentation.from_products(field, labels, products, unit)

