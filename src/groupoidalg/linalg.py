"""Exact scalar and subspace arithmetic over the rationals and prime fields.

Every vector space computation in the package runs through this module:
row-reduced echelon bases make subspace equality a syntactic check, and
quotients come with a deterministic section (coset representatives with
zeros in the kernel's pivot columns), read off the numerator's RREF rows
with no elimination: the rows whose pivots are not the kernel's.

All elimination goes through one incremental echelon engine: ``eliminate``
reduces a vector against an RREF basis and ``insert_row`` adds one to it;
``rref``, residuals and invariant closures are built on them, the cyclic
closures of module enumeration over odd GF(p) included.  The one exception
is that enumeration over GF(2): ``modrep._bitmask_vectors`` holds its rows
as int bitmasks and inserts them with the same calling convention, since
through ``insert_row`` the submodules of the regular module of M_4(F_2)
took 9.3-11.7 s instead of 2.4-3.6 s.  Left ideals are enumerated at one
unit per orbit (``ideals.left_ideals``), so a whole B-module is enumerated
only by ``all_submodules`` and ``is_irreducible`` on it: the test oracle of
the left ideals, and the witnesses of the primitive ideals.  Membership
(``Subspace.contains_all``) needs no elimination: it checks the equations
an RREF basis puts on its non-pivot columns.  Spans of standard basis
vectors (``Subspace.deltas``) need none either: their RREF bases are
written down directly.
Linear combinations of rows and the matrix products that build
matrices go through ``combine``, which skips zero coefficients and zero
entries; the exact checks of the module law, module maps and associativity
multiply their nonzero entries in ints instead (``int_row``, scaled over Q
by a ``common_denominator``).  Module actions and multiplication maps are
held as sparse rows, each row the (column, value) pairs of its nonzero
entries in column order: ``apply_rows`` applies one to a vector,
``transpose_rows`` transposes one, and ``sparse_rows`` and
``dense_rows`` convert to and from a dense matrix where an oracle or a
dense linear system needs one.  The matrix
of a linear map given by its values on a domain basis is taken through
``operator_matrix``: column k is the map applied to the k-th basis
vector.  Matrices and constraint rows that come from a product law (the
multiplication matrices, whole or compressed as the bimodule's actions,
the center) are read straight off ``AlgebraPresentation.rows``, and so are
the scalars that place left and induced ideals block by block.

Scalars are `fractions.Fraction` over the rationals and plain ints in
``[0, p)`` over GF(p), p < 2**64, with p's primality decided by
``isprime``, a deterministic Miller-Rabin test.  No floating point is used
anywhere.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction

from .errors import ContainmentError, DimensionMismatch

# The first twelve primes.  A strong probable prime to all of them that is
# below 318665857834031151167461 (about 3.18e23) is prime (Sorenson and
# Webster, Math. Comp. 86 (2017) 985-1003), far above GF(p)'s 2**64.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Fraction is immutable, so every rational zero and one can be these two.
_Q_ZERO, _Q_ONE = Fraction(0), Fraction(1)


def isprime(n: int) -> bool:
    """Whether n is prime; deterministic for every n below 3.18e23.

    Trial division by the bases, then one strong-probable-prime round per
    base (Miller-Rabin).
    """
    if n < 2:
        return False
    for q in _PRIME_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """The rationals, or the prime field GF(p).

    Over GF(p) all values are ints reduced into ``[0, p)``; over the
    rationals they are `Fraction` instances (always stored reduced, with
    positive denominator, which `Fraction` guarantees).
    """

    def __init__(self, p: int | None = None):
        if p is not None:
            if p >= 2**64:  # the supported range; isprime is exact far beyond it
                raise ValueError("GF(p) needs a prime p < 2**64")
            if not isprime(p):
                raise ValueError(f"{p} is not prime")
        self.p = p

    def zero(self):
        return 0 if self.p is not None else _Q_ZERO

    def one(self):
        return 1 if self.p is not None else _Q_ONE

    def of(self, n):
        """Coerce an int, Fraction or scalar string into this field."""
        if isinstance(n, str):
            return self.parse(n)
        if self.p is not None:
            if isinstance(n, Fraction):
                if n.denominator % self.p == 0:
                    raise ZeroDivisionError(f"denominator not invertible mod {self.p}")
                return n.numerator * pow(n.denominator, -1, self.p) % self.p
            return int(n) % self.p
        return Fraction(n)

    def add(self, a, b):
        return (a + b) % self.p if self.p is not None else a + b

    def sub(self, a, b):
        return (a - b) % self.p if self.p is not None else a - b

    def neg(self, a):
        return (-a) % self.p if self.p is not None else -a

    def mul(self, a, b):
        return (a * b) % self.p if self.p is not None else a * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p) if self.p is not None else 1 / Fraction(a)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def parse(self, text: str):
        """Parse "a/b" or "a" (rationals), or a decimal residue (GF(p))."""
        text = text.strip()
        if self.p is not None:
            return int(text) % self.p
        return Fraction(text)

    def format(self, a) -> str:
        return str(a)

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return "Q" if self.p is None else f"GF({self.p})"


QQ = Field()


def GF(p: int) -> Field:
    return Field(p)


# ---------------------------------------------------------------------------
# matrix helpers (rows are tuples of field scalars)


def eliminate(v, basis, pivots, field):
    """Residual of v after clearing the pivot columns of an RREF basis.

    Returns a list; it is all zero iff v lies in the span of the basis.
    """
    v = list(v)
    for row, pc in zip(basis, pivots):
        c = v[pc]
        if c != 0:
            for j in range(pc, len(v)):
                if row[j] != 0:
                    v[j] = field.sub(v[j], field.mul(c, row[j]))
    return v


def insert_row(basis, pivots, v, field) -> bool:
    """Add v to an RREF basis held in two lists, in place.

    Returns False, changing nothing, when v already lies in the span.
    Otherwise the residual of v is scaled to a leading 1, its zero entries
    replaced by ``field.zero()`` (so over the rationals every entry is a
    `Fraction`), cleared out of the other rows and inserted in pivot
    order, keeping the basis fully reduced.
    """
    v = eliminate(v, basis, pivots, field)
    piv = next((j for j, c in enumerate(v) if c != 0), None)
    if piv is None:
        return False
    inv = field.inv(v[piv])
    zero = field.zero()
    v = [field.mul(inv, c) if c != 0 else zero for c in v]
    for row in basis:
        c = row[piv]
        if c != 0:
            for j in range(piv, len(v)):
                if v[j] != 0:
                    row[j] = field.sub(row[j], field.mul(c, v[j]))
    idx = bisect.bisect(pivots, piv)
    basis.insert(idx, v)
    pivots.insert(idx, piv)
    return True


def common_denominator(field, values):
    """The least common denominator of the values over Q.

    None over GF(p), whose entries already are ints.
    """
    return None if field.p is not None else math.lcm(*{a.denominator for a in values})


def int_row(row, scale):
    """A sparse row's (index, a) pairs with each a times ``scale``, as ints.

    ``scale`` is a common denominator, so ``scale // a.denominator`` is
    exact and no `Fraction` is built; a None scale (GF(p)) keeps the row.
    """
    if scale is None:
        return row
    return [(k, a.numerator * (scale // a.denominator)) for k, a in row]


def rref(rows, field):
    """Reduced row echelon form.  Returns (rows, pivot_columns).

    Output rows are nonzero, pivot entries are 1, pivot columns strictly
    increase and are zero in every other row: the canonical basis of the
    row space.  Built by inserting the rows one at a time.
    """
    basis, pivots = [], []
    for r in rows:
        insert_row(basis, pivots, r, field)
        if basis and len(basis) == len(basis[0]):
            break  # full rank: every remaining row lies in the span
    return [tuple(r) for r in basis], pivots


def combine(coeffs, rows, field):
    """The linear combination sum_i coeffs[i] * rows[i] as a tuple.

    Zero coefficients and zero entries are skipped.  The rows share one
    length; an empty family combines to ().
    """
    out = [field.zero()] * (len(rows[0]) if rows else 0)
    for c, row in zip(coeffs, rows):
        if c != 0:
            for j, a in enumerate(row):
                if a != 0:
                    out[j] = field.add(out[j], field.mul(c, a))
    return tuple(out)


def mat_vec(mat, vec, field):
    return tuple(
        _dot(row, vec, field) for row in mat
    )


def sparse_rows(mat):
    """A dense matrix as rows of its nonzero (column, value) entries, in column order."""
    return tuple(tuple((c, a) for c, a in enumerate(row) if a) for row in mat)


def dense_rows(rows, ncols, field):
    """Sparse rows as a dense matrix; the entries not held are ``field.zero()``."""
    zero = field.zero()
    out = []
    for row in rows:
        dense = [zero] * ncols
        for c, a in row:
            dense[c] = a
        out.append(tuple(dense))
    return tuple(out)


def transpose_rows(rows, ncols):
    """The transpose of a matrix held as sparse rows: column c's (row, value) pairs, in row order."""
    columns = [[] for _ in range(ncols)]
    for r, row in enumerate(rows):
        for c, a in row:
            columns[c].append((r, a))
    return columns


def apply_rows(rows, vec, field):
    """The matrix held as sparse rows times a dense vector.

    The same sums as ``mat_vec`` on the dense matrix, in the same order:
    each starts at ``field.zero()`` and adds the products of the entries
    held against the nonzero coordinates of vec.
    """
    out = []
    for row in rows:
        acc = field.zero()
        for c, a in row:
            b = vec[c]
            if b != 0:
                acc = field.add(acc, field.mul(a, b))
        out.append(acc)
    return tuple(out)


def _dot(u, v, field):
    acc = field.zero()
    for a, b in zip(u, v):
        if a != 0 and b != 0:
            acc = field.add(acc, field.mul(a, b))
    return acc


def mat_mul(a, b, field):
    """The product a b: row r is the combination of b's rows by a's row r."""
    return tuple(combine(row, b, field) for row in a)


def identity_matrix(n, field):
    one, zero = field.one(), field.zero()
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def zero_vector(n, field):
    return (field.zero(),) * n


def operator_matrix(op, domain):
    """Matrix of a linear map given by its values: column k is op(domain[k]).

    ``domain`` lists the domain's basis in whatever form ``op`` takes
    (``identity_matrix(n, field)`` for the standard basis of K^n); the
    rows of the result are the coordinates of op's outputs.  An empty
    domain gives the empty matrix.
    """
    return tuple(zip(*(op(v) for v in domain)))


def right_kernel(rows, ncols, field) -> "Subspace":
    """The subspace {v : M v = 0} of K^ncols for the matrix with the given rows."""
    reduced, pivots = rref(rows, field)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [field.zero()] * ncols
        v[fc] = field.one()
        for r, pc in enumerate(pivots):
            # row r reads: v[pc] + sum_{c free} M[r][c] v[c] = 0
            v[pc] = field.neg(reduced[r][fc])
        basis.append(tuple(v))
    return Subspace(ncols, field, *rref(basis, field))


def solve_right(rows, target, field):
    """One solution x of M x = target (columns of M indexed like x), or None."""
    if not rows:
        return None if any(t != 0 for t in target) else ()
    ncols = len(rows[0])
    aug = [tuple(row) + (t,) for row, t in zip(rows, target)]
    reduced, pivots = rref(aug, field)
    if ncols in pivots:
        return None
    x = [field.zero()] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = reduced[r][ncols]
    return tuple(x)


# ---------------------------------------------------------------------------
# subspaces


class Subspace:
    """A linear subspace of K^n held as a canonical RREF basis.

    Because the basis is canonical, two subspaces are equal as sets if and
    only if their basis tuples are identical.  Instances are immutable; the
    membership equations are read off the basis on first use.
    """

    __slots__ = ("ambient_dim", "field", "basis", "pivots", "_equations")

    def __init__(self, ambient_dim, field, basis, pivots):
        self.ambient_dim = ambient_dim
        self.field = field
        self.basis = tuple(basis)
        self.pivots = tuple(pivots)
        self._equations = None

    @classmethod
    def span(cls, vectors, ambient_dim, field) -> "Subspace":
        vectors = [tuple(v) for v in vectors]
        for v in vectors:
            if len(v) != ambient_dim:
                raise DimensionMismatch(
                    f"vector of length {len(v)} in ambient dimension {ambient_dim}"
                )
        basis, pivots = rref(vectors, field)
        return cls(ambient_dim, field, basis, pivots)

    @classmethod
    def zero(cls, ambient_dim, field) -> "Subspace":
        return cls(ambient_dim, field, (), ())

    @classmethod
    def full(cls, ambient_dim, field) -> "Subspace":
        return cls.deltas(range(ambient_dim), ambient_dim, field)

    @classmethod
    def deltas(cls, support, ambient_dim, field) -> "Subspace":
        """The span of the deltas at the given coordinates: sorted, they are
        already its RREF basis, so its pivots are the support."""
        support = sorted(set(support))
        one, zero = (field.one(),), zero_vector(ambient_dim, field)
        basis = [zero[:a] + one + zero[a + 1:] for a in support]
        return cls(ambient_dim, field, basis, support)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def _check_ambient(self, other):
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch(
                f"ambient {self.ambient_dim} vs {other.ambient_dim}"
            )

    def reduce(self, v):
        """Residual of v after eliminating this basis (zero iff v in self)."""
        if len(v) != self.ambient_dim:
            raise DimensionMismatch(f"vector length {len(v)} vs {self.ambient_dim}")
        return tuple(eliminate(v, self.basis, self.pivots, self.field))

    def contains_all(self, vectors) -> bool:
        """Whether every vector lies here: the package's one membership test.

        v[pivots] are v's only possible coordinates, so v lies here exactly when
        v[c] = sum_r basis[r][c] v[pivot_r] at every non-pivot column c."""
        f, n, zero = self.field, self.ambient_dim, self.field.zero()
        if self._equations is None:
            rows, pivot_set = tuple(zip(self.pivots, self.basis)), set(self.pivots)
            self._equations = tuple(
                (c, tuple((pc, row[c]) for pc, row in rows if row[c] != 0))
                for c in range(n) if c not in pivot_set
            )
        for v in vectors:
            if len(v) != n:
                raise DimensionMismatch(f"vector length {len(v)} vs {n}")
            for c, terms in self._equations:
                acc = zero
                for pc, a in terms:
                    if v[pc] != 0:
                        acc = f.add(acc, f.mul(a, v[pc]))
                if v[c] != acc:
                    return False
        return True

    def membership(self, v):
        """Coordinates of v over the basis (its pivot entries) if v lies here, else None."""
        return tuple(v[pc] for pc in self.pivots) if self.contains_all((v,)) else None

    def __contains__(self, v):
        return self.contains_all((v,))

    def contains_subspace(self, other) -> bool:
        self._check_ambient(other)
        return self.contains_all(other.basis)

    def from_coordinates(self, coords):
        if not self.basis:
            return zero_vector(self.ambient_dim, self.field)
        return combine(coords, self.basis, self.field)

    def add(self, other) -> "Subspace":
        """The join: other's rows inserted into a copy of this RREF basis, with no fresh ``rref``."""
        self._check_ambient(other)
        basis, pivots = [list(row) for row in self.basis], list(self.pivots)
        for row in other.basis:
            if len(basis) == self.ambient_dim:
                break  # full rank: every remaining row lies in the span
            insert_row(basis, pivots, row, self.field)
        return Subspace(self.ambient_dim, self.field, [tuple(r) for r in basis], pivots)

    def intersect(self, other) -> "Subspace":
        """Intersection via the Zassenhaus block trick.

        Row reduce [S | S; T | 0]: the rows whose pivot lies in the right
        half vanish on the left, and their right halves are the RREF basis
        of the intersection (each is zero at the other pivots).
        """
        self._check_ambient(other)
        n = self.ambient_dim
        zero = zero_vector(n, self.field)
        block = [row + row for row in self.basis] + [row + zero for row in other.basis]
        reduced, pivots = rref(block, self.field)
        inter = [(row[n:], pc - n) for row, pc in zip(reduced, pivots) if pc >= n]
        return Subspace(n, self.field, [row for row, _ in inter], [pc for _, pc in inter])

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.field == other.field
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.field, self.basis))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim}, {self.field})"


def span(vectors, ambient_dim, field) -> Subspace:
    """RREF basis of the linear span; idempotent on existing bases."""
    return Subspace.span(vectors, ambient_dim, field)


class QuotientSpace:
    """numerator/kernel with a deterministic linear section.

    The section basis is the numerator's RREF rows whose pivots are not
    the kernel's: the kernel's pivots lie among the numerator's, and each
    of those rows is zero at every other pivot, so clearing the kernel's
    pivot columns leaves them as they are.  Every vector of the numerator
    splits uniquely as (combination of section basis) + (kernel element).
    """

    __slots__ = ("ambient", "kernel", "section", "field")

    def __init__(self, numerator: Subspace, kernel: Subspace):
        if not numerator.contains_subspace(kernel):
            raise ContainmentError("kernel is not contained in the numerator")
        self.ambient = numerator
        self.kernel = kernel
        self.field = numerator.field
        killed = set(kernel.pivots)
        rows = [(row, pc) for row, pc in zip(numerator.basis, numerator.pivots)
                if pc not in killed]
        self.section = Subspace(numerator.ambient_dim, numerator.field,
                                [row for row, _ in rows], [pc for _, pc in rows])

    @property
    def dim(self) -> int:
        return self.section.dim

    @property
    def section_basis(self):
        return self.section.basis

    def project(self, v):
        """Coordinates over the section basis of the class of v."""
        w = self.kernel.reduce(v)
        coords = self.section.membership(w)
        if coords is None:
            raise ContainmentError("vector does not lie in the numerator space")
        return coords

    def inject(self, coords):
        """Canonical representative of the class with the given coordinates."""
        return self.section.from_coordinates(coords)

    def reduce(self, v):
        """Canonical representative of the class of v."""
        return self.inject(self.project(v))

    def __repr__(self):
        return f"QuotientSpace(dim={self.dim}, ambient_dim={self.ambient.dim})"


def quotient(numerator: Subspace, kernel: Subspace) -> QuotientSpace:
    return QuotientSpace(numerator, kernel)
