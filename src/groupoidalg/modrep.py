"""Finite-dimensional left modules over a structure-constant algebra.

A module is one action per algebra basis element, compatible with the
structure constants and unital (the algebra's unit acts as the
identity).  Each action is held only as sparse rows (``FdModule.entries``:
the nonzero (column, value) entries of each row), and every construction
and check in this module builds or walks those rows; the dense matrices
(``FdModule.matrices``, ``FdModule.action_of``) are views for oracles,
built on first read.  ``check_module`` checks both laws and
``intertwines`` is the package's one module-map test (T a1 = a2 T).
Both convert each action to int rows once and run on one sparse int
product kernel (``_accumulate``): only nonzero entries are multiplied,
over Q after scaling every entry by a common denominator (which scales
both sides of the identity alike, so no `Fraction` is built), over GF(p)
reducing each sum mod p once.  On top of that this module provides:

* generated submodules and, over GF(p) within a budget, the full lattice
  of invariant subspaces, joined from the cyclic closures of every scalar
  line, all computed in one memoised pass;
* irreducibility verdicts: exact over GF(p) from the same pass, which
  stops at the first proper closure; over the rationals a three-valued
  verdict (reducible with witness, certified irreducible, or
  inconclusive) built from basis-cyclicity, the trace-form radical of
  the image algebra, and factoring minimal polynomials of commutant
  elements;
* annihilators, quotient/sub/direct-sum constructions and module
  isomorphism search;
* restrictions to a unit (the part killed by the point ideal) and germ
  spaces (the quotient by the point ideal's image) with the
  disintegration action of the isotropy bimodules on them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import sympy

from .errors import BudgetExceeded, TheoremViolation, TrivialModuleError
from .isotropy import Inclusion
from .linalg import (
    QuotientSpace,
    Subspace,
    apply_rows,
    combine,
    dense_rows,
    identity_matrix,
    insert_row,
    mat_mul,
    right_kernel,
    solve_right,
    sparse_rows,
    transpose_rows,
)
from .steinberg import AlgebraPresentation

ENUMERATION_BUDGET = 2**20  # candidate vectors p^dim an exhaustive search may cover
LATTICE_BUDGET = 20000  # invariant subspaces one enumeration may find


@dataclass(frozen=True)
class ModuleViolation:
    kind: str
    witness: tuple

    def __str__(self):
        return f"{self.kind} at {self.witness}"


class FdModule:
    """A left module given by one action per algebra basis element, as sparse rows.

    ``entries[i][r]`` holds the nonzero entries (c, value) of row r of the
    action of basis element i, in column order: reduced into [0, p) over
    GF(p), kept as given over Q.  They are all the module holds, and every
    action and check walks only them.  ``FdModule(algebra, matrices,
    name)`` keeps the nonzero entries of dense matrices; ``from_entries``
    takes the rows themselves and refuses malformed ones.  ``matrices`` is
    the dense view, built on first read: zeros are ``field.zero()``.
    """

    def __init__(self, algebra: AlgebraPresentation, matrices, name: str = ""):
        matrices = tuple(matrices)
        dim = len(matrices[0]) if matrices else 0
        if any(len(m) != dim or any(len(r) != dim for r in m) for m in matrices):
            raise ValueError("action matrices must be square of equal size")
        p = algebra.field.p  # a dense entry that is 0 mod p is a zero, not a stored zero
        self._hold(algebra, [sparse_rows(m if p is None else [[a % p for a in r] for r in m])
                             for m in matrices], name)

    @classmethod
    def from_entries(cls, algebra: AlgebraPresentation, entries, name: str = "") -> "FdModule":
        """The module whose action i has the sparse rows ``entries[i]``.

        Each matrix has dim rows (dim is the row count of the first), and
        each row lists (column, value) pairs with columns strictly increasing
        in [0, dim) and values nonzero (mod p over GF(p)); else ValueError.
        """
        module = cls.__new__(cls)
        module._hold(algebra, entries, name)
        return module

    def _hold(self, algebra, entries, name):
        p = algebra.field.p
        self.algebra = algebra
        self.name = name
        self.entries = tuple(tuple(tuple(row) if p is None else tuple((c, a % p) for c, a in row)
                                   for row in mat) for mat in entries)
        if len(self.entries) != algebra.dim:
            raise ValueError("need one action matrix per algebra basis element")
        self.dim = len(self.entries[0]) if self.entries else 0
        for mat in self.entries:
            if len(mat) != self.dim:
                raise ValueError("action matrices must be square of equal size")
            for row in mat:
                last = -1
                for c, a in row:
                    if not last < c < self.dim:
                        raise ValueError(f"column {c} out of order or out of range in dim {self.dim}")
                    if a == 0:
                        raise ValueError(f"stored zero at column {c}")
                    last = c
        self._matrices = None

    @property
    def field(self):
        return self.algebra.field

    @property
    def matrices(self):
        """The dense action matrices, built from ``entries`` on first read."""
        if self._matrices is None:
            self._matrices = tuple(dense_rows(mat, self.dim, self.field) for mat in self.entries)
        return self._matrices

    def action_rows(self, vec):
        """Sparse rows of the action of a general algebra element (coefficient vector).

        Each entry is summed from ``field.zero()`` over the basis elements in
        order; entries that cancel to zero are dropped.
        """
        f = self.field
        zero = f.zero()
        out = [{} for _ in range(self.dim)]
        for i, c in enumerate(vec):
            if c == 0:
                continue
            for acc, row in zip(out, self.entries[i]):
                for col, a in row:
                    acc[col] = f.add(acc.get(col, zero), f.mul(c, a))
        return tuple(tuple((col, a) for col, a in sorted(acc.items()) if a != 0) for acc in out)

    def action_of(self, vec):
        """Dense action matrix of a general algebra element: the view of ``action_rows``."""
        return dense_rows(self.action_rows(vec), self.dim, self.field)

    def apply(self, vec, v):
        return apply_rows(self.action_rows(vec), v, self.field)

    def basis_vector(self, i):
        f = self.field
        return tuple(f.one() if j == i else f.zero() for j in range(self.dim))

    def __repr__(self):
        name = f" {self.name!r}" if self.name else ""
        return f"FdModule(dim={self.dim}, over dim-{self.algebra.dim} algebra{name})"


def _common_denominator(field, values):
    """The least common denominator of the values over Q.

    None over GF(p), whose entries already are ints.
    """
    return None if field.p is not None else math.lcm(*{a.denominator for a in values})


def _ints(row, scale):
    """A sparse row's (index, a) pairs with each a times ``scale``, as ints.

    ``scale`` is a common denominator, so ``scale // a.denominator`` is
    exact and no `Fraction` is built; a None scale (GF(p)) keeps the row.
    """
    if scale is None:
        return row
    return [(k, a.numerator * (scale // a.denominator)) for k, a in row]


def _int_rows(matrices, field):
    """Sparse matrices with their entries as ints, each matrix converted once.

    Over Q all are scaled by the matrices' common denominator; over GF(p)
    the entries already are ints and the matrices are returned as they are.
    """
    scale = _common_denominator(field, (a for m in matrices for row in m for _, a in row))
    return _scaled(matrices, scale)


def _scaled(matrices, scale):
    """Every row through ``_ints``; an empty row, the most common, is kept as it is."""
    if scale is None:
        return matrices
    return [[_ints(row, scale) if row else row for row in m] for m in matrices]


def _accumulate(acc, left, right, width):
    """Add the int product L R into ``acc``, entry (r, col) at key r * width + col.

    L and R are given as sparse rows of (index, int) pairs, so only the
    nonzero products are touched: the kernel of both exact checks.
    """
    for r, row in enumerate(left):
        base = r * width
        for k, a in row:
            for col, b in right[k]:
                key = base + col
                acc[key] = acc.get(key, 0) + a * b
    return acc


def _nonzero_keys(acc, field):
    """The keys whose accumulated int is not 0 in the field (mod p once)."""
    p = field.p
    if p is None:
        return [key for key, v in acc.items() if v]
    return [key for key, v in acc.items() if v % p]


def intertwines(T, acts1, acts2, field) -> bool:
    """Whether T a1 = a2 T for every pair (a1, a2): the one module-map test.

    T is a dense matrix and the actions are sparse rows (``FdModule.entries``).
    Both sides are built on nonzero entries in ints: over Q, T is scaled by
    its common denominator D_T and all actions by theirs, D, so both sides
    scale by D_T D and equality is unchanged.  Each action is converted
    once, and a list passed as both sides once.  T a1 + a2 (-T) is
    accumulated per pair and must vanish (mod p over GF(p)).
    """
    (t,) = _int_rows([sparse_rows(T)], field)
    minus_t = [[(c, -a) for c, a in row] for row in t]
    acts = list(acts1) if acts2 is acts1 else [*acts1, *acts2]
    ints = _int_rows(acts, field)
    ints1, ints2 = ints[:len(acts1)], ints[len(ints) - len(acts2):]

    def holds(a1, a2):
        acc = _accumulate({}, t, a1, len(a1))
        _accumulate(acc, a2, minus_t, len(a1))
        return not _nonzero_keys(acc, field)

    return all(holds(a1, a2) for a1, a2 in zip(ints1, ints2, strict=True))


def check_module(module: FdModule):
    """None if the action respects structure constants and is unital.

    Compatibility: action(b_i) action(b_j) must equal the structure-
    constant combination of the action matrices, for every ordered pair
    (i, j), zero products included.  The check runs on nonzero entries
    in ints: over Q the action entries and structure constants are all
    scaled by their common denominator D, so both sides scale by D^2.
    For each i the products with every j come at once, keyed (j, r, col):
    A_i A_j is read off ``by_row[k]``, the row k of each A_j that has one,
    and the combination for (i, j) is subtracted at the same keys.  A j
    that neither side touches has two zero sides.  The witness is the
    least j whose sides differ.  Unitality: the unit u acts as the
    identity, sum_k u_k A_k = 1, on the same kernel (D^2 on the diagonal
    over Q); a presentation with no unit fails it.  Once the law holds,
    u acts as an idempotent e and the images of all actions span exactly
    eV, so this holds exactly when those images span the carrier.
    """
    alg = module.algebra
    f = module.field
    d = module.dim
    block = d * d
    unit = [(k, u) for k, u in enumerate(alg.unit or ()) if u]
    scale = _common_denominator(f, itertools.chain(
        (a for mat in module.entries for row in mat for _, a in row),
        (c for row in alg.rows for _, terms in row for _, c in terms),
        (u for _, u in unit)))
    acts = _scaled(module.entries, scale)
    by_row = [[(j * block + col, a) for j, act in enumerate(acts) for col, a in act[k]]
              for k in range(d)]
    minus_flat = [[(r * d + col, -a) for r, row in enumerate(act) for col, a in row]
                  for act in acts]
    for i, row in enumerate(alg.rows):
        combination = [()] * alg.dim
        for j, terms in row:
            combination[j] = _ints(terms, scale)
        acc = _accumulate({}, acts[i], by_row, d)  # A_i A_j at j * d^2 + r * d + col
        _accumulate(acc, combination, minus_flat, block)  # minus sum_k c_k A_k
        differing = _nonzero_keys(acc, f)
        if differing:
            return ModuleViolation("structure-constants", (i, min(differing) // block))
    acc = {r * d + r: 1 if scale is None else scale * scale for r in range(d)}
    _accumulate(acc, [_ints(unit, scale)], minus_flat, block)  # minus sum_k u_k A_k
    if alg.unit is None or _nonzero_keys(acc, f):
        return ModuleViolation("unitality", ())
    return None


def regular_module(algebra: AlgebraPresentation, name="regular") -> FdModule:
    left, _ = algebra.mult_rows()
    return FdModule.from_entries(algebra, left, name)


def direct_sum(m1: FdModule, m2: FdModule, name="") -> FdModule:
    if m1.algebra is not m2.algebra and m1.algebra.rows != m2.algebra.rows:
        raise ValueError("modules must share an algebra")
    shift = m1.dim
    entries = [rows1 + tuple(tuple((shift + c, a) for c, a in row) for row in rows2)
               for rows1, rows2 in zip(m1.entries, m2.entries)]
    return FdModule.from_entries(m1.algebra, entries, name or f"{m1.name}+{m2.name}")


def _span_module(algebra, actions, basis, coordinates, name, escape=None) -> FdModule:
    """The module the actions (sparse rows) induce on a span, in the coordinates given.

    Column k of each action is ``coordinates`` of the action applied to
    ``basis[k]``: membership coordinates for a subspace, projection
    coordinates for a quotient.  A None coordinate means the image left
    the span, and ``escape`` is raised.
    """
    f = algebra.field
    entries = []
    for act in actions:
        rows = [[] for _ in basis]
        for k, v in enumerate(basis):
            coords = coordinates(apply_rows(act, v, f))
            if coords is None:
                raise escape
            for r, c in enumerate(coords):
                if c != 0:
                    rows[r].append((k, c))
        entries.append(rows)
    return FdModule.from_entries(algebra, entries, name)


def submodule_module(module: FdModule, W: Subspace, name="") -> FdModule:
    """The action restricted to an invariant subspace, in its basis coords."""
    return _span_module(module.algebra, module.entries, W.basis, W.membership, name,
                        ValueError("subspace is not invariant"))


def quotient_module(module: FdModule, W: Subspace, name="") -> FdModule:
    """The action on carrier/W, in the canonical section coordinates."""
    quot = QuotientSpace(Subspace.full(module.dim, module.field), W)
    return _span_module(module.algebra, module.entries, quot.section_basis,
                        quot.project, name), quot


# ---------------------------------------------------------------------------
# invariant subspace enumeration


def closure_under(actions, seeds, dim, field) -> Subspace:
    """Smallest subspace containing the seeds and invariant under the actions (sparse rows)."""
    basis, pivots = [], []
    stack = [tuple(s) for s in seeds]
    while stack:
        v = stack.pop()
        if not insert_row(basis, pivots, v, field):
            continue
        if len(basis) == dim:
            return Subspace.full(dim, field)
        stack.extend(apply_rows(act, v, field) for act in actions)
    return Subspace(dim, field, [tuple(r) for r in basis], pivots)


def generated_submodule(module: FdModule, vectors) -> Subspace:
    return closure_under(module.entries, vectors, module.dim, module.field)


def normalized_vectors(dim, p):
    """All vectors over GF(p) whose first nonzero coordinate is 1.

    One representative per scalar line; every cyclic submodule has a
    generator in this set.
    """
    for lead in range(dim):
        prefix = (0,) * lead + (1,)
        for tail in itertools.product(range(p), repeat=dim - lead - 1):
            yield prefix + tail


def _bitmask_vectors(actions, dim):
    """Vector operations over GF(2) on int bitmasks, bit dim-1-i holding coordinate i.

    Returns (encode, line, images, insert, subspace).  An echelon row is
    (pivot bit, vector): its highest set bit, its first nonzero coordinate.
    """
    # per action, the image of each bit as a mask: bit b is column dim-1-b
    columns = [[sum(1 << (dim - 1 - r) for r, a in col if a % 2)
                for col in reversed(transpose_rows(act, dim))] for act in actions]

    def encode(seed):
        return sum(1 << (dim - 1 - i) for i, c in enumerate(seed) if c)

    def line(v):
        # v's position in normalized_vectors (1 is the only unit): the
        # 2^dim - 2^b vectors with a later first coordinate come first
        return (1 << dim) - 3 * (1 << (v.bit_length() - 1)) + v

    def images(v):
        out = []
        for cols in columns:
            img, rest = 0, v
            while rest:
                low = rest & -rest
                img ^= cols[low.bit_length() - 1]
                rest ^= low
            out.append(img)
        return out

    def insert(rows, v) -> bool:
        # add v to the fully reduced rows in place; False when already spanned
        for high, r in rows:
            if v & high:
                v ^= r
        if not v:
            return False
        high = 1 << (v.bit_length() - 1)
        for i, (pivot, r) in enumerate(rows):
            if r & high:
                rows[i] = (pivot, r ^ v)
        rows.append((high, v))
        return True

    def subspace(rows, field):
        rows = sorted(rows, reverse=True)
        basis = [tuple((r >> (dim - 1 - i)) & 1 for i in range(dim)) for _, r in rows]
        return Subspace(dim, field, basis, [dim - r.bit_length() for _, r in rows])

    return encode, line, images, insert, subspace


def _residue_vectors(actions, dim, p):
    """Vector operations over an odd GF(p) on int lists reduced mod p.

    Returns (encode, line, images, insert, subspace).  An echelon row is
    (pivot, vector), with a 1 at its first nonzero coordinate, the pivot.
    """
    # per action, column c as its (row, entry) pairs; images reduce mod p
    columns = [transpose_rows(act, dim) for act in actions]
    # position in normalized_vectors of the first vector with a given lead,
    # less its base-p code (coordinate 0 most significant)
    offset = [(p**dim - p**(dim - lead)) // (p - 1) - p**(dim - 1 - lead) for lead in range(dim)]

    def encode(seed):
        return list(seed)

    def line(v):
        # position in normalized_vectors of v's multiple with a leading 1
        lead = next(i for i, x in enumerate(v) if x)
        inv = pow(v[lead], -1, p)
        code = 0
        for x in v:
            code = code * p + x * inv % p
        return offset[lead] + code

    def images(v):
        support = [(c, a) for c, a in enumerate(v) if a]
        out = []
        for cols in columns:
            img = [0] * dim
            for c, a in support:
                for r, b in cols[c]:
                    img[r] += a * b
            out.append([x % p for x in img])
        return out

    def insert(rows, v) -> bool:
        # add v to the fully reduced rows in place; False when already spanned
        for pivot, r in rows:
            c = v[pivot]
            if c:
                v = [(x - c * y) % p for x, y in zip(v, r)]
        lead = next((i for i, x in enumerate(v) if x), None)
        if lead is None:
            return False
        inv = pow(v[lead], -1, p)
        v = [x * inv % p for x in v]
        for i, (pivot, r) in enumerate(rows):
            c = r[lead]
            if c:
                rows[i] = (pivot, [(x - c * y) % p for x, y in zip(r, v)])
        rows.append((lead, v))
        return True

    def subspace(rows, field):
        rows = sorted(rows)
        return Subspace(dim, field, [tuple(r) for _, r in rows], [pivot for pivot, _ in rows])

    return encode, line, images, insert, subspace


def _cyclic_closures(actions, dim, field):
    """(seed, closure) for every seed of ``normalized_vectors``, in that order.

    One memoised pass over the scalar lines, resting on
    closure(v) = span(v) + sum_i closure(M_i v).  An image whose line
    already has a stored closure adds it: that closure is invariant, so it
    is not spun again.  An image on a later line than the closure being
    built gets its own closure first, built and stored the same way; an
    image on an earlier line with no stored closure is spun in place.
    Lines strictly increase up the stack of closures in progress, so none
    waits on itself.  Scalars are ints, never `Field` calls; equal
    closures share one `Subspace`.
    """
    p = field.p
    encode, line, images, insert, subspace = (
        _bitmask_vectors(actions, dim) if p == 2 else _residue_vectors(actions, dim, p))
    memo = [None] * ((p**dim - 1) // (p - 1))  # line -> (echelon rows, Subspace)
    shared = {}  # canonical echelon rows -> the memo entry of that closure

    def absorb(rows, closure):
        if len(closure[0]) == dim:  # the whole space: nothing to reduce
            rows[:] = closure[0]
            return
        for _, r in closure[0]:
            insert(rows, r)

    for position, seed in enumerate(normalized_vectors(dim, p)):
        # closures in progress: (line, echelon rows, images still to add)
        stack = [(position, [], [encode(seed)])] if memo[position] is None else []
        while stack:
            own, rows, pending = stack[-1]
            if pending and len(rows) < dim:
                u = pending.pop()
                if insert(rows, u):
                    q = line(u)
                    if memo[q] is not None:
                        absorb(rows, memo[q])
                    elif q > own:
                        stack.append((q, [], [u]))
                    else:
                        pending.extend(images(u))
                continue
            stack.pop()
            key = frozenset((pivot, r if p == 2 else tuple(r)) for pivot, r in rows)
            if key not in shared:
                shared[key] = (rows, subspace(rows, field))
            memo[own] = shared[key]
            if stack:
                absorb(stack[-1][1], memo[own])
        yield seed, memo[position][1]


def _require_enum_budget(field, dim):
    if field.p is None:
        raise BudgetExceeded("exhaustive enumeration requires a prime field")
    if field.p**dim > ENUMERATION_BUDGET:
        raise BudgetExceeded(
            f"{field.p}^{dim} candidate vectors exceed the budget of {ENUMERATION_BUDGET}"
        )


def all_invariant_subspaces(actions, dim, field):
    """Every subspace invariant under the actions (sparse rows), as a sorted list.

    Every invariant subspace is a sum of cyclic closures, so the distinct
    closures of one memoised pass over the projective seeds (the atoms)
    are joined in turn into every subspace found so far that does not
    already contain them.  Exact and exhaustive; refuses beyond the budget.
    """
    _require_enum_budget(field, dim)
    zero = Subspace.zero(dim, field)
    found = {zero.basis: zero}
    atoms = {}
    for _, w in _cyclic_closures(actions, dim, field):
        atoms.setdefault(id(w), w)
    for atom in atoms.values():
        for s in list(found.values()):
            if s.contains_subspace(atom):
                continue
            joined = s.add(atom)
            if joined.basis not in found:
                found[joined.basis] = joined
                if len(found) > LATTICE_BUDGET:
                    raise BudgetExceeded("invariant subspace lattice too large")
    return sorted(found.values(), key=lambda s: (s.dim, s.basis))


def all_submodules(module: FdModule):
    """The full submodule lattice of a module over GF(p), within budget."""
    return all_invariant_subspaces(module.entries, module.dim, module.field)


def lattice_operations_agree(subspaces) -> bool:
    """Meet = intersection and join = sum stay inside the collection."""
    index = {s.basis for s in subspaces}
    for a in subspaces:
        for b in subspaces:
            if a.intersect(b).basis not in index or a.add(b).basis not in index:
                return False
    return True


# ---------------------------------------------------------------------------
# irreducibility


@dataclass
class IrreducibilityVerdict:
    status: str  # "irreducible" | "reducible" | "inconclusive"
    certified: bool
    witness: Subspace | None = None
    method: str = ""

    def __bool__(self):
        return self.status == "irreducible"


def _flatten(mat):
    """A square matrix as one row-major vector."""
    return tuple(itertools.chain.from_iterable(mat))


def _square(flat, d):
    """The d x d matrix read row-major off a vector of length d * d."""
    return tuple(tuple(flat[r * d:(r + 1) * d]) for r in range(d))


def _intertwiners(m1: FdModule, m2: FdModule) -> list:
    """Basis of the T with T a1 = a2 T for every action pair, each T row-major.

    The modules share an algebra and a dimension; with m1 = m2 this is the
    commutant of the action.  Equation (r, c) of a pair,
    sum_k T[r][k] a1[k][c] - sum_k a2[r][k] T[k][c] = 0, reads column c of
    a1 and row r of a2 off the sparse rows; an equation with no term is
    0 = 0 and is left out.
    """
    f = m1.field
    d = m1.dim
    rows = []
    for a1, a2 in zip(m1.entries, m2.entries):
        columns = transpose_rows(a1, d)  # column c of a1 as its (k, a1[k][c])
        for r in range(d):
            for c in range(d):
                if not (columns[c] or a2[r]):
                    continue
                row = [f.zero()] * (d * d)
                for k, a in columns[c]:
                    row[r * d + k] = f.add(row[r * d + k], a)
                for k, a in a2[r]:
                    row[k * d + c] = f.sub(row[k * d + c], a)
                rows.append(tuple(row))
    return right_kernel(rows, d * d, f).basis


def _minimal_polynomial(matrix, dim, field):
    """Coefficients (ascending) of the monic minimal polynomial."""
    powers = [identity_matrix(dim, field)]
    flat = [_flatten(powers[0])]
    while True:
        nxt = mat_mul(powers[-1], matrix, field)
        target = _flatten(nxt)
        sol = solve_right(tuple(zip(*flat)), target, field)
        if sol is not None:
            return [field.neg(c) for c in sol] + [field.one()]
        powers.append(nxt)
        flat.append(target)


def _factor_over_Q(coeffs):
    """Irreducible factors (as ascending coefficient lists) over the rationals."""
    x = sympy.Symbol("x")
    poly = sum(sympy.Rational(c.numerator, c.denominator) * x**i for i, c in enumerate(coeffs))
    _, factors = sympy.Poly(poly, x).factor_list()
    out = []
    for fac, mult in factors:
        fc = [Fraction(str(c)) for c in reversed(sympy.Poly(fac, x).all_coeffs())]
        out.append((fc, mult))
    return out


def _evaluate_poly(coeffs, matrix, dim, field):
    powers = [identity_matrix(dim, field)]
    while len(powers) < len(coeffs):
        powers.append(mat_mul(powers[-1], matrix, field))
    return _square(combine(coeffs, [_flatten(p) for p in powers], field), dim)


def _image_algebra_radical(module: FdModule):
    """Trace-form radical of the unital algebra spanned by the actions.

    Over a characteristic-zero field the Jacobson radical of a finite
    dimensional algebra acting faithfully equals the radical of the
    trace form (x, y) -> tr(xy); exact linear algebra suffices.
    """
    f = module.field
    d = module.dim
    gens = [dense_rows(act, d, f) for act in module.entries] + [identity_matrix(d, f)]
    span = Subspace.span([_flatten(m) for m in gens], d * d, f)
    basis_mats = [_square(v, d) for v in span.basis]
    rows = []
    for bm in basis_mats:
        row = []
        for other in basis_mats:
            prod = mat_mul(bm, other, f)
            row.append(sum((prod[i][i] for i in range(d)), f.zero()))
        rows.append(tuple(row))
    # kernel coordinates are over the span basis
    kern = right_kernel(rows, len(basis_mats), f).basis
    return [_square(combine(coords, span.basis, f), d) for coords in kern]


def is_irreducible(module: FdModule) -> IrreducibilityVerdict:
    """Irreducibility verdict; exact over GF(p), three-valued over Q.

    Over GF(p) the memoised pass tries every scalar line as a generator in
    ``normalized_vectors`` order and stops at the first proper closure,
    which is the witness, so the answer is exact.  Over the rationals the
    reducible verdicts always carry an explicit invariant subspace, and
    "irreducible" from dimension one or from a semisimple image with
    scalar commutant is sound.  The division-commutant probe is not: it
    factors the minimal polynomials of the commutant basis and its pairwise
    sums only, which does not prove the commutant a division algebra, and
    it calls some changes of basis of the reducible regular module of
    M_2(Q) irreducible.  Otherwise the verdict is inconclusive.
    """
    if module.dim == 0:
        raise TrivialModuleError("the zero module has no irreducibility verdict")
    f = module.field
    if module.dim == 1:
        return IrreducibilityVerdict("irreducible", True, method="dimension-one")

    if f.p is not None:
        _require_enum_budget(f, module.dim)
        for _, w in _cyclic_closures(module.entries, module.dim, f):
            if w.dim != module.dim:
                return IrreducibilityVerdict("reducible", True, w, "seed-scan")
        return IrreducibilityVerdict("irreducible", True, method="seed-scan")

    # rational field
    for i in range(module.dim):
        w = generated_submodule(module, [module.basis_vector(i)])
        if w.dim != module.dim:
            return IrreducibilityVerdict("reducible", True, w, "basis-vector")
    rad = _image_algebra_radical(module)
    if rad:
        gens = [col for r in rad for col in zip(*r)]
        w = generated_submodule(module, gens)
        if 0 < w.dim < module.dim:
            return IrreducibilityVerdict("reducible", True, w, "radical")
        raise TheoremViolation("radical action produced no proper submodule")
    commutant = _intertwiners(module, module)
    pair = (f.one(), f.one())
    probes = [_square(v, module.dim) for v in commutant] + [
        _square(combine(pair, ab, f), module.dim)
        for ab in itertools.combinations(commutant, 2)
    ]
    scalar_only = len(commutant) == 1
    all_probes_irreducible = True
    for t in probes:
        mp = _minimal_polynomial(t, module.dim, f)
        factors = _factor_over_Q(mp)
        if len(factors) > 1 or factors[0][1] > 1:
            for fac, _ in factors:
                if len(fac) - 1 == len(mp) - 1:
                    continue
                pt = _evaluate_poly(fac, t, module.dim, f)
                w = right_kernel(pt, module.dim, f)
                if 0 < w.dim < module.dim:
                    # kernel of a commutant polynomial is invariant
                    return IrreducibilityVerdict("reducible", True, w, "commutant-kernel")
            all_probes_irreducible = False
    if scalar_only:
        return IrreducibilityVerdict("irreducible", True, method="scalar-commutant")
    if all_probes_irreducible:
        return IrreducibilityVerdict(
            "irreducible", True, method="division-commutant"
        )
    return IrreducibilityVerdict("inconclusive", False, method="exhausted")


# ---------------------------------------------------------------------------
# annihilators


def annihilator(module: FdModule) -> Subspace:
    """Kernel of the representation map, as a subspace of the algebra.

    One equation per matrix position (r, c) that some action holds an
    entry at: sum_i x_i A_i[r][c] = 0.  Every other position reads 0 = 0.
    """
    f = module.field
    n = module.algebra.dim
    rows = {}
    for i, act in enumerate(module.entries):
        for r, row in enumerate(act):
            for c, a in row:
                rows.setdefault((r, c), [f.zero()] * n)[i] = a
    return right_kernel(list(rows.values()), n, f)


def is_two_sided_ideal(algebra: AlgebraPresentation, S: Subspace) -> bool:
    """Whether e_i v and v e_i lie in S for every basis element e_i and v in S's basis.

    The products are read off ``algebra.rows``, touching only nonzero
    terms: e_i v = sum_j v_j e_i e_j from rows[i], and every v e_j at once
    from rows[a] for each a with v_a != 0.
    """
    f, rows, zero = algebra.field, algebra.rows, algebra.field.zero()

    def combination(scaled_terms):
        out = [zero] * algebra.dim
        for c, terms in scaled_terms:
            for k, pk in terms:
                out[k] = f.add(out[k], f.mul(c, pk))
        return out

    def products():
        for v in S.basis:
            for row in rows:
                left = [(v[j], terms) for j, terms in row if v[j] != 0]
                if left:
                    yield combination(left)
            right = {}
            for a, va in enumerate(v):
                if va != 0:
                    for j, terms in rows[a]:
                        right.setdefault(j, []).append((va, terms))
            yield from map(combination, right.values())

    return S.contains_all(products())


# ---------------------------------------------------------------------------
# restriction and germs


@dataclass
class Restriction:
    """The J_x-killed part of a module with its isotropy-algebra action."""

    x: int
    subspace: Subspace
    module: FdModule  # over the isotropy algebra presentation at x


def _isotropy_actions(inclusion: Inclusion, module: FdModule, x: int):
    """B(x, x), and the action on the carrier of each of its section representatives,
    the deltas of the isotropy arrows: the module's sparse rows at those arrows."""
    data = inclusion.isotropy_data(x, x)
    return data.presentation, [module.entries[g] for g in data.quotient.section.pivots]


def _point_ideal_image(inclusion: Inclusion, module: FdModule, x: int) -> Subspace:
    """J_x V: the span of the columns of the actions of J_x's basis, the
    deltas of the units other than x (its pivots), each acting by its
    sparse rows.  A zero column spans nothing, so only the columns that
    hold an entry are built."""
    f, d = module.field, module.dim
    columns = [col for u in inclusion.point_ideal(x).basis.pivots
               for col in transpose_rows(module.entries[u], d) if col]
    return Subspace.span(dense_rows(columns, d, f), d, f)


def restriction(inclusion: Inclusion, module: FdModule, x: int) -> Restriction:
    """Vectors killed by the point ideal, as a module over B(x, x).

    The kernel of the rows of the actions of J_x's basis; a zero row
    constrains nothing, so only the rows that hold an entry are built.
    The subspace may be zero; the zero restriction is a legal outcome.
    """
    f = module.field
    rows = [row for u in inclusion.point_ideal(x).basis.pivots for row in module.entries[u] if row]
    sub = right_kernel(dense_rows(rows, module.dim, f), module.dim, f)
    algebra, actions = _isotropy_actions(inclusion, module, x)
    res = _span_module(algebra, actions, sub.basis, sub.membership, f"res{x}",
                       TheoremViolation("restriction subspace is not C(x,x)-stable"))
    return Restriction(x, sub, res)


@dataclass
class GermSpace:
    """The disintegration fiber V / J_x V with its B(x, x)-module structure."""

    x: int
    quotient: QuotientSpace
    module: FdModule  # over the isotropy algebra presentation at x


def germ_space(inclusion: Inclusion, module: FdModule, x: int) -> GermSpace:
    quot = QuotientSpace(Subspace.full(module.dim, module.field),
                         _point_ideal_image(inclusion, module, x))
    algebra, actions = _isotropy_actions(inclusion, module, x)
    germ = _span_module(algebra, actions, quot.section_basis, quot.project, f"germ{x}")
    return GermSpace(x, quot, germ)


def disintegration_action(inclusion: Inclusion, module: FdModule, y: int, x: int,
                          g_coords, germ_x: GermSpace, germ_y: GermSpace, v_coords):
    """Apply a class of B(y, x) to a germ at x, landing in the germ at y.

    Both germ spaces must come from the same module; the result does not
    depend on the representatives (the action maps J_x V into J_y V).
    """
    if germ_x.x != x or germ_y.x != y:
        raise ValueError("germ spaces do not match the unit pair")
    data = inclusion.isotropy_data(y, x)
    c = data.quotient.inject(g_coords)
    v = germ_x.quotient.inject(v_coords)
    image = module.apply(c, v)
    return germ_y.quotient.project(image)


def nonzero_germ_exists(inclusion: Inclusion, module: FdModule, v) -> bool:
    """Some unit sees a nonzero germ of v (fails only for v = 0)."""
    for x in inclusion.groupoid.units:
        g = germ_space(inclusion, module, x)
        if any(c != 0 for c in g.quotient.project(v)):
            return True
    return False


def isotropy_quotient_module(inclusion: Inclusion, module: FdModule, x: int,
                             W: Subspace):
    """V/W as a module over the isotropy algebra at x.

    W must contain J_x V and be stable under C(x, x); both are checked.
    Returns (module over B(x,x), quotient space of the carrier).
    """
    f = module.field
    if not W.contains_subspace(_point_ideal_image(inclusion, module, x)):
        raise ValueError("W does not contain J_x V")
    algebra, actions = _isotropy_actions(inclusion, module, x)
    if not W.contains_all(apply_rows(act, w, f) for act in actions for w in W.basis):
        raise ValueError("W is not stable under C(x, x)")
    quot = QuotientSpace(Subspace.full(module.dim, f), W)
    return _span_module(algebra, actions, quot.section_basis, quot.project, f"quot{x}"), quot


def find_module_isomorphism(m1: FdModule, m2: FdModule):
    """An invertible intertwiner between modules over the same algebra, or None.

    Solves the linear intertwiner equations exactly, then searches the
    solution space for an invertible element: exhaustively over small
    prime-field spaces, otherwise through a deterministic sample of
    small integer combinations, which can miss an isomorphism (S^3 and S^3,
    S the column module of M_2(Q)); the CLI no longer uses it.
    """
    if m1.dim != m2.dim or m1.algebra.rows != m2.algebra.rows:
        return None
    f = m1.field
    d = m1.dim
    if d == 0:
        return ()
    basis = _intertwiners(m1, m2)
    if not basis:
        return None

    def to_matrix(coords):
        return _square(combine(coords, basis, f), d)

    def invertible(mat):
        return Subspace.span(mat, d, f).dim == d

    if f.p is not None and f.p ** len(basis) <= 4096:
        for coords in itertools.product(range(f.p), repeat=len(basis)):
            if all(c == 0 for c in coords):
                continue
            mat = to_matrix(coords)
            if invertible(mat):
                return mat
        return None
    for coords in itertools.product(range(-2, 3), repeat=min(len(basis), 3)):
        if all(c == 0 for c in coords):
            continue
        mat = to_matrix([f.of(c) for c in coords])
        if invertible(mat):
            return mat
    return None
