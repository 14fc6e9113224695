"""2-cocycles on a finite groupoid and their bundle arithmetic.

A twist is a map from composable arrow pairs to nonzero field scalars,
normalized on units and satisfying the cocycle identity; pairs absent
from the stored mapping default to 1.  In the finite discrete setting
every line bundle over the groupoid is captured by such a cocycle, so
this is the only twist representation the package needs.

Cocycles must pass :func:`validate_cocycle` before any downstream module
will accept them; constructors check the ``validated`` flag.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CocycleDomainError, NoPartialInverse, ZeroCocycleValue
from .groupoid import FiniteGroupoid
from .linalg import Field


@dataclass(frozen=True)
class CocycleViolation:
    """A failed cocycle condition with a witness pair or triple."""

    condition: str
    witness: tuple

    def __str__(self):
        return f"{self.condition} fails at {self.witness}"


class Cocycle:
    """Scalar twist of the composition of a finite groupoid.

    ``values`` maps composable pairs (a, b) to nonzero scalars; missing
    pairs are 1.  Zero values and values on pairs that are out of range or
    not composable are rejected at construction, and such a pair is refused
    when the cocycle is read at it.
    """

    def __init__(self, groupoid: FiniteGroupoid, field: Field, values=None):
        self.groupoid = groupoid
        self.field = field
        self.values = {}
        self.validated = False
        self.one = field.one()  # the value of every pair not stored
        m = groupoid.n_arrows
        for (a, b), v in sorted((values or {}).items()):
            if not (0 <= a < m and 0 <= b < m):
                raise CocycleDomainError(f"pair ({a}, {b}) is out of range: arrows are 0..{m - 1}")
            v = field.of(v)
            if v == 0:
                raise ZeroCocycleValue(f"cocycle value 0 at pair ({a}, {b})")
            if not groupoid.composable(a, b):
                raise CocycleDomainError(f"pair ({a}, {b}) is not composable")
            if v != self.one:
                self.values[(a, b)] = v

    @classmethod
    def trivial(cls, groupoid: FiniteGroupoid, field: Field) -> "Cocycle":
        c = cls(groupoid, field, {})
        c.validated = True
        return c

    def __call__(self, a: int, b: int):
        m = self.groupoid.n_arrows
        if not (0 <= a < m and 0 <= b < m):
            raise CocycleDomainError(f"pair ({a}, {b}) is out of range: arrows are 0..{m - 1}")
        if not self.groupoid.composable(a, b):
            raise CocycleDomainError(f"pair ({a}, {b}) is not composable")
        return self.values.get((a, b), self.one)


def validate_cocycle(c: Cocycle):
    """None if normalization and the cocycle identity hold, else a violation.

    On success the cocycle is marked ``validated`` so downstream
    constructors will accept it.  A composable pair with no product in
    the table is a violation too (``composability``, the first such pair
    in row-major order), never a pass.  The identity is checked by rows
    of the composition table: a, then b in ``into[src(a)]``, then d in
    ``into[src(b)]``, the lexicographic order of the composable triples,
    so the first failing triple is the witness.  The values are held as
    dense per-row lists that default to 1 and both sides are compared in
    ints, with no ``Field`` or `Fraction` arithmetic: over GF(p) each side
    is one product and one ``% p``; over Q the values are reduced
    `Fraction`s with positive denominators, held as numerator and
    denominator rows, so n1/d1 * n2/d2 = n3/d3 * n4/d4 exactly when
    n1 n2 d3 d4 = n3 n4 d1 d2.  Continuity is vacuous here: the groupoid
    is discrete.
    """
    g = c.groupoid
    one = c.field.one()
    for gamma in g.arrows():
        if c(gamma, g.src[gamma]) != one:
            return CocycleViolation("unit-normalization", (gamma, g.src[gamma]))
        if c(g.tgt[gamma], gamma) != one:
            return CocycleViolation("unit-normalization", (g.tgt[gamma], gamma))
    comp, src, into, m, p = g.comp, g.src, g.into, g.n_arrows, c.field.p
    for a, row in enumerate(comp):
        if None in map(row.__getitem__, into[src[a]]):
            return CocycleViolation("composability",
                                    (a, next(b for b in into[src[a]] if row[b] is None)))
    if p is None:
        num = [[1] * m for _ in range(m)]
        den = [[1] * m for _ in range(m)]
        for (a, b), v in c.values.items():
            num[a][b], den[a][b] = v.numerator, v.denominator
        for a, row in enumerate(comp):
            na, da = num[a], den[a]
            for b in into[src[a]]:
                n1, d1, row_b = na[b], da[b], comp[b]
                nab, dab, nb, db = num[row[b]], den[row[b]], num[b], den[b]
                for d in into[src[b]]:
                    bd = row_b[d]
                    if n1 * nab[d] * da[bd] * db[d] != na[bd] * nb[d] * d1 * dab[d]:
                        return CocycleViolation("cocycle-identity", (a, b, d))
    else:
        w = [[1] * m for _ in range(m)]
        for (a, b), v in c.values.items():
            w[a][b] = v
        for a, row in enumerate(comp):
            wa = w[a]
            for b in into[src[a]]:
                w1, wab, wb, row_b = wa[b], w[row[b]], w[b], comp[b]
                for d in into[src[b]]:
                    if w1 * wab[d] % p != wa[row_b[d]] * wb[d] % p:
                        return CocycleViolation("cocycle-identity", (a, b, d))
    c.validated = True
    return None


def coboundary(groupoid: FiniteGroupoid, field: Field, b) -> Cocycle:
    """The cocycle (a1, a2) -> b(a1) b(a2) / b(a1 a2) of a unit-normalized b.

    ``b`` maps arrows to nonzero scalars with b = 1 on units.  The result
    always passes validation (it is a twist of the trivial cocycle by a
    bundle rescaling).
    """
    bvals = {}
    for a in groupoid.arrows():
        v = field.of(b[a])
        if v == 0:
            raise ZeroCocycleValue(f"rescaling value 0 at arrow {a}")
        if groupoid.is_unit(a) and v != field.one():
            raise ZeroCocycleValue(f"rescaling must be 1 on units, got {v} at {a}")
        bvals[a] = v
    values = {}
    for a1, a2 in groupoid.composable_pairs():
        prod = groupoid.comp[a1][a2]
        values[(a1, a2)] = field.div(field.mul(bvals[a1], bvals[a2]), bvals[prod])
    c = Cocycle(groupoid, field, values)
    violation = validate_cocycle(c)
    if violation is not None:  # impossible by construction
        raise AssertionError(f"coboundary failed validation: {violation}")
    return c


def restrict_to_isotropy(c: Cocycle, x: int) -> dict:
    """The group 2-cocycle on the isotropy group at x, keyed by arrow ids."""
    members = c.groupoid.isotropy_group(x)
    return {(a, b): c(a, b) for a in members for b in members}


def bundle_inverse_coefficient(c: Cocycle, gamma: int, t):
    """Coefficient s with (s, gamma^-1) (t, gamma) = (1, src(gamma)).

    Solving w(gamma^-1, gamma) * s * t = 1 gives the unique partial
    inverse of the bundle element (t, gamma); the same s also satisfies
    (t, gamma)(s, gamma^-1) = (1, tgt(gamma)).  Zero has no inverse.
    """
    if t == 0:
        raise NoPartialInverse("the zero bundle element has no partial inverse")
    ginv = c.groupoid.inv[gamma]
    return c.field.inv(c.field.mul(c(ginv, gamma), t))


def quaternion_sign_cocycle(v4_groupoid: FiniteGroupoid, field: Field) -> Cocycle:
    """The sign cocycle on the Klein four group lifted through quaternions.

    Arrow order must be e, a, b, ab (as produced by ``klein_four_table``);
    the signs come from the unit quaternion lift e, i, j, k.
    """
    signs = [
        [1, 1, 1, 1],
        [1, -1, 1, -1],
        [1, -1, -1, 1],
        [1, 1, -1, -1],
    ]
    values = {
        (a, b): field.of(signs[a][b]) for a in range(4) for b in range(4)
    }
    c = Cocycle(v4_groupoid, field, values)
    validate_cocycle(c)
    return c
