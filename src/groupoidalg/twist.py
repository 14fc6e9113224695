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
    pairs are 1.  Zero values and values on non-composable pairs are
    rejected at construction.
    """

    def __init__(self, groupoid: FiniteGroupoid, field: Field, values=None):
        self.groupoid = groupoid
        self.field = field
        self.values = {}
        self.validated = False
        self.one = field.one()  # the value of every pair not stored
        for (a, b), v in sorted((values or {}).items()):
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
        if not self.groupoid.composable(a, b):
            raise CocycleDomainError(f"pair ({a}, {b}) is not composable")
        return self.values.get((a, b), self.one)

    def mutated(self, pair, value) -> "Cocycle":
        """Copy with one value replaced (for mutation testing); unvalidated."""
        vals = dict(self.values)
        value = self.field.of(value)
        if value == self.field.one():
            vals.pop(pair, None)
        else:
            vals[pair] = value
        return Cocycle(self.groupoid, self.field, vals)


def validate_cocycle(c: Cocycle):
    """None if normalization and the cocycle identity hold, else a violation.

    On success the cocycle is marked ``validated`` so downstream
    constructors will accept it.  The identity is checked on
    ``composable_triples``, in its order, so the first failing triple is
    the witness.  Continuity is vacuous here: the groupoid is discrete.
    """
    g = c.groupoid
    f = c.field
    one = f.one()
    for gamma in g.arrows():
        if c(gamma, g.src[gamma]) != one:
            return CocycleViolation("unit-normalization", (gamma, g.src[gamma]))
        if c(g.tgt[gamma], gamma) != one:
            return CocycleViolation("unit-normalization", (g.tgt[gamma], gamma))
    # every pair read below composes, so the values are read without
    # ``Cocycle.__call__``'s domain check
    comp, w = g.comp, c.values.get
    for a, b, d in g.composable_triples():
        lhs = f.mul(w((a, b), one), w((comp[a][b], d), one))
        rhs = f.mul(w((a, comp[b][d]), one), w((b, d), one))
        if lhs != rhs:
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


def validate_group_cocycle(table, restricted: dict, identity, field: Field):
    """Check normalization and the cocycle identity for a group cocycle.

    ``table`` maps pairs of member ids to products (as from
    ``FiniteGroupoid.isotropy_table``).  Returns None or a violation.
    """
    members = sorted({a for a, _ in table})
    one = field.one()
    for a in members:
        if restricted[(a, identity)] != one or restricted[(identity, a)] != one:
            return CocycleViolation("unit-normalization", (a,))
    for a in members:
        for b in members:
            for d in members:
                lhs = field.mul(restricted[(a, b)], restricted[(table[(a, b)], d)])
                rhs = field.mul(restricted[(a, table[(b, d)])], restricted[(b, d)])
                if lhs != rhs:
                    return CocycleViolation("cocycle-identity", (a, b, d))
    return None


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
