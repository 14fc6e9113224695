"""Cocycle validation, coboundaries, restrictions, bundle inverses."""

import ast
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import groupoidalg
from groupoidalg.errors import CocycleDomainError, NoPartialInverse, ZeroCocycleValue
from groupoidalg.groupoid import FiniteGroupoid, pair_groupoid
from groupoidalg.linalg import GF, QQ
from groupoidalg.twist import (
    Cocycle,
    CocycleViolation,
    bundle_inverse_coefficient,
    coboundary,
    restrict_to_isotropy,
    validate_cocycle,
    validate_group_cocycle,
)

from conftest import GROUPOID_MAKERS, battery, quaternion_fixture, twisted_battery

GF5 = GF(5)


def brute_force_cocycle_check(c):
    """Direct scan of both defining conditions over all pairs and triples."""
    g = c.groupoid
    f = c.field
    for gamma in g.arrows():
        if c(gamma, g.src[gamma]) != f.one() or c(g.tgt[gamma], gamma) != f.one():
            return False
    for a in g.arrows():
        for b in g.arrows():
            if g.src[a] != g.tgt[b]:
                continue
            for d in g.arrows():
                if g.src[b] != g.tgt[d]:
                    continue
                lhs = f.mul(c(a, b), c(g.comp[a][b], d))
                rhs = f.mul(c(a, g.comp[b][d]), c(b, d))
                if lhs != rhs:
                    return False
    return True


def random_coboundary(g, field, rng):
    b = {}
    for a in g.arrows():
        if g.is_unit(a):
            b[a] = field.one()
        else:
            b[a] = field.of(rng.randrange(1, field.p))
    return coboundary(g, field, b)


def test_trivial_cocycle_validates():
    for _, g, c in battery(QQ):
        assert validate_cocycle(c) is None


def test_quaternion_cocycle_brute_force():
    g, c = quaternion_fixture(QQ)
    assert validate_cocycle(c) is None
    assert brute_force_cocycle_check(c)
    # all 64 triples are composable in a one-object groupoid
    assert sum(len(g.into[g.src[b]]) for _, b in g.composable_pairs()) == 64


@pytest.mark.parametrize("field", [QQ, GF5], ids=["Q", "GF5"])
def test_a_composable_pair_with_no_product_is_a_violation(field):
    """pair2 with comp[1][2] (e01 e10 = e00) removed, and with comp[2][1]
    removed as well: the first composable pair with no product is the
    witness, and the cocycle is never marked validated."""
    g = pair_groupoid(2)
    for holes in ([(1, 2)], [(2, 1), (1, 2)]):
        comp = [list(row) for row in g.comp]
        for a, b in holes:
            comp[a][b] = None
        broken = FiniteGroupoid(g.n_arrows, g.units, g.src, g.tgt, g.inv, comp)
        assert str(broken.validate()) == "composability violated at (1, 2)"
        for values in ({}, {(1, 2): 2}, {(2, 1): 3}):
            c = Cocycle(broken, field, values)
            violation = validate_cocycle(c)
            assert violation == CocycleViolation("composability", (1, 2)), (holes, values)
            assert str(violation) == "composability fails at (1, 2)"
            assert not c.validated


def test_quaternion_single_flip_detected():
    g, c = quaternion_fixture(QQ)
    flipped = 0
    for (a, b) in g.composable_pairs():
        if g.is_unit(a) or g.is_unit(b):
            continue
        mutant = c.mutated((a, b), QQ.neg(c(a, b)))
        violation = validate_cocycle(mutant)
        assert violation is not None
        assert violation.condition == "cocycle-identity"
        assert len(violation.witness) == 3
        assert not brute_force_cocycle_check(mutant)
        flipped += 1
    assert flipped == 9


def test_coboundary_of_ones_is_trivial(pair2):
    c = coboundary(pair2, QQ, {a: QQ.one() for a in pair2.arrows()})
    assert not c.values


def test_random_coboundaries_validate(pair2):
    rng = random.Random(2024)
    for _ in range(20):
        c = random_coboundary(pair2, GF5, rng)
        assert validate_cocycle(c) is None


def test_quaternion_is_not_a_sign_coboundary():
    """Exhaustive search over sign-valued rescalings fixing the identity."""
    g, c = quaternion_fixture(QQ)
    target = {(a, b): c(a, b) for a, b in g.composable_pairs()}
    for signs in itertools.product([1, -1], repeat=3):
        b = {0: QQ.one()}
        for arrow, s in zip((1, 2, 3), signs):
            b[arrow] = QQ.of(s)
        cob = coboundary(g, QQ, b)
        produced = {(x, y): cob(x, y) for x, y in g.composable_pairs()}
        assert produced != target


def test_coboundary_invariant_200_random_per_fixture():
    rng = random.Random(555)
    for name, g, _ in battery(GF5, ["pair2", "z2", "gb", "swap"]):
        for _ in range(200):
            c = random_coboundary(g, GF5, rng)
            assert validate_cocycle(c) is None, name


def test_restrict_trivial(gb):
    c = Cocycle.trivial(gb, QQ)
    r = restrict_to_isotropy(c, 0)
    assert all(v == QQ.one() for v in r.values())


def test_restrict_identity_on_one_object():
    g, c = quaternion_fixture(QQ)
    r = restrict_to_isotropy(c, g.units[0])
    for a, b in g.composable_pairs():
        assert r[(a, b)] == c(a, b)


def test_restrict_random_cocycle_is_group_cocycle(gb):
    rng = random.Random(77)
    for _ in range(10):
        b = {a: GF5.one() if gb.is_unit(a) else GF5.of(rng.randrange(1, 5))
             for a in gb.arrows()}
        c = coboundary(gb, GF5, b)
        r = restrict_to_isotropy(c, 0)
        table = gb.isotropy_table(0)
        assert validate_group_cocycle(table, r, 0, GF5) is None


def test_bundle_inverse_trivial(pair2):
    c = Cocycle.trivial(pair2, QQ)
    arrow = next(a for a in pair2.arrows() if not pair2.is_unit(a))
    assert bundle_inverse_coefficient(c, arrow, QQ.one()) == QQ.one()


def test_bundle_inverse_quaternion_sign():
    g, c = quaternion_fixture(QQ)
    # the flip arrow squares to -identity, so the inverse coefficient is -1
    assert c(1, 1) == QQ.of(-1)
    assert bundle_inverse_coefficient(c, 1, QQ.one()) == QQ.of(-1)


def test_bundle_inverse_involutive():
    rng = random.Random(13)
    for name, g, _ in battery(GF5, ["pair2", "z2", "gb"]):
        c = random_coboundary(g, GF5, rng)
        for gamma in g.arrows():
            for _ in range(5):
                t = GF5.of(rng.randrange(1, 5))
                s = bundle_inverse_coefficient(c, gamma, t)
                back = bundle_inverse_coefficient(c, g.inv[gamma], s)
                assert back == t, name


def test_zero_cocycle_value_rejected(pair2):
    with pytest.raises(ZeroCocycleValue):
        Cocycle(pair2, QQ, {(0, 0): 0})


def test_non_composable_pair_rejected(pair2):
    bad = next(
        (a, b)
        for a in pair2.arrows()
        for b in pair2.arrows()
        if pair2.src[a] != pair2.tgt[b]
    )
    with pytest.raises(CocycleDomainError):
        Cocycle(pair2, QQ, {bad: 1})


def test_zero_has_no_partial_inverse(pair2):
    c = Cocycle.trivial(pair2, QQ)
    with pytest.raises(NoPartialInverse):
        bundle_inverse_coefficient(c, 0, QQ.zero())


def test_unvalidated_cocycle_refused_downstream(pair2):
    from groupoidalg.steinberg import delta

    raw = Cocycle(pair2, QQ, {})
    with pytest.raises(ValueError):
        delta(pair2, raw, 0)


# -- the walk over composable triples against the dense scan it replaced --------


def scanned_validate_cocycle(c):
    """The check as it was: every pair (a, b) times every arrow d, each value
    read through ``Cocycle.__call__``; the witness is the first failure."""
    g, f = c.groupoid, c.field
    one = f.one()
    for gamma in g.arrows():
        if c(gamma, g.src[gamma]) != one:
            return CocycleViolation("unit-normalization", (gamma, g.src[gamma]))
        if c(g.tgt[gamma], gamma) != one:
            return CocycleViolation("unit-normalization", (g.tgt[gamma], gamma))
    for a in g.arrows():
        for b in g.arrows():
            if g.src[a] != g.tgt[b]:
                continue
            for d in g.arrows():
                if g.src[b] != g.tgt[d]:
                    continue
                lhs = f.mul(c(a, b), c(g.comp[a][b], d))
                rhs = f.mul(c(a, g.comp[b][d]), c(b, d))
                if lhs != rhs:
                    return CocycleViolation("cocycle-identity", (a, b, d))
    return None


def large_prime_battery():
    """The battery over GF(101) and GF(2**61 - 1) under the coboundary of
    b = 3 on non-units, as ``twisted_battery`` does over GF(7)."""
    cases = []
    for p in (101, 2**61 - 1):
        field = GF(p)
        for name, g, _ in battery(field):
            values = {a: 1 if g.is_unit(a) else 3 for a in g.arrows()}
            cases.append((f"{name}/GF{p}", g, coboundary(g, field, values)))
    return cases


def mutation_values(field):
    """Values a mutation writes: over Q non-integers, a negative value and
    one with a 31-digit numerator; over GF(p) small values, -1 and, for a
    large p, residues whose products overflow 64 bits."""
    if field.p is None:
        return (2, Fraction(1, 2), Fraction(-3, 4), Fraction(10**30, 7))
    if field.p == 7:
        return (2, 6)
    return (2, field.p - 1, field.p // 2, field.p // 3 + 1)


def test_validate_cocycle_matches_dense_scan_on_single_mutations():
    """Every twisted battery cocycle, the battery over GF(101) and
    GF(2**61 - 1), and every copy with one value changed to each of
    ``mutation_values`` gets the same verdict and witness."""
    seen = set()
    for name, g, c in twisted_battery() + large_prime_battery():
        assert validate_cocycle(c) is None and scanned_validate_cocycle(c) is None, name
        for pair in g.composable_pairs():
            for value in mutation_values(c.field):
                mutated = c.mutated(pair, value)
                expected = scanned_validate_cocycle(mutated)
                assert validate_cocycle(mutated) == expected, (name, pair, value)
                assert mutated.validated is (expected is None), (name, pair)
                seen.add(None if expected is None else expected.condition)
    assert seen == {None, "unit-normalization", "cocycle-identity"}


FIELD_METHODS = {"mul", "add", "sub", "neg", "inv", "div", "of"}


def loop_depth(node):
    """The deepest nesting of ``for`` loops in node, node included."""
    inner = max(map(loop_depth, ast.iter_child_nodes(node)), default=0)
    return inner + isinstance(node, ast.For)


def outer_loops(node):
    """The ``for`` loops in node that lie inside no other ``for`` loop."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.For):
            yield child
        else:
            yield from outer_loops(child)


def triple_loop_arithmetic(source):
    """(loop count, offending nodes) for the triple loops in
    ``validate_cocycle`` (a loop over a ``composable_triples`` call, or an
    outermost nest of three ``for`` loops, as the walk by rows of the
    composition table is): every ``Field`` method call, every use of
    ``Fraction`` or of the field ``f``, and every read of ``.values``, whose
    entries are `Fraction`s over Q."""
    fn = next(node for node in ast.parse(source).body
              if isinstance(node, ast.FunctionDef) and node.name == "validate_cocycle")
    loops = [node for node in outer_loops(fn) if loop_depth(node) >= 3
             or isinstance(node.iter, ast.Call) and isinstance(node.iter.func, ast.Attribute)
             and node.iter.func.attr == "composable_triples"]
    found = []
    for loop in loops:
        for node in ast.walk(loop):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in FIELD_METHODS
                    or isinstance(node, ast.Name) and node.id in ("Fraction", "f")
                    or isinstance(node, ast.Attribute) and node.attr == "values"):
                found.append(ast.unparse(node))
    return len(loops), found


def test_validate_cocycle_compares_the_identity_in_ints(monkeypatch):
    """The triple loops make no ``Field`` call and no `Fraction` arithmetic:
    by the source, and over Q by counting `Fraction`'s operators in a run."""
    source = (Path(groupoidalg.__file__).parent / "twist.py").read_text(encoding="utf-8")
    loops, found = triple_loop_arithmetic(source)
    assert loops == 2 and found == []  # one loop over Q, one over GF(p)
    # the guard sees the body it replaced
    old = ("def validate_cocycle(c):\n"
           "    for a, b, d in g.composable_triples():\n"
           "        lhs = f.mul(w((a, b), one), w((comp[a][b], d), one))\n")
    assert triple_loop_arithmetic(old) == (
        1, ["f.mul(w((a, b), one), w((comp[a][b], d), one))", "f"])
    old_rows = ("def validate_cocycle(c):\n"
                "    for a, row in enumerate(comp):\n"
                "        for b in into[src[a]]:\n"
                "            for d in into[src[b]]:\n"
                "                lhs = f.mul(w[a][b], w[row[b]][d]) + Fraction(c.values[a, b])\n")
    assert triple_loop_arithmetic(old_rows) == (
        1, ["f.mul(w[a][b], w[row[b]][d])", "Fraction", "f", "c.values"])
    calls = []
    for op in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__truediv__"):
        method = getattr(Fraction, op)

        def counted(a, b, method=method, op=op):
            calls.append(op)
            return method(a, b)

        monkeypatch.setattr(Fraction, op, counted)
    g = GROUPOID_MAKERS["pair3"]()
    c = coboundary(g, QQ, [1 if g.is_unit(a) else Fraction(a + 2, 3) for a in g.arrows()])
    assert any(v.denominator > 1 for v in c.values.values())
    cocycles = (c, c.mutated(next(iter(c.values)), Fraction(-3, 4)))
    calls.clear()
    assert [validate_cocycle(cocycle) is None for cocycle in cocycles] == [True, False]
    assert calls == []


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(7), GF(101)],
                         ids=["Q", "GF2", "GF3", "GF7", "GF101"])
@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_validate_cocycle_matches_dense_scan_on_random_mutations(field, data):
    """A random coboundary (or the trivial cocycle) on a battery groupoid,
    with up to three values changed, gets the same verdict and witness."""
    names = sorted(GROUPOID_MAKERS)
    g = GROUPOID_MAKERS[data.draw(st.sampled_from(names))]()
    nonzero = st.integers(1, 3) if field.p is None else st.integers(1, field.p - 1)
    if data.draw(st.booleans()):
        b = [1 if g.is_unit(a) else data.draw(nonzero) for a in g.arrows()]
        c = coboundary(g, field, b)
    else:
        c = Cocycle.trivial(g, field)
    pairs = list(g.composable_pairs())
    for _ in range(data.draw(st.integers(0, 3))):
        c = c.mutated(data.draw(st.sampled_from(pairs)), data.draw(nonzero))
    expected = scanned_validate_cocycle(c)
    assert validate_cocycle(c) == expected
    assert c.validated is (expected is None)
