"""Exact linear algebra: spans, membership, intersections, quotients.

Derived expectations are checked against independent oracles: rank by
minor expansion, intersections by the kernel of the stacked system, and
quotients by the project/inject roundtrip.
"""

import ast
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import groupoidalg
from groupoidalg.errors import ContainmentError, DimensionMismatch
from groupoidalg.ideals import induced_ideal
from groupoidalg.induction import ImprimitivityBimodule
from groupoidalg.isotropy import Inclusion
from groupoidalg.linalg import (
    GF,
    QQ,
    Field,
    QuotientSpace,
    Subspace,
    combine,
    eliminate,
    insert_row,
    isprime,
    quotient,
    right_kernel,
    rref,
    span,
)
from groupoidalg.modrep import germ_space, quotient_module, regular_module

from conftest import twisted_battery

GF3 = GF(3)
GF5 = GF(5)
GF7 = GF(7)


# -- independent oracles -----------------------------------------------------


def det_oracle(rows, field):
    """Determinant by cofactor expansion; exponential, used only on small minors."""
    n = len(rows)
    if n == 0:
        return field.one()
    if n == 1:
        return rows[0][0]
    total = field.zero()
    sign = field.one()
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = field.mul(rows[0][j], det_oracle(minor, field))
        total = field.add(total, field.mul(sign, term))
        sign = field.neg(sign)
    return total


def rank_oracle(rows, field):
    """Rank as the largest size of a square minor with nonzero determinant."""
    rows = [tuple(r) for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    for size in range(min(len(rows), ncols), 0, -1):
        for rsel in itertools.combinations(range(len(rows)), size):
            for csel in itertools.combinations(range(ncols), size):
                minor = [tuple(rows[i][j] for j in csel) for i in rsel]
                if det_oracle(minor, field) != 0:
                    return size
    return 0


def intersection_oracle(S, T):
    """S intersect T through the kernel of the stacked coefficient system."""
    field = S.field
    stacked = list(S.basis) + list(T.basis)
    cols = len(stacked)
    transposed = [
        tuple(stacked[j][i] for j in range(cols)) for i in range(S.ambient_dim)
    ]
    combos = right_kernel(transposed, cols, field).basis
    vectors = []
    for combo in combos:
        v = [field.zero()] * S.ambient_dim
        for c, row in zip(combo[: S.dim], S.basis):
            for j, a in enumerate(row):
                v[j] = field.add(v[j], field.mul(c, a))
        vectors.append(tuple(v))
    return Subspace.span(vectors, S.ambient_dim, field)


def respanned_intersect(S, T):
    """The Zassenhaus intersection spanned again: the right halves of the
    reduced [S | S; T | 0] rows whose left half vanished."""
    n, field = S.ambient_dim, S.field
    zero = (field.zero(),) * n
    reduced, _ = rref([row + row for row in S.basis] + [row + zero for row in T.basis], field)
    return span([row[n:] for row in reduced if all(c == 0 for c in row[:n])], n, field)


def eliminated_section(numerator, kernel):
    """The quotient section by elimination: each numerator row reduced by
    the kernel, the results spanned."""
    return span([kernel.reduce(v) for v in numerator.basis], numerator.ambient_dim,
                numerator.field)


def assert_quotient_matches_elimination(q, vectors):
    """q's section (values and types), pivots and ``project`` coordinates
    agree with the eliminated section, and ``project`` raises
    ``ContainmentError`` exactly where the eliminated section has no
    coordinates for the reduced vector."""
    oracle = eliminated_section(q.ambient, q.kernel)
    assert repr(q.section_basis) == repr(oracle.basis)
    assert q.section.pivots == oracle.pivots
    for v in vectors:
        coords = oracle.membership(q.kernel.reduce(v))
        if coords is None:
            with pytest.raises(ContainmentError):
                q.project(v)
        else:
            assert q.project(v) == coords


def random_vector(rng, n, field):
    if field.p is None:
        return tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n))
    return tuple(rng.randrange(field.p) for _ in range(n))


# -- span ---------------------------------------------------------------------


def test_span_empty_is_zero():
    s = span([], 3, QQ)
    assert s.dim == 0
    assert s.basis == ()


def test_span_dependent_rows():
    s = span([(Fraction(1), Fraction(1)), (Fraction(2), Fraction(2))], 2, QQ)
    assert s.dim == 1
    assert s.basis == ((Fraction(1), Fraction(1)),)


def test_span_matches_minor_rank_oracle():
    rng = random.Random(31)
    for _ in range(30):
        vectors = [random_vector(rng, 4, GF3) for _ in range(4)]
        assert span(vectors, 4, GF3).dim == rank_oracle(vectors, GF3)


def test_span_length_mismatch():
    with pytest.raises(DimensionMismatch):
        span([(1, 0), (1, 0, 0)], 2, GF3)


def test_span_idempotent_on_basis():
    rng = random.Random(7)
    vectors = [random_vector(rng, 5, QQ) for _ in range(3)]
    s = span(vectors, 5, QQ)
    assert span(s.basis, 5, QQ) == s


def test_rref_canonical_under_recombination():
    rng = random.Random(11)
    vectors = [random_vector(rng, 4, GF5) for _ in range(3)]
    s = span(vectors, 4, GF5)
    # recombine generators: same span, identical basis
    mixed = [
        tuple(GF5.add(a, GF5.mul(2, b)) for a, b in zip(vectors[0], vectors[1])),
        vectors[2],
        vectors[1],
        vectors[0],
    ]
    assert span(mixed, 4, GF5).basis == s.basis


# -- membership ----------------------------------------------------------------


def test_membership_zero_vector():
    s = span([(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))], 2, QQ)
    coords = s.membership((Fraction(0), Fraction(0)))
    assert coords == (Fraction(0), Fraction(0))


def test_membership_negative():
    s = span([(Fraction(0), Fraction(1))], 2, QQ)
    assert s.membership((Fraction(1), Fraction(0))) is None


def test_membership_construct_then_test():
    rng = random.Random(23)
    for _ in range(25):
        vectors = [random_vector(rng, 5, GF5) for _ in range(3)]
        s = span(vectors, 5, GF5)
        combo = [rng.randrange(5) for _ in range(s.dim)]
        v = [GF5.zero()] * 5
        for c, row in zip(combo, s.basis):
            for j, a in enumerate(row):
                v[j] = GF5.add(v[j], GF5.mul(c, a))
        coords = s.membership(tuple(v))
        assert coords == tuple(combo)


def test_membership_dimension_mismatch():
    s = span([(1, 0)], 2, GF3)
    with pytest.raises(DimensionMismatch):
        s.membership((1, 0, 0))


@st.composite
def membership_inputs(draw, field):
    """(S, v, T): a subspace of K^n (a span of up to four drawn rows, or the
    zero or the full subspace), a vector that is a combination of S's basis
    or arbitrary, and the span of v and up to two more drawn vectors."""
    n = draw(st.integers(1, 5))
    if field.p is None:
        scalar = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    else:
        scalar = st.builds(field.of, st.integers(0, field.p - 1))
    vector = st.tuples(*[scalar] * n)
    kind = draw(st.sampled_from(["span", "zero", "full"]))
    if kind == "zero":
        S = Subspace.zero(n, field)
    elif kind == "full":
        S = Subspace.full(n, field)
    else:
        S = span(draw(st.lists(vector, max_size=4)), n, field)
    if S.dim and draw(st.booleans()):
        coeffs = draw(st.lists(scalar, min_size=S.dim, max_size=S.dim))
        v = combine(coeffs, S.basis, field)
    else:
        v = draw(vector)
    T = span([v] + draw(st.lists(vector, max_size=2)), n, field)
    return S, v, T


@pytest.mark.parametrize("field", [QQ, GF(2), GF3, GF(101)],
                         ids=["Q", "GF2", "GF3", "GF101"])
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_membership_agrees_with_elimination(field, data):
    """``in``, ``membership``, ``contains_all`` and ``contains_subspace`` read
    their answer off the RREF equations; the residual of ``reduce`` is the
    oracle."""
    S, v, T = data.draw(membership_inputs(field))
    n = S.ambient_dim
    inside = all(c == 0 for c in S.reduce(v))
    assert (v in S) is inside
    assert S.contains_all([v]) is inside
    coords = S.membership(v)
    assert (coords is not None) is inside
    if inside:
        assert S.from_coordinates(coords) == v
    assert S.contains_subspace(T) is all(all(c == 0 for c in S.reduce(w)) for w in T.basis)
    assert S.contains_all(T.basis) is S.contains_subspace(T)
    assert S.contains_all([]) is True
    assert Subspace.full(n, field).contains_subspace(S)
    assert S.contains_subspace(Subspace.zero(n, field))
    longer = tuple(v) + (field.zero(),)
    for check in (S.membership, S.__contains__, lambda w: S.contains_all([w])):
        with pytest.raises(DimensionMismatch):
            check(longer)
    with pytest.raises(DimensionMismatch):
        S.contains_subspace(Subspace.zero(n + 1, field))


# -- intersection ----------------------------------------------------------------


def test_intersect_idempotent():
    rng = random.Random(5)
    s = span([random_vector(rng, 4, QQ) for _ in range(2)], 4, QQ)
    assert s.intersect(s) == s


def test_intersect_with_zero():
    s = span([(1, 2, 0)], 3, GF3)
    zero = Subspace.zero(3, GF3)
    assert s.intersect(zero) == zero


def test_intersect_matches_stacked_kernel_oracle():
    rng = random.Random(17)
    for _ in range(25):
        s = span([random_vector(rng, 3, QQ) for _ in range(2)], 3, QQ)
        t = span([random_vector(rng, 3, QQ) for _ in range(2)], 3, QQ)
        inter = s.intersect(t)
        assert inter == intersection_oracle(s, t)
        if s.dim == 2 and t.dim == 2:
            assert inter.dim >= 1


def test_dimension_formula():
    rng = random.Random(41)
    for _ in range(40):
        s = span([random_vector(rng, 5, GF5) for _ in range(rng.randint(0, 4))], 5, GF5)
        t = span([random_vector(rng, 5, GF5) for _ in range(rng.randint(0, 4))], 5, GF5)
        assert s.add(t).dim + s.intersect(t).dim == s.dim + t.dim


# -- quotient ----------------------------------------------------------------------


def test_quotient_by_self_is_zero():
    s = span([(1, 0, 0), (0, 1, 0)], 3, GF3)
    q = quotient(s, s)
    assert q.dim == 0


def test_quotient_by_zero_keeps_basis():
    s = span([(1, 0, 0), (0, 1, 0)], 3, GF3)
    q = quotient(s, Subspace.zero(3, GF3))
    assert q.dim == s.dim
    assert q.section_basis == s.basis


def test_quotient_project_inject_roundtrip():
    rng = random.Random(3)
    numerator = Subspace.full(4, QQ)
    kernel = span([random_vector(rng, 4, QQ) for _ in range(2)], 4, QQ)
    assert kernel.dim == 2
    q = quotient(numerator, kernel)
    assert q.dim == 2
    for _ in range(20):
        coords = tuple(Fraction(rng.randint(-5, 5)) for _ in range(q.dim))
        assert q.project(q.inject(coords)) == coords


def test_quotient_exactness():
    rng = random.Random(9)
    numerator = Subspace.full(4, GF5)
    kernel = span([random_vector(rng, 4, GF5) for _ in range(2)], 4, GF5)
    q = quotient(numerator, kernel)
    for _ in range(20):
        v = random_vector(rng, 4, GF5)
        w = q.inject(q.project(v))
        resid = tuple(GF5.sub(a, b) for a, b in zip(w, v))
        assert resid in kernel


def test_quotient_containment_error():
    s = span([(1, 0)], 2, GF3)
    t = span([(0, 1)], 2, GF3)
    with pytest.raises(ContainmentError):
        quotient(s, t)


@pytest.mark.parametrize("field", [QQ, GF3], ids=["Q", "GF3"])
def test_delta_spans_match_elimination(field):
    """Subspace.deltas agrees with span, value types included, and the
    quotient of two delta spans has the remaining deltas as its section."""
    def delta(a):
        return tuple(field.of(int(j == a)) for j in range(6))

    numerator, kernel = Subspace.deltas([4, 1, 3, 1], 6, field), Subspace.deltas([3], 6, field)
    assert numerator.pivots == (1, 3, 4)
    assert numerator == span([delta(a) for a in (1, 3, 4)], 6, field)
    assert repr(numerator.basis) == repr(span([delta(a) for a in (4, 3, 1)], 6, field).basis)
    assert Subspace.full(6, field) == span([delta(a) for a in range(6)], 6, field)
    q = quotient(numerator, kernel)
    assert repr(q.section_basis) == repr(Subspace.deltas([1, 4], 6, field).basis)
    assert q.project(combine((2, 5), (delta(4), delta(3)), field)) == (field.zero(), field.of(2))


def test_quotient_section_zero_on_kernel_pivots():
    kernel = span([(1, 2, 0, 1), (0, 0, 1, 2)], 4, GF3)
    q = quotient(Subspace.full(4, GF3), kernel)
    for rep in q.section_basis:
        for pc in kernel.pivots:
            assert rep[pc] == 0


@st.composite
def quotient_inputs(draw, field):
    """(N, K, T, vectors): a subspace N of K^n (a span of up to four drawn
    rows, or the zero or the full subspace), a subspace K of N spanned by
    drawn combinations of N's basis, a span T of up to three drawn rows, and
    vectors that are combinations of N's basis or arbitrary."""
    n = draw(st.integers(1, 6))
    if field.p is None:
        scalar = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    else:
        scalar = st.builds(field.of, st.integers(0, field.p - 1))
    vector = st.tuples(*[scalar] * n)
    kind = draw(st.sampled_from(["span", "zero", "full"]))
    if kind == "zero":
        N = Subspace.zero(n, field)
    elif kind == "full":
        N = Subspace.full(n, field)
    else:
        N = span(draw(st.lists(vector, max_size=4)), n, field)
    coefficients = st.lists(scalar, min_size=N.dim, max_size=N.dim)
    inside = [combine(c, N.basis, field) for c in draw(st.lists(coefficients, max_size=5))
              if N.dim]
    K = span(inside[:draw(st.integers(0, len(inside)))], n, field)
    T = span(draw(st.lists(vector, max_size=3)), n, field)
    return N, K, T, inside + draw(st.lists(vector, max_size=3))


@pytest.mark.parametrize("field", [QQ, GF(2), GF3, GF7, GF(101)],
                         ids=["Q", "GF2", "GF3", "GF7", "GF101"])
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_pivot_reads_agree_with_elimination(field, data):
    """The quotient section read off the numerator's rows agrees with the
    eliminated one, the kernel not lying in the numerator raises
    ``ContainmentError`` in both, the intersection read off the
    Zassenhaus rows equals the re-spanned one, and the join built by
    inserting one basis into the other equals the span of both bases."""
    N, K, T, vectors = data.draw(quotient_inputs(field))
    assert_quotient_matches_elimination(quotient(N, K), vectors)
    if N.contains_subspace(T):
        assert_quotient_matches_elimination(quotient(N, T), vectors)
    else:
        assert any(any(c != 0 for c in N.reduce(w)) for w in T.basis)
        with pytest.raises(ContainmentError):
            quotient(N, T)
    for S, R in [(N, T), (T, N), (K, T), (N, K)]:
        inter = S.intersect(R)
        expected = respanned_intersect(S, R)
        assert repr(inter.basis) == repr(expected.basis)
        assert inter.pivots == expected.pivots
        assert inter == intersection_oracle(S, R)
        joined, spanned = S.add(R), span(S.basis + R.basis, S.ambient_dim, field)
        assert repr(joined.basis) == repr(spanned.basis)
        assert joined.pivots == spanned.pivots


def test_quotients_and_intersections_count_their_eliminations(monkeypatch):
    """A quotient of the full space makes no ``rref`` call (its section is
    the full space's rows off the kernel's pivots), an intersection makes
    one (the Zassenhaus block), and a join makes none (the other space's
    rows are inserted into a copy of the RREF rows held)."""
    from groupoidalg import linalg

    calls = []

    def counted(rows, field):
        calls.append(len(rows))
        return rref(rows, field)

    rng = random.Random(19)
    S = span([random_vector(rng, 5, QQ) for _ in range(3)], 5, QQ)
    T = span([random_vector(rng, 5, QQ) for _ in range(3)], 5, QQ)
    monkeypatch.setattr(linalg, "rref", counted)
    q = quotient(Subspace.full(5, QQ), S)
    assert calls == [] and q.dim == 2
    inter = S.intersect(T)
    assert calls == [6] and inter.dim == 1
    joined = S.add(T)
    assert calls == [6] and joined == Subspace.full(5, QQ)
    assert S.add(inter) == S and calls == [6]


def test_layer_quotients_agree_with_elimination(monkeypatch):
    """Every quotient the layers build on the twisted battery agrees with
    the eliminated section: C/H at each unit pair, the bimodule
    M_x = B/BJ_x, the germ spaces V/J_x V of the regular module, and B/I
    (with its germ spaces) for the zero ideal and the ideals induced from
    the zero ideal of each B(x, x).  ``project`` is compared on the
    numerator, kernel and section bases and on every delta outside the
    numerator."""
    built, stage = [], [None]
    build = QuotientSpace.__init__

    def recorded(self, numerator, kernel):
        build(self, numerator, kernel)
        built.append((stage[0], self))

    monkeypatch.setattr(QuotientSpace, "__init__", recorded)
    for _, g, c in twisted_battery():
        inc = Inclusion(g, c)
        stage[0] = "C/H"
        for y, x in itertools.product(g.units, repeat=2):
            inc.isotropy_data(y, x)
        reg = regular_module(inc.B)
        for x in g.units:
            stage[0] = "M_x"
            ImprimitivityBimodule(inc, x)
            stage[0] = "germ"
            germ_space(inc, reg, x)
        stage[0] = "B/I"
        induced = [induced_ideal(inc, x, Subspace.zero(inc.isotropy_data(x, x).dim, c.field))
                   for x in g.units]
        for I in {Subspace.zero(inc.m, c.field), *induced}:
            if I.dim < inc.m:
                V, _ = quotient_module(reg, I)
                for x in g.units:
                    germ_space(inc, V, x)
    assert {kind for kind, _ in built} == {"C/H", "M_x", "germ", "B/I"}
    for _, q in built:
        n, field = q.ambient.ambient_dim, q.field
        outside = [tuple(field.of(int(j == a)) for j in range(n)) for a in range(n)]
        outside = [v for v in outside if v not in q.ambient]
        assert_quotient_matches_elimination(
            q, q.ambient.basis + q.kernel.basis + q.section_basis + tuple(outside))


# -- field arithmetic ---------------------------------------------------------------


def test_gfp_matches_integer_arithmetic():
    rng = random.Random(1234)
    p = 7
    f = GF(p)
    for _ in range(1000):
        a, b = rng.randrange(100), rng.randrange(100)
        fa, fb = f.of(a), f.of(b)
        assert f.add(fa, fb) == (a + b) % p
        assert f.mul(fa, fb) == (a * b) % p
        if fa != 0:
            assert f.mul(fa, f.inv(fa)) == 1


def test_field_parse_format():
    assert QQ.parse("3/4") == Fraction(3, 4)
    assert QQ.format(Fraction(-1, 2)) == "-1/2"
    assert GF5.parse("7") == 2
    with pytest.raises(ValueError):
        Field(6)


@settings(max_examples=200, deadline=None)
@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
def test_gf5_ring_laws(a, b, c):
    f = GF5
    x, y, z = f.of(a), f.of(b), f.of(c)
    assert f.add(x, f.add(y, z)) == f.add(f.add(x, y), z)
    assert f.mul(x, f.mul(y, z)) == f.mul(f.mul(x, y), z)
    assert f.mul(x, f.add(y, z)) == f.add(f.mul(x, y), f.mul(x, z))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(0, 4), min_size=3, max_size=3), min_size=0, max_size=4
    )
)
def test_span_idempotence_property(rows):
    s = span(rows, 3, GF5)
    assert span(s.basis, 3, GF5) == s
    assert s.add(s) == s


# -- the echelon engine: rref and insert_row ------------------------------------------


@st.composite
def engine_inputs(draw, field):
    """(rows, candidate, rng) over the field: a small matrix, one vector
    that is either a combination of its rows or arbitrary, and a seeded
    random source.  Rational entries mix ints and Fractions."""
    ncols = draw(st.integers(1, 4))
    if field.p is None:
        scalar = st.builds(
            lambda n, d: n if d == 1 else Fraction(n, d),
            st.integers(-3, 3), st.integers(1, 3),
        )
    else:
        scalar = st.integers(0, field.p - 1)
    vector = st.tuples(*[scalar] * ncols)
    rows = draw(st.lists(vector, min_size=0, max_size=4))
    if rows and draw(st.booleans()):
        coeffs = [field.of(c) for c in draw(st.lists(scalar, min_size=len(rows),
                                                      max_size=len(rows)))]
        candidate = combine(coeffs, [tuple(map(field.of, r)) for r in rows], field)
    else:
        candidate = draw(vector)
    return rows, candidate, draw(st.randoms(use_true_random=False))


@pytest.mark.parametrize("field", [QQ, GF7], ids=["Q", "GF7"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_echelon_engine_properties(field, data):
    rows, candidate, rng = data.draw(engine_inputs(field))
    basis, pivots = rref(rows, field)

    # canonical under row permutation and under adding a multiple of a row
    shuffled = rows[:]
    rng.shuffle(shuffled)
    assert rref(shuffled, field) == (basis, pivots)
    if len(rows) >= 2:
        i, j = rng.sample(range(len(rows)), 2)
        c = field.of(rng.randint(1, 4))
        mixed = rows[:]
        mixed[i] = tuple(field.add(field.of(a), field.mul(c, field.of(b)))
                         for a, b in zip(rows[i], rows[j]))
        assert rref(mixed, field) == (basis, pivots)

    # every input row lies in the span of the output
    for r in rows:
        assert all(v == 0 for v in eliminate(r, basis, pivots, field))
    if field.p is None:
        assert all(isinstance(v, Fraction) for row in basis for v in row)

    # insert_row reports False exactly for vectors already in the span
    in_span = rank_oracle(rows + [candidate], field) == rank_oracle(rows, field)
    grown, grown_pivots = [list(r) for r in basis], list(pivots)
    assert insert_row(grown, grown_pivots, candidate, field) is not in_span
    expected = rref(rows + [candidate], field)
    assert ([tuple(r) for r in grown], grown_pivots) == expected
    if field.p is None:
        assert all(isinstance(v, Fraction) for row in grown for v in row)


def test_package_uses_no_floating_point():
    """The package claims exact arithmetic only: no float or complex
    literal, and no call to ``float`` or ``math.sqrt``, in any module."""
    offenders = []
    for path in sorted(Path(groupoidalg.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                offenders.append((path.name, node.lineno, repr(node.value)))
            elif isinstance(node, ast.Call) and ast.unparse(node.func) in (
                "float", "math.sqrt", "sqrt"
            ):
                offenders.append((path.name, node.lineno, ast.unparse(node)))
    assert offenders == []


LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
         ast.GeneratorExp)


def per_seed_scans(source, driver=None):
    """(line, text) of every call that scans seeds one closure at a time: a
    ``normalized_vectors`` call outside the function named ``driver``, and
    a ``closure_under`` call anywhere inside a loop or comprehension."""
    tree = ast.parse(source)
    allowed = range(0)
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == driver:
            allowed = range(node.lineno, node.end_lineno + 1)
    found = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and ast.unparse(node.func) == "normalized_vectors"
                and node.lineno not in allowed):
            found.add((node.lineno, ast.unparse(node)))
        if isinstance(node, LOOPS):
            found |= {(call.lineno, ast.unparse(call)) for call in ast.walk(node)
                      if isinstance(call, ast.Call) and ast.unparse(call.func) == "closure_under"}
    return sorted(found)


def test_cyclic_closures_come_from_one_memoised_pass():
    """Every cyclic closure over GF(p) comes from ``modrep._cyclic_closures``,
    which reads each one off the seed's images: only it may walk
    ``normalized_vectors``, and no loop in the package may call
    ``closure_under``, so the per-seed spinning scans cannot come back."""
    offenders = []
    for path in sorted(Path(groupoidalg.__file__).parent.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        offenders += [(path.name, line, text)
                      for line, text in per_seed_scans(source, "_cyclic_closures")]
    assert offenders == []
    # the guard sees the scans it replaces, written as a loop or a comprehension
    scan = "for seed in normalized_vectors(d, p):\n    w = closure_under(ms, [seed], d, f)\n"
    assert per_seed_scans(scan) == [(1, "normalized_vectors(d, p)"),
                                    (2, "closure_under(ms, [seed], d, f)")]
    comprehension = "ws = {closure_under(ms, [s], d, f).basis for s in seeds}\n"
    assert per_seed_scans(comprehension) == [(1, "closure_under(ms, [s], d, f)")]
    driver = "def walk(d, p):\n    yield from normalized_vectors(d, p)\n"
    assert per_seed_scans(driver, "walk") == []


def _is_product(node):
    return isinstance(node, ast.Call) and ast.unparse(node.func) == "mat_mul"


def mat_mul_comparisons(source):
    """(line, text) of every == / != between two ``mat_mul(...)`` calls, each
    written out or held in a name that the enclosing function binds to one."""
    found = set()
    for scope in ast.walk(ast.parse(source)):
        if not isinstance(scope, (ast.Module, ast.FunctionDef)):
            continue
        nodes = list(ast.walk(scope))
        products = set()  # names count only inside the function binding them
        if isinstance(scope, ast.FunctionDef):
            products = {target.id for node in nodes if isinstance(node, ast.Assign)
                        and _is_product(node.value) for target in node.targets
                        if isinstance(target, ast.Name)}
        for node in nodes:
            if isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops
            ):
                operands = [node.left, *node.comparators]
                if sum(_is_product(o) or (isinstance(o, ast.Name) and o.id in products)
                       for o in operands) >= 2:
                    found.add((node.lineno, ast.unparse(node)))
    return sorted(found)


def test_module_maps_are_checked_only_by_intertwines():
    """Comparing two matrix products is a module-map test, and the package
    has one: ``modrep.intertwines``, which builds no ``mat_mul`` product.
    No function may compare two ``mat_mul`` calls."""
    package = Path(groupoidalg.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        offenders += [(path.name, line, text) for line, text in mat_mul_comparisons(source)]
    assert offenders == []
    # the guard sees both forms of the loops it replaces
    inline = "for a in acts:\n    if mat_mul(T, a, f) != mat_mul(a, T, f):\n        raise E\n"
    assert mat_mul_comparisons(inline) == [(2, "mat_mul(T, a, f) != mat_mul(a, T, f)")]
    named = "def check(T, acts, f):\n    for a in acts:\n        lhs = mat_mul(T, a, f)\n" \
        "        rhs = mat_mul(a, T, f)\n        if lhs != rhs:\n            raise E\n"
    assert mat_mul_comparisons(named) == [(5, "lhs != rhs")]


FIELD_ARITHMETIC = {"mul", "add", "sub"}
DENSE_PRODUCTS = {"mat_mul", "combine"}


def reached_functions(source, roots):
    """The module-level functions of ``source`` that the roots call,
    directly or through each other, the roots included."""
    functions = {node.name: node for node in ast.parse(source).body
                 if isinstance(node, ast.FunctionDef)}
    reached, stack = {}, list(roots)
    while stack:
        name = stack.pop()
        if name in reached:
            continue
        reached[name] = functions[name]
        stack += [node.func.id for node in ast.walk(functions[name])
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id in functions]
    return reached


def field_arithmetic_calls(source, roots):
    """(function, call) of every ``Field`` arithmetic call (``.mul``, ``.add``,
    ``.sub``) and every ``mat_mul``/``combine`` call in the roots and the
    functions they reach."""
    found = []
    for name, fn in sorted(reached_functions(source, roots).items()):
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (isinstance(func, ast.Attribute) and func.attr in FIELD_ARITHMETIC
                    or isinstance(func, ast.Name) and func.id in DENSE_PRODUCTS):
                found.append((name, ast.unparse(node)))
    return found


def test_module_checks_run_on_the_int_kernel():
    """``check_module`` and ``intertwines`` share one kernel and, with every
    function they reach, make no ``Field`` arithmetic call and build no
    ``mat_mul``/``combine`` product: over Q that would bring `Fraction`
    arithmetic back into the checks."""
    source = (Path(groupoidalg.__file__).parent / "modrep.py").read_text(encoding="utf-8")
    roots = ("check_module", "intertwines")
    assert field_arithmetic_calls(source, roots) == []
    kernels = [set(reached_functions(source, [root])) - {root} for root in roots]
    assert "_accumulate" in kernels[0] & kernels[1]
    # the guard sees the bodies the kernel replaced, and calls through helpers
    dense = "def intertwines(T, a1, a2, f):\n    return mat_mul(T, a1, f) == mat_mul(a2, T, f)\n"
    assert field_arithmetic_calls(dense, ["intertwines"]) == [
        ("intertwines", "mat_mul(T, a1, f)"), ("intertwines", "mat_mul(a2, T, f)")]
    helper = "def add(out, f, c, a):\n    out[0] = f.add(out[0], f.mul(c, a))\n\n\n" \
        "def check_module(m):\n    add([0], m.field, 1, 1)\n"
    assert field_arithmetic_calls(helper, ["check_module"]) == [
        ("add", "f.add(out[0], f.mul(c, a))"), ("add", "f.mul(c, a)")]


@pytest.mark.parametrize("p", [2**64 - 59, 2**61 - 1, 1000000007])
def test_large_primes_make_fields(p):
    assert GF(p).p == p


@pytest.mark.parametrize("p", [1000000007 * 1000000009, 2**64 - 1, 1, 0, -7])
def test_composites_and_small_values_are_not_prime(p):
    with pytest.raises(ValueError, match="is not prime"):
        GF(p)


@pytest.mark.parametrize("p", [2**64, 2 * 10**399])
def test_values_from_two_to_the_64_are_refused(p):
    with pytest.raises(ValueError, match="2\\*\\*64"):
        GF(p)


# spsp to the bases 2; 2, 3; 2, 3, 5; ...; 2, ..., 23 (the least of each)
STRONG_PSEUDOPRIMES = [2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
                       341550071728321, 3825123056546413051]
CARMICHAEL_NUMBERS = [561, 1105, 1729, 41041, 825265]


def test_isprime_agrees_with_sympy():
    """The stdlib Miller-Rabin test against sympy's, on every n < 10**5,
    on 10**5 seeded values below 2**64, and on composites that fool
    Fermat or strong-probable-prime tests to fewer bases."""
    from sympy import isprime as sympy_isprime

    rng = random.Random(0)
    values = (list(range(-3, 10**5)) + [rng.randrange(2**64) for _ in range(10**5)]
              + STRONG_PSEUDOPRIMES + CARMICHAEL_NUMBERS)
    assert [n for n in values if isprime(n) != sympy_isprime(n)] == []
    assert not any(isprime(n) for n in STRONG_PSEUDOPRIMES + CARMICHAEL_NUMBERS)
    assert sum(map(isprime, range(10**5))) == 9592


def test_rational_zero_and_one_are_shared():
    assert QQ.zero() is QQ.zero() and QQ.one() is QQ.one()
    assert (repr(QQ.zero()), repr(QQ.one())) == ("Fraction(0, 1)", "Fraction(1, 1)")
    assert (GF(5).zero(), GF(5).one()) == (0, 1)


# dense reads of module actions allowed in the package, by (file, function):
# these apply dense matrices that are not module actions, E(y, x) and nu
DENSE_READS_ALLOWED = {
    ("isotropy.py", "Inclusion.isotropy_projection"),
    ("isotropy.py", "Inclusion.projection"),
    ("induction.py", "ImprimitivityBimodule.nu_of"),
}
DENSE_ACTION_ATTRIBUTES = {"matrices", "mult_matrices", "action_of"}


def dense_action_reads(source):
    """(function, line, text) of every dense read of a module action: an
    attribute ``matrices``, ``mult_matrices`` or ``action_of``, and every
    ``mat_vec`` call.  ``function`` is the enclosing Class.function (or ""
    at module level)."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if ((isinstance(node, ast.Attribute) and node.attr in DENSE_ACTION_ATTRIBUTES)
                or (isinstance(node, ast.Call) and ast.unparse(node.func) == "mat_vec")):
            found.append((scope, node.lineno, ast.unparse(node)))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_module_actions_are_read_only_as_sparse_rows():
    """No function of the package reads a module action densely: the dense
    views ``FdModule.matrices`` and ``FdModule.action_of`` are for oracles,
    ``AlgebraPresentation.mult_matrices`` is gone, and ``mat_vec`` applies
    only the projections in ``DENSE_READS_ALLOWED``."""
    package = Path(groupoidalg.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        offenders += [(path.name, scope, line, text)
                      for scope, line, text in dense_action_reads(path.read_text(encoding="utf-8"))
                      if (path.name, scope) not in DENSE_READS_ALLOWED]
    assert offenders == []
    # the guard sees the dense reads this package made before
    parent = ("class B:\n    def f(self, V, x, f):\n        acts = V.matrices\n"
              "        left, right = self.B.mult_matrices()\n"
              "        return mat_vec(left[x], V.action_of(x)[0], f)\n")
    assert [(scope, line) for scope, line, _ in dense_action_reads(parent)] == [
        ("B.f", 3), ("B.f", 4), ("B.f", 5), ("B.f", 5)]
