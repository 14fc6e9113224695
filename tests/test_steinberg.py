"""Convolution, unit-function embedding, sections, partial inverses,
and the structure-constant presentations."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupoidalg.errors import BisectionRequired
from groupoidalg.groupoid import (
    action_groupoid,
    cyclic_group_table,
    disjoint_union,
    group_bundle,
    group_groupoid,
    klein_four_table,
    pair_groupoid,
)
from groupoidalg.linalg import (
    GF,
    QQ,
    dense_rows,
    identity_matrix,
    operator_matrix,
    right_kernel,
    sparse_rows,
)
from groupoidalg.isotropy import Inclusion
from groupoidalg.steinberg import (
    AlgebraElement,
    AlgebraPresentation,
    algebra_identity,
    convolve,
    dedicated_unit,
    delta,
    delta_section,
    element_from_vector,
    embed_unit_function,
    partial_inverse,
    presentation_of_B,
    twisted_group_algebra,
    unit_indicator,
)
from groupoidalg.twist import Cocycle, coboundary, restrict_to_isotropy

from conftest import battery, prime_twisted_battery, quaternion_fixture, twisted_battery

GF5 = GF(5)


# -- oracles -------------------------------------------------------------------


def matrix_unit_product_oracle(n, i, j, k, l):
    """E_ij E_kl = delta_jk E_il in the n x n matrix algebra."""
    return (i, l) if j == k else None


def pair_arrow(n, i, j):
    """The arrow of pair_groupoid(n) playing the matrix unit E_ij."""
    return i * n + j


def quaternion_sign_table():
    """Signs of products of the unit quaternion lift 1, i, j, k."""
    return [
        [1, 1, 1, 1],
        [1, -1, 1, -1],
        [1, -1, -1, 1],
        [1, 1, -1, -1],
    ]


def random_bisection_section(g, c, rng):
    field = c.field
    arrows = list(g.arrows())
    rng.shuffle(arrows)
    chosen = []
    srcs, tgts = set(), set()
    for a in arrows:
        if g.src[a] not in srcs and g.tgt[a] not in tgts:
            chosen.append(a)
            srcs.add(g.src[a])
            tgts.add(g.tgt[a])
        if len(chosen) >= rng.randint(1, 3):
            break
    if field.p is None:
        values = {a: Fraction(rng.randint(1, 5), rng.randint(1, 3)) for a in chosen}
    else:
        values = {a: field.of(rng.randrange(1, field.p)) for a in chosen}
    return delta_section(g, c, values)


# -- convolution -----------------------------------------------------------------


def test_unit_delta_is_idempotent():
    for _, g, c in battery(QQ, ["pair2", "gb"]):
        for u in g.units:
            d = delta(g, c, u)
            assert convolve(d, d) == d


def test_pair2_matches_matrix_units():
    g = pair_groupoid(2)
    c = Cocycle.trivial(g, QQ)
    n = 2
    for i, j, k, l in itertools.product(range(n), repeat=4):
        a = delta(g, c, pair_arrow(n, i, j))
        b = delta(g, c, pair_arrow(n, k, l))
        prod = convolve(a, b)
        expected = matrix_unit_product_oracle(n, i, j, k, l)
        if expected is None:
            assert prod.is_zero()
        else:
            assert prod == delta(g, c, pair_arrow(n, *expected))


def test_quaternion_sign_products():
    g, c = quaternion_fixture(QQ)
    signs = quaternion_sign_table()
    d = [delta(g, c, a) for a in range(4)]
    assert convolve(d[1], d[1]) == d[0].scale(QQ.of(-1))
    assert convolve(d[1], d[2]) == d[3]
    assert convolve(d[2], d[1]) == d[3].scale(QQ.of(-1))
    for a in range(4):
        for b in range(4):
            prod = convolve(d[a], d[b])
            target = g.comp[a][b]
            assert prod == d[target].scale(QQ.of(signs[a][b]))


def test_embed_zero():
    for _, g, c in battery(QQ, ["pair2"]):
        z = embed_unit_function(g, c, {})
        assert z.is_zero()


def check_s_unital_identity(groupoid, cocycle) -> bool:
    """Indicator of all units is a two-sided identity (finite case check)."""
    e = algebra_identity(groupoid, cocycle)
    for a in groupoid.arrows():
        d = delta(groupoid, cocycle, a)
        if convolve(e, d) != d or convolve(d, e) != d:
            return False
    return True


def test_identity_indicator_is_two_sided_unit():
    for name, g, c in battery(QQ):
        assert check_s_unital_identity(g, c), name


def test_point_indicator_action():
    for _, g, c in battery(QQ, ["pair3", "gb"]):
        for x in g.units:
            ind = unit_indicator(g, c, [x])
            for gamma in g.arrows():
                d = delta(g, c, gamma)
                prod = convolve(ind, d)
                if g.tgt[gamma] == x:
                    assert prod == d
                else:
                    assert prod.is_zero()


def test_embedding_is_homomorphism():
    rng = random.Random(4)
    for _, g, c in battery(GF5, ["pair2", "gb"]):
        for _ in range(10):
            f1 = {u: GF5.of(rng.randrange(5)) for u in g.units}
            f2 = {u: GF5.of(rng.randrange(5)) for u in g.units}
            e1 = embed_unit_function(g, c, f1)
            e2 = embed_unit_function(g, c, f2)
            pointwise = {u: GF5.mul(f1[u], f2[u]) for u in g.units}
            assert convolve(e1, e2) == embed_unit_function(g, c, pointwise)


# -- sections and partial inverses --------------------------------------------------


def test_delta_section_singleton():
    g = pair_groupoid(2)
    c = Cocycle.trivial(g, QQ)
    s = delta_section(g, c, {1: QQ.one()})
    assert s == delta(g, c, 1)


def test_diagonal_section_is_identity():
    for _, g, c in battery(QQ, ["pair2", "gb"]):
        s = delta_section(g, c, {u: QQ.one() for u in g.units})
        assert s == algebra_identity(g, c)


def test_antidiagonal_squares_to_identity():
    g = pair_groupoid(2)
    c = Cocycle.trivial(g, QQ)
    anti = delta_section(g, c, {1: QQ.one(), 2: QQ.one()})
    assert convolve(anti, anti) == algebra_identity(g, c)


def test_partial_inverse_of_unit_delta():
    for _, g, c in battery(QQ, ["pair2"]):
        for u in g.units:
            assert partial_inverse(delta(g, c, u)) == delta(g, c, u)


def test_partial_inverse_quaternion():
    g, c = quaternion_fixture(QQ)
    d_a = delta(g, c, 1)
    assert partial_inverse(d_a) == d_a.scale(QQ.of(-1))


def test_partial_inverse_roundtrip_random():
    rng = random.Random(321)
    for name, g, c in battery(GF5, ["pair2", "pair3", "z2", "gb"]):
        for _ in range(100):
            n = random_bisection_section(g, c, rng)
            assert partial_inverse(partial_inverse(n)) == n, name


def test_partial_inverse_laws():
    rng = random.Random(17)
    for name, g, c in battery(QQ, ["pair2", "gb"]):
        for _ in range(25):
            n = random_bisection_section(g, c, rng)
            ns = partial_inverse(n)
            assert convolve(convolve(n, ns), n) == n
            assert convolve(convolve(ns, n), ns) == ns


def test_partial_inverse_requires_bisection():
    g, c = quaternion_fixture(QQ)
    bad = AlgebraElement(g, c, {0: QQ.one(), 1: QQ.one()})
    with pytest.raises(BisectionRequired):
        partial_inverse(bad)


def test_partial_inverse_antimultiplicative():
    rng = random.Random(55)
    for name, g, c in battery(GF5, ["pair2", "gb", "z2"]):
        for _ in range(30):
            m = random_bisection_section(g, c, rng)
            n = random_bisection_section(g, c, rng)
            prod = convolve(m, n)
            if prod.is_zero() or not g.is_bisection(prod.support()):
                continue
            assert partial_inverse(prod) == convolve(
                partial_inverse(n), partial_inverse(m)
            ), name


# -- presentations ---------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_presentation_matches_matrix_units(n):
    g = pair_groupoid(n)
    c = Cocycle.trivial(g, QQ)
    pres = presentation_of_B(g, c)
    assert pres.dim == n * n
    for i, j, k, l in itertools.product(range(n), repeat=4):
        row = pres.table[pair_arrow(n, i, j)][pair_arrow(n, k, l)]
        expected = matrix_unit_product_oracle(n, i, j, k, l)
        nonzero = [(idx, v) for idx, v in enumerate(row) if v != 0]
        if expected is None:
            assert nonzero == []
        else:
            assert nonzero == [(pair_arrow(n, *expected), QQ.one())]
    assert pres.check_associativity() is None
    assert pres.center().dim == 1


def test_presentation_group_algebra_z2(z2):
    c = Cocycle.trivial(z2, QQ)
    pres = presentation_of_B(z2, c)
    assert pres.dim == 2
    e, a = 0, 1
    assert pres.table[a][a][e] == QQ.one()
    assert pres.check_unit()


def test_presentation_quaternion_table():
    g, c = quaternion_fixture(QQ)
    pres = presentation_of_B(g, c)
    signs = quaternion_sign_table()
    for a in range(4):
        for b in range(4):
            row = pres.table[a][b]
            target = g.comp[a][b]
            assert row[target] == QQ.of(signs[a][b])
            assert all(v == 0 for i, v in enumerate(row) if i != target)
    assert pres.check_associativity() is None
    assert pres.center().dim == 1


def test_associativity_exhaustive_on_battery():
    for name, g, c in battery(GF5):
        assert presentation_of_B(g, c).check_associativity() is None, name


def products_route(g, c):
    """B's presentation through a {(a, b): {ab: w(a, b)}} map read with
    ``Cocycle.__call__`` and put into canonical rows by ``from_products``."""
    f = c.field
    products = {(a, b): {g.comp[a][b]: c(a, b)} for a, b in g.composable_pairs()}
    unit = [f.one() if g.is_unit(a) else f.zero() for a in g.arrows()]
    return AlgebraPresentation.from_products(f, g.arrow_names, products, unit)


def assert_same_presentation(pres, oracle, name):
    """Equal rows and unit, down to the type of every scalar (repr)."""
    assert (pres.rows, pres.unit) == (oracle.rows, oracle.unit), name
    assert repr((pres.rows, pres.unit)) == repr((oracle.rows, oracle.unit)), name
    assert pres.labels == oracle.labels, name


def generated_groupoids():
    """Pair, action, bundle and disjoint-union groupoids past the battery."""
    z3, z4 = cyclic_group_table(3), cyclic_group_table(4)
    return [pair_groupoid(4),
            action_groupoid(z4, [[(p + k) % 2 for p in range(2)] for k in range(4)]),
            action_groupoid(z3, [[0, 1, 2, 3], [1, 2, 0, 3], [2, 0, 1, 3]]),
            group_bundle([z3, klein_four_table(), cyclic_group_table(1)]),
            disjoint_union(pair_groupoid(3), group_groupoid(z4))]


def test_presentation_of_B_matches_the_products_route_on_the_batteries():
    """The trivial and twisted battery over Q, GF(2), GF(3) and GF(7)."""
    cases = (twisted_battery() + prime_twisted_battery((2, 3, 7))
             + [(f"{name}/{f}", g, c) for f in (GF(2), GF(3)) for name, g, c in battery(f)])
    for name, g, c in cases:
        assert_same_presentation(presentation_of_B(g, c), products_route(g, c), name)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(7)], ids=["Q", "GF2", "GF3", "GF7"])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_presentation_of_B_matches_the_products_route_on_generated_groupoids(field, data):
    """A random coboundary (or the trivial cocycle) on a generated groupoid."""
    g = data.draw(st.sampled_from(generated_groupoids()))
    if data.draw(st.booleans()):
        nonzero = (st.sampled_from([1, 2, 3, Fraction(1, 2), Fraction(-2, 3)]) if field.p is None
                   else st.integers(1, field.p - 1))
        c = coboundary(g, field, [1 if g.is_unit(a) else data.draw(nonzero) for a in g.arrows()])
    else:
        c = Cocycle.trivial(g, field)
    assert_same_presentation(presentation_of_B(g, c), products_route(g, c), repr(g))


def test_dedicated_unit_empty_family():
    g = pair_groupoid(2)
    c = Cocycle.trivial(g, QQ)
    u = dedicated_unit([], g, c)
    assert u.is_zero()
    with pytest.raises(ValueError):
        dedicated_unit([])


def test_dedicated_unit_single_delta():
    g = pair_groupoid(2)
    c = Cocycle.trivial(g, QQ)
    gamma = 1
    d = delta(g, c, gamma)
    u = dedicated_unit([d])
    assert sorted(u.support()) == sorted({g.src[gamma], g.tgt[gamma]})
    assert convolve(u, d) == d
    assert convolve(d, u) == d


def test_dedicated_unit_whole_basis():
    for _, g, c in battery(QQ, ["pair2", "gb"]):
        ds = [delta(g, c, a) for a in g.arrows()]
        u = dedicated_unit(ds)
        assert u == algebra_identity(g, c)
        for d in ds:
            assert convolve(u, d) == d
            assert convolve(d, u) == d


def test_unit_functions_commute():
    rng = random.Random(8)
    for _, g, c in battery(GF5, ["pair3", "gb"]):
        for _ in range(10):
            a = embed_unit_function(g, c, {u: GF5.of(rng.randrange(5)) for u in g.units})
            b = embed_unit_function(g, c, {u: GF5.of(rng.randrange(5)) for u in g.units})
            assert convolve(a, b) == convolve(b, a)


def test_vector_roundtrip():
    g = pair_groupoid(2)
    c = Cocycle.trivial(g, QQ)
    el = AlgebraElement(g, c, {1: QQ.of(3), 2: QQ.of(-1)})
    assert element_from_vector(g, c, el.to_vector()) == el


# -- sparse structure constants against the dense oracles ---------------------


def dense_multiply(table, field, u, v):
    """The dense product: every row entry of every basis pair is scanned."""
    out = [field.zero()] * len(table)
    for i, ui in enumerate(u):
        if ui == 0:
            continue
        for j, vj in enumerate(v):
            if vj == 0:
                continue
            c = field.mul(ui, vj)
            for k, pk in enumerate(table[i][j]):
                if pk != 0:
                    out[k] = field.add(out[k], field.mul(c, pk))
    return tuple(out)


def dense_check_associativity(table, field):
    """The first basis triple (i, j, k) with (ij)k != i(jk), over all m^3."""
    m = len(table)
    basis = [tuple(field.one() if a == i else field.zero() for a in range(m)) for i in range(m)]
    for i, j, k in itertools.product(range(m), repeat=3):
        lhs = dense_multiply(table, field, table[i][j], basis[k])
        rhs = dense_multiply(table, field, basis[i], table[j][k])
        if lhs != rhs:
            return (i, j, k)
    return None


def dense_table_of_B(g, c):
    f = c.field
    zero_row = tuple(f.zero() for _ in range(g.n_arrows))
    table = [[zero_row] * g.n_arrows for _ in range(g.n_arrows)]
    for a, b in g.composable_pairs():
        row = list(zero_row)
        row[g.comp[a][b]] = c(a, b)
        table[a][b] = tuple(row)
    return tuple(tuple(row) for row in table)


def dense_group_table(g, c, x):
    members = list(g.isotropy_group(x))
    index = {a: i for i, a in enumerate(members)}
    values = restrict_to_isotropy(c, x)
    table = []
    for a in members:
        row = []
        for b in members:
            vec = [c.field.zero()] * len(members)
            vec[index[g.comp[a][b]]] = values[(a, b)]
            row.append(tuple(vec))
        table.append(tuple(row))
    return tuple(table)


def dense_isotropy_table(inc, b_table, x):
    quot = inc.isotropy_data(x, x).quotient
    section = quot.section_basis
    return tuple(
        tuple(quot.project(dense_multiply(b_table, inc.field, s, t)) for t in section)
        for s in section
    )


def presentation_cases():
    """(label, presentation, dense oracle table): B, every isotropy algebra
    and every twisted group algebra of the twisted battery."""
    cases = []
    for name, g, c in twisted_battery():
        inc = Inclusion(g, c)
        b_table = dense_table_of_B(g, c)
        cases.append((f"B {name}", inc.B, b_table))
        for x in g.units:
            data = inc.isotropy_data(x, x)
            cases.append((f"B({x},{x}) {name}", data.presentation,
                          dense_isotropy_table(inc, b_table, x)))
            group = twisted_group_algebra(
                g.isotropy_table(x), g.isotropy_group(x), restrict_to_isotropy(c, x), c.field
            )
            cases.append((f"group({x}) {name}", group, dense_group_table(g, c, x)))
    return cases


def random_vector(rng, field, n, density):
    def scalar():
        if field.p is not None:
            return rng.randrange(field.p)
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    return tuple(scalar() if rng.random() < density else field.zero() for _ in range(n))


def products_of(table):
    return {(i, j): dict(enumerate(table[i][j]))
            for i in range(len(table)) for j in range(len(table))}


def test_sparse_table_matches_dense_oracle():
    """The dense view rebuilt from the sparse rows: same tuples and reprs,
    zeros as field.zero() (Fraction(0) over Q)."""
    for label, pres, oracle in presentation_cases():
        assert pres.table == oracle, label
        assert repr(pres.table) == repr(oracle), label
        nonzero = sum(1 for row in oracle for prod in row if any(c != 0 for c in prod))
        assert sum(len(row) for row in pres.rows) == nonzero, label


def test_sparse_multiply_matches_dense_oracle():
    rng = random.Random(4)
    for label, pres, oracle in presentation_cases():
        f = pres.field
        basis = [pres.basis_vector(i) for i in range(pres.dim)]
        for u, v in itertools.product(basis, repeat=2):
            assert pres.multiply(u, v) == dense_multiply(oracle, f, u, v), label
        for density in (0.2, 0.5, 1.0):
            for _ in range(5):
                u = random_vector(rng, f, pres.dim, density)
                v = random_vector(rng, f, pres.dim, density)
                assert pres.multiply(u, v) == dense_multiply(oracle, f, u, v), label


def test_sparse_associativity_witness_matches_dense_oracle():
    """Valid presentations give None; a random change of one structure
    constant gives the same first failing triple as the m^3 scan."""
    rng = random.Random(9)
    perturbed = 0
    for label, pres, oracle in presentation_cases():
        f = pres.field
        assert pres.check_associativity() is None, label
        if pres.dim < 2:
            continue
        for _ in range(3):
            i, j, k = (rng.randrange(pres.dim) for _ in range(3))
            table = [list(map(list, row)) for row in oracle]
            table[i][j][k] = f.add(table[i][j][k], f.of(rng.randint(1, 4)))
            table = tuple(tuple(tuple(prod) for prod in row) for row in table)
            broken = AlgebraPresentation.from_products(f, pres.labels, products_of(table), pres.unit)
            assert broken.table == table, label
            expected = dense_check_associativity(table, f)
            assert broken.check_associativity() == expected, label
            perturbed += expected is not None
    assert perturbed > 0


def pairwise_check_associativity(pres):
    """The check as it was: every ordered pair (i, j), composable or not,
    and for each the k in row j or in the row of a term of ij, in order."""
    f = pres.field
    index = [dict(row) for row in pres.rows]

    def accumulate(pairs):
        out = {}
        for c, terms in pairs:
            for k, pk in terms:
                out[k] = f.add(out.get(k, f.zero()), f.mul(c, pk))
        return {k: c for k, c in out.items() if c != 0}

    for i in range(pres.dim):
        for j in range(pres.dim):
            ij = index[i].get(j, ())
            for k in sorted(set(index[j]).union(*(index[l] for l, _ in ij))):
                lhs = accumulate((c, index[l].get(k, ())) for l, c in ij)
                rhs = accumulate((c, index[i].get(l, ())) for l, c in index[j].get(k, ()))
                if lhs != rhs:
                    return (i, j, k)
    return None


def with_constant(pres, i, j, k, value):
    """A copy of the presentation with the coefficient of e_k in e_i e_j set."""
    products = {(a, b): dict(terms) for a, row in enumerate(pres.rows) for b, terms in row}
    products.setdefault((i, j), {})[k] = value
    return AlgebraPresentation.from_products(pres.field, pres.labels, products, pres.unit)


def random_presentation(rng, field, dim, density):
    """Structure constants drawn at random: in general not associative."""
    products = {}
    for i, j, k in itertools.product(range(dim), repeat=3):
        if rng.random() < density:
            products.setdefault((i, j), {})[k] = field.of(rng.randint(1, 5))
    return AlgebraPresentation.from_products(field, [f"e{i}" for i in range(dim)], products)


def test_associativity_witness_matches_the_pairwise_loop():
    """The triples reached from the rows give the verdict and first witness
    of the loop over every ordered pair: on the battery's presentations,
    on copies with one structure constant added, changed or removed, and on
    random structure constants (where the m^3 scan is checked too)."""
    rng = random.Random(12)
    failures = 0
    for label, pres, _ in presentation_cases():
        assert pres.check_associativity() is None is pairwise_check_associativity(pres), label
        f = pres.field
        terms = [(i, j, k) for i, row in enumerate(pres.rows) for j, ts in row for k, _ in ts]
        for _ in range(4):
            i, j, k = (rng.randrange(pres.dim) for _ in range(3))
            mutants = [with_constant(pres, i, j, k, f.of(rng.randint(1, 4)))]
            if terms:
                mutants.append(with_constant(pres, *rng.choice(terms), f.zero()))
            for broken in mutants:
                expected = pairwise_check_associativity(broken)
                assert broken.check_associativity() == expected, label
                failures += expected is not None
    for field in (QQ, GF(2), GF(7)):
        for dim in (1, 2, 3, 5):
            for density in (0.05, 0.2, 0.6):
                pres = random_presentation(rng, field, dim, density)
                expected = pairwise_check_associativity(pres)
                assert pres.check_associativity() == expected, (field, dim, density)
                assert dense_check_associativity(pres.table, field) == expected
                failures += expected is not None
    assert failures > 0


def dense_mult_matrices(pres, right=False):
    """Oracle: the matrix of v -> e_i v (v -> v e_i if ``right``) for each i,
    by ``multiply`` on the standard basis vectors."""
    eye = identity_matrix(pres.dim, pres.field)
    if right:
        return [operator_matrix(lambda v: pres.multiply(v, u), eye) for u in eye]
    return [operator_matrix(lambda v: pres.multiply(u, v), eye) for u in eye]


def dense_center(pres):
    """Oracle: the kernel of the stacked matrices of c -> e_i c - c e_i."""
    f = pres.field
    eye = identity_matrix(pres.dim, f)
    rows = []
    for ei in eye:
        rows.extend(operator_matrix(
            lambda c: tuple(
                f.sub(a, b) for a, b in zip(pres.multiply(ei, c), pres.multiply(c, ei))
            ),
            eye,
        ))
    return right_kernel(rows, pres.dim, f)


def random_presentations(rng):
    """Presentations whose products have several terms, over Q and GF(7)."""
    out = []
    for f in (QQ, GF(7)):
        for dim in (1, 2, 3, 4):
            table = tuple(
                tuple(random_vector(rng, f, dim, 0.4) for _ in range(dim)) for _ in range(dim)
            )
            out.append((f"random {dim} {f}", AlgebraPresentation.from_products(
                f, [f"e{i}" for i in range(dim)], products_of(table)
            )))
    return out


def test_mult_matrices_match_dense_oracle():
    """``left_mult_rows`` and ``right_mult_rows`` hold exactly the nonzero
    entries of the dense multiplication matrices, and their dense views are
    the oracle, type for type."""
    cases = [(label, pres) for label, pres, _ in presentation_cases()]
    for label, pres in cases + random_presentations(random.Random(11)):
        oracle = (dense_mult_matrices(pres), dense_mult_matrices(pres, right=True))
        rows = (pres.left_mult_rows(), pres.right_mult_rows())
        assert rows == tuple([sparse_rows(m) for m in side] for side in oracle), label
        dense = tuple([dense_rows(m, pres.dim, pres.field) for m in side] for side in rows)
        assert dense == oracle, label
        assert repr(dense) == repr(oracle), label


def test_compressed_mult_matrices_restrict_the_full_ones():
    """Each builder's maps at ``support`` are the submatrices of its full
    maps on the rows and columns in ``support``: on B over the twisted
    battery (at the arrows out of each unit, and at random supports) and on
    random multi-term presentations."""
    rng = random.Random(13)
    cases = []
    for name, g, c in twisted_battery():
        B = Inclusion(g, c).B
        fibers = [[a for a in g.arrows() if g.src[a] == x] for x in g.units]
        cases.append((f"B {name}", B, fibers))
    for label, pres in random_presentations(random.Random(14)):
        cases.append((label, pres, [list(range(pres.dim))]))
    assert len(cases) == len(twisted_battery()) + 8
    for label, pres, supports in cases:
        full = [[dense_rows(m, pres.dim, pres.field) for m in side]
                for side in (pres.left_mult_rows(), pres.right_mult_rows())]
        for _ in range(3):
            supports.append(sorted(rng.sample(range(pres.dim), rng.randint(0, pres.dim))))
        for support in supports:
            expected = tuple(
                [sparse_rows(tuple(m[k][b] for b in support) for k in support) for m in side]
                for side in full
            )
            compressed = (pres.left_mult_rows(support), pres.right_mult_rows(support))
            assert compressed == expected, (label, support)
            assert repr(compressed) == repr(expected), (label, support)


def test_right_maps_out_of_a_unit_are_those_of_the_isotropy_arrows():
    """Compressed to the arrows out of a unit x, the right maps with an
    entry are those of G_x (a e_b stays out of x only for b: x -> x), and
    every other map is the one shared map of empty rows, so the imprimitivity
    bimodule's right action builds no map it does not keep."""
    for name, g, c in twisted_battery():
        B = Inclusion(g, c).B
        for x in g.units:
            arrows = [a for a in g.arrows() if g.src[a] == x]
            right = B.right_mult_rows(arrows)
            assert [b for b, m in enumerate(right) if any(m)] == g.isotropy_group(x), name
            assert len({id(m) for m in right if not any(m)}) <= 1, name


def test_center_matches_dense_oracle():
    cases = [(label, pres) for label, pres, _ in presentation_cases()]
    for label, pres in cases + random_presentations(random.Random(12)):
        assert pres.center() == dense_center(pres), label


def test_center_closed_forms():
    """M_12(Q) has the scalars as its center; K[S3] has the three class sums."""
    g = pair_groupoid(12)
    assert presentation_of_B(g, Cocycle.trivial(g, QQ)).center().dim == 1
    perms = list(itertools.permutations(range(3)))
    table = [[perms.index(tuple(p[q[i]] for i in range(3))) for q in perms] for p in perms]
    s3 = group_groupoid(table)
    assert presentation_of_B(s3, Cocycle.trivial(s3, QQ)).center().dim == 3
