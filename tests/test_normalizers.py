"""Normalizer certification, partial bijections, and the inverse semigroup."""

import random
from fractions import Fraction

import pytest

from groupoidalg.errors import NotANormalizer
from groupoidalg.groupoid import pair_groupoid
from groupoidalg.linalg import GF, QQ, rref
from groupoidalg.normalizers import (
    PartialBijection,
    certify_normalizer,
    classify,
    synthesize_partial_inverse,
    verify_inverse_semigroup,
)
from groupoidalg.steinberg import (
    AlgebraElement,
    convolve,
    delta,
    embed_unit_function,
    partial_inverse,
    unit_indicator,
)
from groupoidalg.twist import Cocycle

from conftest import battery, make_z2, quaternion_fixture, twisted_battery

GF5 = GF(5)


def singleton_certificates(g, c):
    return [
        certify_normalizer(delta(g, c, a), partial_inverse(delta(g, c, a)))
        for a in g.arrows()
    ]


def test_unit_delta_certifies_with_identity_bijection():
    for _, g, c in battery(QQ, ["pair2", "gb"]):
        for u in g.units:
            cert = certify_normalizer(delta(g, c, u), delta(g, c, u))
            assert cert.beta.mapping == {u: u}


def test_every_arrow_delta_certifies():
    for name, g, c in battery(QQ):
        for a in g.arrows():
            d = delta(g, c, a)
            cert = certify_normalizer(d, partial_inverse(d))
            assert cert.beta.mapping == {g.src[a]: g.tgt[a]}, name


def test_sum_over_group_is_refused():
    """delta_e + delta_a in the group algebra of Z2 over Q is no normalizer."""
    g = make_z2()
    c = Cocycle.trivial(g, QQ)
    n = AlgebraElement(g, c, {0: QQ.one(), 1: QQ.one()})
    with pytest.raises(NotANormalizer):
        synthesize_partial_inverse(n)


def refusal(call):
    """(condition, witness) of the NotANormalizer that call() raises."""
    with pytest.raises(NotANormalizer) as info:
        call()
    return info.value.condition, info.value.witness


def test_each_reachable_refusal_pins_its_condition_and_witness():
    """In M_2(Q) = pair(2) (units 0 and 3, arrow 2: 0 -> 3), every refusal
    of certify_normalizer, in check order, and the linear-solve refusal of
    synthesize_partial_inverse.  The column n = d_0 + d_2 with the row
    n* = (d_0 + d_1)/2 passes both regularity laws, but n 1_0 n* is the
    all-halves matrix, outside A; swapping the two fails the last check.
    The refusals of ``_beta_from_pair`` cannot fire once the four checks
    pass: each n* 1_y n is then an idempotent of A, disjoint from the
    others, summing to n* n over y."""
    g = pair_groupoid(2)
    c = Cocycle.trivial(g, QQ)
    half = Fraction(1, 2)
    column = AlgebraElement(g, c, {0: QQ.one(), 2: QQ.one()})
    row = AlgebraElement(g, c, {0: half, 1: half})
    zero = AlgebraElement(g, c, {})
    one_0 = unit_indicator(g, c, [0])
    assert refusal(lambda: certify_normalizer(delta(g, c, 2), zero)) == ("n n* n = n", None)
    assert refusal(lambda: certify_normalizer(zero, delta(g, c, 2))) == ("n* n n* = n*", None)
    assert refusal(lambda: certify_normalizer(column, row)) == ("n A n* in A", one_0)
    assert refusal(lambda: certify_normalizer(row, column)) == ("n* A n in A", one_0)
    z2 = make_z2()
    n = AlgebraElement(z2, Cocycle.trivial(z2, QQ), {0: QQ.one(), 1: QQ.one()})
    assert refusal(lambda: synthesize_partial_inverse(n)) == (
        "n n* n = n", "exhaustive linear solve over the inverted support")


def test_certification_conjugates_each_unit_once(monkeypatch):
    """certify_normalizer convolves 4 times for the regularity laws, 4 per
    unit for the conjugates n 1_u n* and n* 1_u n, and twice for n* n and
    n n*; beta is read off the conjugates, not convolved again."""
    from groupoidalg import normalizers

    count = 0
    original = normalizers.convolve

    def counted(a, b):
        nonlocal count
        count += 1
        return original(a, b)

    monkeypatch.setattr(normalizers, "convolve", counted)
    g = pair_groupoid(3)
    c = Cocycle.trivial(g, QQ)
    for a in g.arrows():
        count = 0
        d = delta(g, c, a)
        assert certify_normalizer(d, partial_inverse(d)).beta.mapping == {g.src[a]: g.tgt[a]}
        assert count == 4 + 4 * len(g.units) + 2


def test_sum_over_group_refusal_oracle():
    """Independent unsolvability proof for the combined linear system.

    Unknown X = x e + y a; conditions: n X n = n and n a_u X supported on
    units.  Solving by hand: n X n = 2(x + y) n, so x + y = 1/2, while
    n 1_e X = (x + y) n must be unit-supported, forcing x + y = 0.
    """
    g = make_z2()
    c = Cocycle.trivial(g, QQ)
    n = AlgebraElement(g, c, {0: QQ.one(), 1: QQ.one()})
    rows = []
    targets = []
    for i in range(2):
        basis = AlgebraElement(g, c, {i: QQ.one()})
        nxn = convolve(convolve(n, basis), n).to_vector()
        naX = convolve(convolve(n, unit_indicator(g, c, [0])), basis).to_vector()
        rows.append((nxn, naX))
    for coord in range(2):
        targets.append((
            tuple(rows[i][0][coord] for i in range(2)),
            n.to_vector()[coord],
        ))
    # off-unit coordinate of n a X must vanish: coefficient row for arrow 1
    off_unit = tuple(rows[i][1][1] for i in range(2))
    system = [r for r, _ in targets] + [off_unit]
    rhs = [t for _, t in targets] + [QQ.zero()]
    aug = [row + (t,) for row, t in zip(system, rhs)]
    reduced, pivots = rref(aug, QQ)
    assert 2 in pivots  # inconsistent: the augmented column is a pivot


def test_scaled_unit_functions_certify_with_pointwise_inverse():
    rng = random.Random(12)
    for _, g, c in battery(QQ, ["pair3", "gb"]):
        values = {u: Fraction(rng.randint(1, 5)) for u in g.units if rng.random() < 0.7}
        a = embed_unit_function(g, c, values)
        a_star = embed_unit_function(
            g, c, {u: 1 / v for u, v in values.items()}
        )
        cert = certify_normalizer(a, a_star)
        assert cert.beta.mapping == {u: u for u in values}


def test_beta_of_antidiagonal_swaps():
    from groupoidalg.groupoid import pair_groupoid
    from groupoidalg.steinberg import delta_section

    g = pair_groupoid(2)
    c = Cocycle.trivial(g, QQ)
    anti = delta_section(g, c, {1: QQ.one(), 2: QQ.one()})
    cert = certify_normalizer(anti, partial_inverse(anti))
    u0, u1 = g.units
    assert cert.beta.mapping == {u0: u1, u1: u0}


def test_beta_defining_property():
    """<n* a n, x> = <a, beta(x)> for every unit indicator a."""
    for name, g, c in battery(QQ, ["pair2", "gb", "swap"]):
        for cert in singleton_certificates(g, c):
            for y in g.units:
                a = unit_indicator(g, c, [y])
                conj = convolve(convolve(cert.n_star, a), cert.n)
                for x in g.units:
                    expected = (
                        QQ.one() if x in cert.beta and cert.beta[x] == y else QQ.zero()
                    )
                    assert conj[x] == expected, name


def test_beta_composition_and_inverse_laws():
    for name, g, c in battery(QQ, ["pair2", "z2", "gb", "swap"]):
        certs = singleton_certificates(g, c)
        for c1 in certs:
            star = certify_normalizer(c1.n_star, c1.n)
            assert star.beta == c1.beta.inverse(), name
            for c2 in certs:
                prod = convolve(c1.n, c2.n)
                composed = c1.beta.compose(c2.beta)
                if prod.is_zero():
                    assert composed.mapping == {}, name
                    continue
                pcert = certify_normalizer(prod, convolve(c2.n_star, c1.n_star))
                assert pcert.beta == composed, name


def test_classify_unit_and_arrow():
    for _, g, c in battery(QQ, ["pair2", "gb"]):
        for u in g.units:
            cert = certify_normalizer(delta(g, c, u), delta(g, c, u))
            in_nx, in_nyx = classify(cert, u, u)
            assert in_nx and in_nyx
        for a in g.arrows():
            d = delta(g, c, a)
            cert = certify_normalizer(d, partial_inverse(d))
            for x in g.units:
                for y in g.units:
                    in_nx, in_nyx = classify(cert, x, y)
                    assert in_nx == (x == g.src[a])
                    assert in_nyx == (x == g.src[a] and y == g.tgt[a])


def test_hom_set_product_rule():
    """N(z,y) N(y,x) lands in N(z,x) for singleton sections."""
    for name, g, c in battery(QQ, ["pair3", "gb", "swap"]):
        for a in g.arrows():
            for b in g.arrows():
                if g.src[a] != g.tgt[b]:
                    continue
                prod = convolve(delta(g, c, a), delta(g, c, b))
                assert not prod.is_zero()
                cert = certify_normalizer(prod, partial_inverse(prod))
                assert cert.beta.mapping == {g.src[b]: g.tgt[a]}, name


def test_cross_orbit_disjointness():
    """Products never certify into N(x, x) when the middle points differ."""
    for name, g, c in battery(QQ, ["pair3", "gb"]):
        for x in g.units:
            for z in g.units:
                for y in g.units:
                    if y == z:
                        continue
                    # n in N(x, z), p in N(y, x): np in N(y, ...) wait:
                    # composing beta maps: beta_n after beta_p moves y only if
                    # the middle matches, so membership in N(x, x) must fail.
                    for n_arrow in g.hom_set(x, z):
                        for p_arrow in g.hom_set(y, x):
                            prod = convolve(
                                delta(g, c, n_arrow), delta(g, c, p_arrow)
                            )
                            if prod.is_zero():
                                continue
                            cert = certify_normalizer(
                                prod, partial_inverse(prod)
                            )
                            in_nx, in_nxx = classify(cert, x, x)
                            assert not in_nxx, name


def test_inverse_semigroup_of_units():
    for _, g, c in battery(QQ, ["pair2", "gb"]):
        certs = [
            certify_normalizer(delta(g, c, u), delta(g, c, u)) for u in g.units
        ]
        report = verify_inverse_semigroup(certs)
        assert report.ok
        for e in report.elements:
            for h in report.elements:
                assert convolve(e, h) == convolve(h, e)


def test_inverse_semigroup_pair2_closure():
    from groupoidalg.groupoid import pair_groupoid

    g = pair_groupoid(2)
    c = Cocycle.trivial(g, QQ)
    report = verify_inverse_semigroup(singleton_certificates(g, c))
    assert report.ok
    # zero plus the four matrix units
    assert len(report.elements) == 5


def test_inverse_semigroup_quaternion_closure():
    g, c = quaternion_fixture(QQ)
    report = verify_inverse_semigroup(singleton_certificates(g, c))
    assert report.ok
    # signed deltas plus zero
    assert len(report.elements) == 9
    idems = report.idempotents()
    supports = sorted(tuple(e.support()) for e in idems)
    assert supports == [(), (0,)]


def non_unique_partial_inverses(report):
    """Oracle: the pairs (n, t) of the closure with t != n* and t a partial
    inverse of n, by the O(n^2) scan over every element pair."""
    out = []
    for el in report.elements:
        s = report.star[el]
        for t in report.elements:
            if t == s:
                continue
            if convolve(convolve(el, t), el) == el and convolve(convolve(t, el), t) == t:
                out.append((el, t))
    return out


def test_partial_inverses_unique_on_every_battery_closure():
    """The uniqueness scan finds nothing wherever the closure checks pass:
    a regular semigroup with commuting idempotents is inverse."""
    for name, g, c in twisted_battery():
        report = verify_inverse_semigroup(singleton_certificates(g, c))
        assert report.ok, name
        assert non_unique_partial_inverses(report) == [], name


def test_synthesize_for_bisection_sections():
    rng = random.Random(91)
    for _, g, c in battery(GF5, ["pair2", "gb"]):
        for a in g.arrows():
            d = delta(g, c, a, GF5.of(rng.randrange(1, 5)))
            n_star = synthesize_partial_inverse(d)
            cert = certify_normalizer(d, n_star)
            assert cert.beta.mapping == {g.src[a]: g.tgt[a]}


def test_partial_bijection_composition_largest_domain():
    b1 = PartialBijection({0: 1, 2: 3})
    b2 = PartialBijection({5: 0, 1: 2})
    comp = b1.compose(b2)
    assert comp.mapping == {5: 1, 1: 3}
    assert b1.inverse().mapping == {1: 0, 3: 2}
