"""Normalizer certification, partial bijections, and the inverse semigroup."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from groupoidalg import cli
from groupoidalg.errors import BisectionRequired, BudgetExceeded, NotANormalizer
from groupoidalg.groupoid import cyclic_group_table, group_groupoid, pair_groupoid
from groupoidalg.isotropy import Inclusion
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
from groupoidalg.twist import Cocycle, coboundary

from conftest import (
    GROUPOID_MAKERS,
    battery,
    make_z2,
    oracle_battery,
    quaternion_fixture,
    twisted_battery,
)

ROOT = Path(__file__).resolve().parent.parent

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
    # zero plus the four supports
    assert len(report.elements) == 5
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


def exact_closure(sample):
    """Oracle: the closure of a sample under exact convolution, by products
    of every pair of elements in both orders until nothing is new, with the
    partial-inverse law on every element and a scan of every pair of
    idempotents for commuting.  Returns (elements, star, violations); it
    ends only where the exact closure is finite."""
    star = {}
    elements = []

    def add(el, el_star):
        if el not in star:
            star[el] = el_star
            elements.append(el)

    zero = None
    for cert in sample:
        if zero is None:
            zero = AlgebraElement(cert.n.groupoid, cert.n.cocycle, {})
            add(zero, zero)
        add(cert.n, cert.n_star)
        add(cert.n_star, cert.n)

    frontier = list(elements)
    while frontier:
        new = []
        for a in frontier:
            for b in elements:
                for prod, pstar in (
                    (convolve(a, b), convolve(star[b], star[a])),
                    (convolve(b, a), convolve(star[a], star[b])),
                ):
                    if prod not in star:
                        add(prod, pstar)
                        new.append(prod)
        frontier = new

    violations = []
    for el in elements:
        s = star[el]
        if convolve(convolve(el, s), el) != el or convolve(convolve(s, el), s) != s:
            violations.append(("partial-inverse-law", el))
    idem = [e for e in elements if convolve(e, e) == e]
    for i, e in enumerate(idem):
        for fy in idem[i + 1:]:
            if convolve(e, fy) != convolve(fy, e):
                violations.append(("idempotents-commute", (e, fy)))
    return elements, star, violations


def oracle_cases():
    """(name, groupoid, sample) with a finite exact closure: the arrow deltas
    of the twisted battery, and of pair(2), pair(3) and the group bundle
    over GF(3), GF(5) and GF(7), each with the trivial twist and the
    coboundary of b = 2 on the non-units.  Products of arrow deltas meet
    no new support, so pair(3)'s transposition and 3-cycle join as a
    sample that does, over GF(3) and GF(7), where its exact closure has at
    most 163 elements; over GF(5) with b = 2 it has 385, too many for the
    quadratic oracle in a quick test."""
    cases = [(name, g, singleton_certificates(g, c)) for name, g, c in twisted_battery()]
    for p in (3, 5, 7):
        field = GF(p)
        for name in ("pair2", "pair3", "gb"):
            g = GROUPOID_MAKERS[name]()
            b = {a: 1 if g.is_unit(a) else 2 for a in g.arrows()}
            for twist, c in (("", Cocycle.trivial(g, field)), ("/b=2", coboundary(g, field, b))):
                label = f"{name}/GF{p}{twist}"
                cases.append((label, g, singleton_certificates(g, c)))
                if name == "pair3" and p != 5:
                    cases.append((f"{label}/perm", g, permutation_sample(g, c)))
    return cases


def test_support_closure_matches_exact_closure():
    """The closure over supports reaches exactly the supports of the exact
    closure, whose idempotents all lie on units and commute."""
    for name, g, sample in oracle_cases():
        elements, _, violations = exact_closure(sample)
        report = verify_inverse_semigroup(sample)
        assert report.ok, name
        assert violations == [], name
        assert {frozenset(e.coeffs) for e in elements} == {
            frozenset(e.coeffs) for e in report.elements
        }, name
        for e in elements:
            if convolve(e, e) == e:
                assert all(g.is_unit(a) for a in e.coeffs), name


def scaled_pair2(tmp_path, field_line):
    """fixtures/pair2.gkd under the coboundary of b = 2 on its two
    non-units, whose products meet 4^k times an arrow delta."""
    text = (ROOT / "fixtures" / "pair2.gkd").read_text(encoding="utf-8")
    path = tmp_path / "scaled.gkd"
    path.write_text(
        text.replace("[field] Q", field_line) + "[cocycle]\n1 2 4\n2 1 4\n",
        encoding="utf-8",
    )
    return str(path)


@pytest.mark.parametrize("field_line", ["[field] Q", "[field] GF 7"])
def test_scaled_coboundary_closes_over_supports(tmp_path, field_line):
    """Over Q the exact closure of this sample is infinite."""
    text, code = cli.run("verify", scaled_pair2(tmp_path, field_line), ["inclusion"])
    assert code == 0, text
    assert "prop_5_8: PASS closure=5\n" in text


def test_non_bisection_sample_is_refused():
    """n = d_e + d_g in Q[Z3] is invertible, with inverse
    (d_e - d_g + d_g^2)/2, so it certifies; its support is no bisection."""
    g = group_groupoid(cyclic_group_table(3))
    c = Cocycle.trivial(g, QQ)
    half = Fraction(1, 2)
    n = AlgebraElement(g, c, {0: QQ.one(), 1: QQ.one()})
    n_star = AlgebraElement(g, c, {0: half, 1: -half, 2: half})
    cert = certify_normalizer(n, n_star)
    with pytest.raises(BisectionRequired, match=r"^support \[0, 1\] is not a bisection$"):
        verify_inverse_semigroup([cert])


def permutation_sample(g, c):
    """The transposition (0 1) and the n-cycle of pair(n) as certified
    permutation bisections with all values 1."""
    n = len(g.units)
    out = []
    for perm in ({0: 1, 1: 0}, {j: (j + 1) % n for j in range(n)}):
        d = AlgebraElement(g, c, {perm.get(j, j) * n + j: c.field.one() for j in range(n)})
        out.append(certify_normalizer(d, partial_inverse(d)))
    return out


def trivial_pair(n):
    g = pair_groupoid(n)
    return g, Cocycle.trivial(g, QQ)


def test_permutation_closure_is_the_symmetric_group():
    report = verify_inverse_semigroup(permutation_sample(*trivial_pair(5)))
    assert report.ok
    assert len(report.elements) == 121  # zero and the 5! permutations


def test_closure_past_the_budget_is_refused():
    """pair(7)'s transposition and 7-cycle generate 7! = 5040 supports."""
    with pytest.raises(BudgetExceeded, match=r"^semigroup closure past 4096 supports$"):
        verify_inverse_semigroup(permutation_sample(*trivial_pair(7)))


def test_closure_multiplies_by_generators_only(monkeypatch):
    """Two convolutions per (element, generator) product and its star, and
    four per element for the partial-inverse law: linear in the closure,
    where products of every pair of elements make tens of thousands."""
    from groupoidalg import normalizers

    count = 0
    original = normalizers.convolve

    def counted(a, b):
        nonlocal count
        count += 1
        return original(a, b)

    sample = permutation_sample(*trivial_pair(5))
    monkeypatch.setattr(normalizers, "convolve", counted)
    report = verify_inverse_semigroup(sample)
    closure, generators = len(report.elements), 2 * len(sample)
    assert 2 * closure * generators + 4 * closure == 1452
    assert count <= 1452


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


# -- prop_5_10: one certificate per arrow ---------------------------------------------


def recertified_prop_5_10(certs):
    """The per-product check prop_5_10 replaced: certify every nonzero product
    of two arrow deltas, with star c2* c1*, and every star from scratch."""
    ok = True
    for c1 in certs:
        for c2 in certs:
            prod = convolve(c1.n, c2.n)
            if not prod.is_zero():
                pcert = certify_normalizer(prod, convolve(c2.n_star, c1.n_star))
                ok = ok and pcert.beta == c1.beta.compose(c2.beta)
        ok = ok and certify_normalizer(c1.n_star, c1.n).beta == c1.beta.inverse()
    return ok


def prop_5_10_line(g, c):
    report = cli.Report("verify inclusion")
    cli._verify_inclusion_suite(cli.ProblemFile(c.field, g, c, {}, {}), Inclusion(g, c), report)
    (line,) = [line for line in report.lines if line.startswith("prop_5_10:")]
    return line


def test_prop_5_10_reads_each_product_off_its_arrow_certificate():
    """Each nonzero product of two arrow deltas is a scaled delta whose
    certificate, made from scratch, has the partial bijection of its arrow's;
    each star's is that of the inverse arrow.  The twists scale the products
    (by 2 at (a, a^-1) under the GF(7) coboundary, by -1 under the quaternion
    twist), and the verdicts of both checks agree."""
    scaled = 0
    for name, g, c in oracle_battery():
        certs = singleton_certificates(g, c)
        for gamma, c1 in zip(g.arrows(), certs):
            star = certify_normalizer(c1.n_star, c1.n)
            assert star.beta == certs[g.inv[gamma]].beta, name
            for c2 in certs:
                prod = convolve(c1.n, c2.n)
                if prod.is_zero():
                    continue
                ((arrow, value),) = prod.coeffs.items()
                scaled += value != c.field.one()
                pcert = certify_normalizer(prod, convolve(c2.n_star, c1.n_star))
                assert pcert.beta == certs[arrow].beta, name
        assert recertified_prop_5_10(certs), name
        assert prop_5_10_line(g, c) == "prop_5_10: PASS", name
    assert scaled > 0


def test_prop_5_10_fails_with_the_per_product_check(monkeypatch):
    """A wrong composition of partial bijections fails both checks wherever
    an arrow moves a point (unit at its target times the arrow)."""
    monkeypatch.setattr(PartialBijection, "compose", lambda self, other: self)
    for name, g, c in oracle_battery():
        if any(g.src[a] != g.tgt[a] for a in g.arrows()):
            assert not recertified_prop_5_10(singleton_certificates(g, c)), name
            assert prop_5_10_line(g, c) == "prop_5_10: FAIL", name


def test_prop_5_10_refuses_a_product_of_more_than_one_term(monkeypatch):
    """prop_5_10 reads one arrow off each product; a product with two terms
    is a TheoremViolation, reported as a failed internal check."""
    monkeypatch.setattr(cli, "convolve", lambda f, g: f + g)
    out, code = cli.run("verify", str(ROOT / "fixtures" / "pair2.gkd"), ["inclusion"])
    assert code == 1
    assert out.endswith("internal_consistency: FAIL "
                        "a product of two arrow deltas is not one scaled delta\n")
