"""Normalizers of the unit-function subalgebra and their partial bijections.

An element n normalizes A (the unit-supported functions) when some n*
satisfies n n* n = n, n* n n* = n*, n A n* in A and n* A n in A.  Each
certified normalizer induces a partial bijection of the unit space,
moving the source of every supported arrow to its target, and the
certified normalizers form an inverse semigroup under convolution.

Certification is certificate-based: the caller supplies n*, or we
synthesize it (by the bundle-inverse formula for bisection-supported
sections, and by a bounded exact linear-system search otherwise,
refusing when the search space is exhausted).
"""

from __future__ import annotations

from .errors import NotANormalizer
from .linalg import solve_right
from .steinberg import (
    AlgebraElement,
    convolve,
    partial_inverse,
    unit_indicator,
)

SEMIGROUP_BUDGET = 4096  # closure size past which the closure stops, as a violation


class PartialBijection:
    """A bijection between two subsets of the unit space."""

    __slots__ = ("mapping",)

    def __init__(self, mapping: dict):
        values = list(mapping.values())
        if len(set(values)) != len(values):
            raise ValueError("mapping is not injective")
        self.mapping = dict(sorted(mapping.items()))

    @property
    def source(self):
        return tuple(sorted(self.mapping))

    @property
    def target(self):
        return tuple(sorted(self.mapping.values()))

    def __getitem__(self, x):
        return self.mapping[x]

    def __contains__(self, x):
        return x in self.mapping

    def inverse(self) -> "PartialBijection":
        return PartialBijection({v: k for k, v in self.mapping.items()})

    def compose(self, other: "PartialBijection") -> "PartialBijection":
        """self after other, on the largest possible domain."""
        out = {}
        for x, y in other.mapping.items():
            if y in self.mapping:
                out[x] = self.mapping[y]
        return PartialBijection(out)

    def __eq__(self, other):
        return isinstance(other, PartialBijection) and self.mapping == other.mapping

    def __hash__(self):
        return hash(tuple(sorted(self.mapping.items())))

    def __repr__(self):
        inner = ", ".join(f"{k}->{v}" for k, v in sorted(self.mapping.items()))
        return f"PartialBijection({inner})"


class NormalizerCertificate:
    """A verified normalizer pair together with its partial bijection."""

    __slots__ = ("n", "n_star", "beta")

    def __init__(self, n: AlgebraElement, n_star: AlgebraElement, beta: PartialBijection):
        self.n = n
        self.n_star = n_star
        self.beta = beta

    def __repr__(self):
        return f"NormalizerCertificate(beta={self.beta!r})"


def _unit_support(element: AlgebraElement):
    gpd = element.groupoid
    return sorted(u for u in element.support() if gpd.is_unit(u))


def _in_A(element: AlgebraElement) -> bool:
    gpd = element.groupoid
    return all(gpd.is_unit(a) for a in element.coeffs)


def certify_normalizer(n: AlgebraElement, n_star: AlgebraElement) -> NormalizerCertificate:
    """Check all four normalizer conditions exactly; compute the bijection.

    Raises NotANormalizer naming the first failing condition, with a
    witness unit function for the conjugation conditions.
    """
    n._check_parent(n_star)
    gpd = n.groupoid
    coc = n.cocycle
    if convolve(convolve(n, n_star), n) != n:
        raise NotANormalizer("n n* n = n")
    if convolve(convolve(n_star, n), n_star) != n_star:
        raise NotANormalizer("n* n n* = n*")
    conjugates = {}  # u -> n* 1_u n, which beta is read off
    for u in gpd.units:
        a = unit_indicator(gpd, coc, [u])
        if not _in_A(convolve(convolve(n, a), n_star)):
            raise NotANormalizer("n A n* in A", witness=a)
        conjugates[u] = convolve(convolve(n_star, a), n)
        if not _in_A(conjugates[u]):
            raise NotANormalizer("n* A n in A", witness=a)
    beta = _beta_from_pair(n, n_star, conjugates)
    return NormalizerCertificate(n, n_star, beta)


def _beta_from_pair(n: AlgebraElement, n_star: AlgebraElement, conjugates) -> PartialBijection:
    """The partial bijection x -> y defined by <n* a n, x> = <a, y> on A,
    read off ``conjugates``, which maps each unit u to n* 1_u n."""
    gpd = n.groupoid
    coc = n.cocycle
    nsn = convolve(n_star, n)
    nns = convolve(n, n_star)
    src_units = _unit_support(nsn)
    tgt_units = set(_unit_support(nns))
    mapping = {}
    for x in src_units:
        image = None
        for y in gpd.units:
            val = conjugates[y][x]
            if val != 0:
                if val != coc.field.one() or image is not None:
                    raise NotANormalizer("character-evaluation", witness=(x, y))
                image = y
        if image is None or image not in tgt_units:
            raise NotANormalizer("character-evaluation", witness=(x,))
        mapping[x] = image
    bij = PartialBijection(mapping)
    if set(bij.target) != tgt_units:
        raise NotANormalizer("source-target-mismatch")
    return bij


def synthesize_partial_inverse(n: AlgebraElement) -> AlgebraElement:
    """Produce n* for n, or raise NotANormalizer.

    Bisection-supported sections get the closed-form bundle inverse.
    Otherwise we search the affine space of solutions X (supported on the
    inverted support) of the exact linear system

        n X n = n,   n a X  unit-supported for all unit indicators a,
                     X a n  unit-supported for all unit indicators a,

    and then check the one remaining (quadratic) condition X n X = X on
    the canonical solution, retrying with the reflexive shrink X n X.
    An empty solution space is a proof that no partial inverse with that
    support exists, and we refuse.
    """
    gpd = n.groupoid
    coc = n.cocycle
    fld = n.field
    if n.is_zero():
        return n
    if gpd.is_bisection(n.support()):
        return partial_inverse(n)

    support = sorted({gpd.inv[a] for a in n.coeffs})
    k = len(support)
    m = gpd.n_arrows

    def as_element(xs):
        return AlgebraElement(gpd, coc, dict(zip(support, xs)))

    # linear maps X -> coefficients of the constrained expressions
    rows = []
    target = []

    def add_linear_constraint(transform, target_element, keep_coord):
        # transform: X -> element, linear in X; constrain selected coords.
        cols = []
        for i in range(k):
            basis = as_element(
                [fld.one() if j == i else fld.zero() for j in range(k)]
            )
            cols.append(transform(basis).to_vector())
        for coord in range(m):
            if not keep_coord(coord):
                continue
            rows.append(tuple(cols[i][coord] for i in range(k)))
            target.append(target_element[coord] if target_element else fld.zero())

    nvec = n.to_vector()
    add_linear_constraint(
        lambda X: convolve(convolve(n, X), n), nvec, lambda c: True
    )
    for u in gpd.units:
        a = unit_indicator(gpd, coc, [u])
        add_linear_constraint(
            lambda X, a=a: convolve(convolve(n, a), X),
            None,
            lambda c: not gpd.is_unit(c),
        )
        add_linear_constraint(
            lambda X, a=a: convolve(convolve(X, a), n),
            None,
            lambda c: not gpd.is_unit(c),
        )

    solution = solve_right(rows, tuple(target), fld)
    if solution is None:
        raise NotANormalizer(
            "n n* n = n", witness="exhaustive linear solve over the inverted support"
        )
    candidate = as_element(solution)
    for attempt in range(3):
        if convolve(convolve(candidate, n), candidate) == candidate:
            return candidate
        candidate = convolve(convolve(candidate, n), candidate)
    raise NotANormalizer("n* n n* = n*", witness="no reflexive solution found")


def beta_of(n: AlgebraElement, n_star: AlgebraElement | None = None) -> PartialBijection:
    """The partial bijection of a normalizer, certifying it on the way.

    Synthesizes the partial inverse when none is supplied; refuses (by
    raising NotANormalizer) exactly when certification does.
    """
    if n_star is None:
        n_star = synthesize_partial_inverse(n)
    return certify_normalizer(n, n_star).beta


def classify(cert: NormalizerCertificate, x: int, y: int):
    """Membership of a certified normalizer in N_x and N(y, x)."""
    gpd = cert.n.groupoid
    gpd._require_unit(x)
    gpd._require_unit(y)
    in_nx = x in cert.beta
    in_nyx = in_nx and cert.beta[x] == y
    return in_nx, in_nyx


class SemigroupReport:
    """Closure data of the inverse semigroup generated by a sample."""

    def __init__(self, elements, star, violations):
        self.elements = elements
        self.star = star
        self.violations = violations

    @property
    def ok(self) -> bool:
        return not self.violations

    def idempotents(self):
        return [e for e in self.elements if convolve(e, e) == e]


def verify_inverse_semigroup(sample) -> SemigroupReport:
    """Close a sample of certified normalizers under products and stars.

    Verifies: closure is finite, the partial-inverse law n n* n = n,
    n* n n* = n* holds for every element, idempotents commute, and
    (nm)* = m* n*.  The zero element is kept in the closure (products of
    sections routinely vanish).  Partial inverses are then unique inside
    the closure without a further check: a regular semigroup whose
    idempotents commute is an inverse semigroup (Howie, Fundamentals of
    Semigroup Theory, 1995, Thm 5.1.1).
    """
    violations = []
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
        if len(elements) > SEMIGROUP_BUDGET:
            violations.append(("closure-budget-exceeded", len(elements)))
            break
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

    for el in elements:
        s = star[el]
        if convolve(convolve(el, s), el) != el or convolve(convolve(s, el), s) != s:
            violations.append(("partial-inverse-law", el))

    idem = [e for e in elements if convolve(e, e) == e]
    for i, e in enumerate(idem):
        for fy in idem[i + 1:]:
            if convolve(e, fy) != convolve(fy, e):
                violations.append(("idempotents-commute", (e, fy)))

    return SemigroupReport(elements, star, violations)
