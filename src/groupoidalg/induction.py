"""The imprimitivity bimodule and the induction functor.

For a unit x, the bimodule is the quotient M_x = B / BJ_x.  It is a
left B-module, a right module over the isotropy algebra B(x, x), and
free as such with one generator per orbit point: the class zeta_y of a
chosen section n_y picked in N(y, x) (the lexicographically least arrow
of the hom-set; at y = x the unit indicator at x).  BJ_x is the delta span
of the arrows out of other units, so M_x has the deltas of the arrows out
of x as its basis, and its operators are read off B's product index at
those arrows, with no product projected onto the quotient.  Induction takes a
unital left B(x, x)-module V to Ind_x V = M_x (x) V over B(x, x), carried
by one copy of V per orbit point (zeta_y (x) V): a basis arrow gamma: y -> z
sends the block of y to the block of z through V's action of the
isotropy class nu(n_z* . gamma . zeta_y).  That class is s delta_h with
h = n_z^-1 gamma n_y, read off B's product index once per arrow
(``ImprimitivityBimodule.arrow_classes``), so each block is V's sparse
rows at h scaled by s; ``isotropy_class`` gives the B(x, x)-coordinates
of a general class.  The inclusion keeps each bimodule under x and each
induced module under (x, V), V keyed by identity, so the roundtrip
certificate of a module just induced reuses the module already built and
checked.

The constructors verify the structural facts they rely on (injectivity
and linearity of the standard inclusion, the three-case projection
formula, freeness, and left actions that are B's product, compared entry
by entry with the table and the cocycle) and the verifier functions produce certificates for
the restriction/induction roundtrip, the embedding of an induced
restriction, and the transfer of submodule lattices.  Each linearity claim
is one ``modrep.intertwines`` call (the bimodule law one
``modrep.commute`` call), each matrix identity of the bimodule one
``modrep.is_product`` call, each invariance claim one
``Subspace.contains_all`` call over the images; all of these but the
last run on sparse rows in ints.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import TheoremViolation, UnitalityError
from .ideals import _moves
from .isotropy import Inclusion
from .linalg import (
    QuotientSpace,
    Subspace,
    apply_rows,
    combine,
    dense_rows,
    identity_matrix,
    mat_mul,
    mat_vec,
    operator_matrix,
    right_kernel,
    rref,
    zero_vector,
)
from .modrep import (
    FdModule,
    annihilator,
    check_module,
    commute,
    germ_space,
    intertwines,
    is_product,
    restriction,
)
from .steinberg import delta, partial_inverse


class ImprimitivityBimodule:
    """M_x = B / BJ_x with both actions and the free-basis bookkeeping.

    Both actions are sparse rows, B's multiplication maps compressed to the
    arrows out of x, the right one at the isotropy arrows (B(x, x)'s section
    basis).  ``stars[y]`` holds the one scaled delta {a: c} of the partial
    inverse n_y* of each section (``FiniteGroupoid.sections``), computed once.
    ``arrow_classes[gamma]`` holds the class of gamma . zeta_y at the target
    of gamma, for each arrow gamma into the orbit, read once; ``induce``
    builds its blocks from it.
    """

    def __init__(self, inclusion: Inclusion, x: int):
        self.inclusion = inclusion
        self.x = x
        gpd = inclusion.groupoid
        gpd._require_unit(x)
        f = inclusion.field
        self.field = f
        self.quotient = QuotientSpace(Subspace.full(inclusion.m, f), inclusion.BJ(x))
        self.sections = gpd.sections(x)
        self.orbit = tuple(self.sections)
        self.data = inclusion.isotropy_data(x, x)

        # every operator acts on M_x in the coordinates of its section
        # basis, the deltas of the arrows out of x
        arrows = self.quotient.section.pivots
        isotropy = self.data.quotient.section.pivots
        one, zero = f.one(), f.zero()

        self.chosen = {y: delta(gpd, inclusion.cocycle, a) for y, a in self.sections.items()}
        self.stars = {y: partial_inverse(n).coeffs for y, n in self.chosen.items()}
        # n_y is an arrow out of x, so its class is that basis vector of M_x
        self.zeta = {y: tuple(one if a == n else zero for a in arrows)
                     for y, n in self.sections.items()}
        self.arrow_classes = self._arrow_classes()

        self.left_action = inclusion.B.left_mult_rows(arrows)
        right = inclusion.B.right_mult_rows(arrows)  # only the isotropy arrows' maps have entries
        self.right_action = [right[g] for g in isotropy]
        # mu: B(x,x) -> M_x, c + H -> c + BJ_x, the inclusion of isotropy arrows
        self.mu = tuple(tuple(one if a == g else zero for g in isotropy) for a in arrows)
        # nu(xi) = E(x,x)(lift xi); independent of the lift since E kills BJ_x
        emat = inclusion.projection_matrix(x, x)
        self.nu = tuple(tuple(row[a] for a in arrows) for row in emat)
        self.pi = mat_mul(self.mu, self.nu, f)
        self._verify()

    def _arrow_classes(self):
        """{gamma: (j, s)} over the arrows gamma: y -> z into the orbit: the
        isotropy class nu(n_z* . gamma . zeta_y) of gamma . zeta_y at z is s
        times basis element j of B(x, x), the delta of h = n_z^-1 gamma n_y.

        n_z* = c delta_(n_z^-1) (``stars``), and delta_gamma delta_(n_y) =
        w1 delta_(gamma n_y) and delta_(n_z^-1) delta_(gamma n_y) = w2 delta_h
        are read off ``B.rows``, so s = c w1 w2.  Every arrow into a point of
        the orbit starts in the orbit."""
        f, gpd, rows = self.field, self.inclusion.groupoid, self.inclusion.B.rows
        index = {h: j for j, h in enumerate(self.data.quotient.section.pivots)}
        out = {}
        for z in self.orbit:
            ((inv_nz, c),) = self.stars[z].items()
            left = _moves(rows, inv_nz)
            for gamma in gpd.into[z]:
                moved, w1 = _moves(rows, gamma)[self.sections[gpd.src[gamma]]]
                h, w2 = left[moved]
                out[gamma] = (index[h], f.mul(c, f.mul(w1, w2)))
        return out

    def right_apply(self, xi, hcoords):
        """The class xi times the element of B(x,x) with the given coordinates:
        only the right actions of the nonzero coordinates are applied."""
        f = self.field
        used = [(c, ra) for c, ra in zip(hcoords, self.right_action) if c != 0]
        if not used:
            return zero_vector(self.quotient.dim, f)
        return combine([c for c, _ in used], [apply_rows(ra, xi, f) for _, ra in used], f)

    # -- verification ----------------------------------------------------------

    def _verify(self):
        """Check the facts the constructions rely on.  Products n_gamma* delta_eta
        with gamma, eta out of x and tgt(gamma) != tgt(eta) need no check:
        n_gamma* = c delta_(gamma^-1) has source tgt(gamma), so each one is 0."""
        f = self.field
        gpd = self.inclusion.groupoid
        d = self.quotient.dim
        k = self.data.quotient.dim
        # bimodule law: left and right actions commute, ra la = la ra for
        # every right action ra and every left action la
        if not commute(self.right_action, self.left_action, f):
            raise TheoremViolation("left and right actions do not commute")
        # mu is injective and right-linear
        mu_range = Subspace.span(zip(*self.mu), d, f)
        if mu_range.dim != k:
            raise TheoremViolation("standard inclusion is not injective")
        right_mult = self.data.presentation.right_mult_rows()
        if not intertwines(self.mu, right_mult, self.right_action, f):
            raise TheoremViolation("standard inclusion is not right-linear")
        # nu o mu = id, mu o nu = pi
        if not is_product(self.nu, self.mu, identity_matrix(k, f), f):
            raise TheoremViolation("nu o mu is not the identity")
        if not is_product(self.pi, self.pi, self.pi, f):
            raise TheoremViolation("pi is not idempotent")
        # pi is A-linear
        unit_actions = [self.left_action[u] for u in gpd.units]
        if not intertwines(self.pi, unit_actions, unit_actions, f):
            raise TheoremViolation("pi is not A-linear")
        # three-case formula on arrow classes: an arrow out of another unit
        # lies in BJ_x, and the class of an arrow out of x is a basis vector
        # of M_x, so its image is that column of pi
        for a, img, cls in zip(self.quotient.section.pivots, zip(*self.pi),
                               identity_matrix(d, f)):
            if gpd.tgt[a] == self.x:
                if img != cls:
                    raise TheoremViolation("pi must fix isotropy classes")
            elif any(c != 0 for c in img):
                raise TheoremViolation("pi must kill non-isotropy classes")
        # range(mu) = range(pi) = the J_x-killed part ker(L_x - 1) of the
        # quotient, L_x the left action of delta_x.  By the three-case
        # formula pi is the coordinate projection onto the classes of the
        # |G_x| isotropy arrows, and |G_x| = k once d = |orbit| k (checked
        # below).  So range(pi) lies in range(mu), of dim k, iff pi's
        # columns do, and then equals it: pi mu = mu follows and is not
        # checked.  ker(L_x - 1) holds range(mu) iff L_x mu = mu, and is
        # no larger iff L_x - 1 has rank d - k.
        lx = dense_rows(self.left_action[self.x], d, f)
        shifted = [[f.sub(a, f.one()) if c == r else a for c, a in enumerate(row)]
                   for r, row in enumerate(lx)]
        if not (mu_range.contains_all(zip(*self.pi))
                and is_product(lx, self.mu, self.mu, f)
                and len(rref(shifted, f)[1]) == d - k):
            raise TheoremViolation("range(mu) must equal range(pi) and the killed part")
        # freeness: (h_y)_y -> sum zeta_y h_y is bijective
        if d != len(self.orbit) * k:
            raise TheoremViolation("bimodule dimension is not orbit x isotropy")
        basis = identity_matrix(k, f)
        cols = [self.right_apply(self.zeta[y], h) for y in self.orbit for h in basis]
        if Subspace.span(cols, d, f).dim != d:
            raise TheoremViolation("the zeta coordinates are not a free basis")
        # the left actions are B's: delta_gamma delta_b = w(gamma, b)
        # delta_(gamma b) for each arrow b out of x into src(gamma), read
        # off the table and the cocycle through the arrows out of x by
        # target, and every other column of gamma's map is zero
        arrows = self.quotient.section.pivots
        index = {a: r for r, a in enumerate(arrows)}
        by_target = {}
        for b in arrows:
            by_target.setdefault(gpd.tgt[b], []).append(b)
        w, one = self.inclusion.cocycle.values, self.inclusion.cocycle.one
        for gamma, stored in enumerate(self.left_action):
            expected = [()] * d
            row = gpd.comp[gamma]
            for b in by_target.get(gpd.src[gamma], ()):
                expected[index[row[b]]] = ((index[b], w.get((gamma, b), one)),)
            if tuple(expected) != stored:
                raise TheoremViolation(f"the left action of arrow {gamma} is not B's product")

    def nu_of(self, xi):
        """The isotropy component of a bimodule class (coordinates in B(x,x))."""
        return mat_vec(self.nu, xi, self.field)

    def isotropy_class(self, y, xi):
        """nu(n_y* . xi), the block at y of the class xi: every isotropy class
        is read off here.  n_y* = c delta_a acts as c left_action[a]."""
        f = self.field
        ((a, c),) = self.stars[y].items()
        return self.nu_of(tuple(f.mul(c, v) for v in apply_rows(self.left_action[a], xi, f)))

    def free_coordinates(self, xi):
        """Coordinates of xi over the free basis, one B(x,x)-block per orbit point."""
        return {y: self.isotropy_class(y, xi) for y in self.orbit}


def imprimitivity_bimodule(inclusion: Inclusion, x: int) -> ImprimitivityBimodule:
    if x not in inclusion._bimodules:
        inclusion._bimodules[x] = ImprimitivityBimodule(inclusion, x)
    return inclusion._bimodules[x]


@dataclass
class InducedModule:
    """A module induced from an isotropy module, on the free-basis carrier."""

    x: int
    orbit: tuple
    inducing: FdModule
    module: FdModule  # over B
    block_index: dict

    def embed(self, y: int, v):
        """The carrier vector of (y block) tensor v."""
        f = self.module.field
        out = [f.zero()] * self.module.dim
        base = self.block_index[y]
        for i, c in enumerate(v):
            out[base + i] = c
        return tuple(out)


def induce(inclusion: Inclusion, x: int, V: FdModule) -> InducedModule:
    """Ind_x V = M_x (x) V over B(x, x), on the free carrier (zeta_y (x) V)_y.

    A basis arrow gamma: y -> z sends zeta_y (x) v to zeta_z (x) b v, where
    b = nu(n_z* . gamma . zeta_y) is the bimodule's isotropy class of
    gamma . zeta_y at z.  b = s delta_h, read off the product index
    (``arrow_classes``), so block (z, y) of its matrix is s times V's
    action at h: the rows of block z are V's sparse rows at h, scaled by s
    and shifted to the columns of block y, and every other row is empty.

    The result is kept on the inclusion, next to its bimodules, under the
    key (x, V): V by identity (``FdModule`` defines no ``__eq__``, and its
    rows are fixed at construction), so a later call on the same module
    returns the module already built and checked, and a distinct V with
    equal entries is induced afresh.  A call that raises keeps nothing.
    """
    key = (x, V)
    if key in inclusion._induced:
        return inclusion._induced[key]
    bim = imprimitivity_bimodule(inclusion, x)
    data = bim.data
    if V.algebra.rows != data.presentation.rows:
        raise ValueError("module is not over the isotropy algebra at x")
    if check_module(V) is not None:
        raise UnitalityError("inducing module must be unital and compatible")
    f = inclusion.field
    gpd = inclusion.groupoid
    k = V.dim
    orbit = bim.orbit
    block_index = {y: i * k for i, y in enumerate(orbit)}
    dim = k * len(orbit)

    entries = []
    for gamma in gpd.arrows():
        rows = [()] * dim
        if gamma in bim.arrow_classes:
            j, s = bim.arrow_classes[gamma]
            rb, cb = block_index[gpd.tgt[gamma]], block_index[gpd.src[gamma]]
            for r, row in enumerate(V.entries[j]):
                rows[rb + r] = tuple((cb + c, f.mul(s, a)) for c, a in row)
        entries.append(rows)
    module = FdModule.from_entries(inclusion.B, entries, f"ind{x}[{V.name}]")
    violation = check_module(module)
    if violation is not None:
        raise TheoremViolation(f"induced module failed validation: {violation}")
    inclusion._induced[key] = InducedModule(x, orbit, V, module, block_index)
    return inclusion._induced[key]


# ---------------------------------------------------------------------------
# certificates


@dataclass
class RoundtripCertificate:
    """v -> zeta_x tensor v is a B(x,x)-isomorphism onto the restriction."""

    x: int
    module_dim: int
    induced_dim: int
    restriction_dim: int


def verify_res_ind_roundtrip(inclusion: Inclusion, x: int, V: FdModule) -> RoundtripCertificate:
    ind = induce(inclusion, x, V)
    res = restriction(inclusion, ind.module, x)
    f = inclusion.field
    if res.subspace.dim != V.dim:
        raise TheoremViolation("restriction of the induced module has the wrong size")
    # bijectivity onto the restriction; RREF bases are canonical, so the
    # equality also shows that every embedded vector lies in the restriction
    embedded = Subspace.span(
        [ind.embed(x, V.basis_vector(j)) for j in range(V.dim)], ind.module.dim, f
    )
    if embedded != res.subspace:
        raise TheoremViolation("embedding does not fill the restriction")
    # B(x,x)-linearity via the defining action (c + H) w = c w
    # B(x,x)'s section basis is the deltas of the isotropy arrows
    isotropy = inclusion.isotropy_data(x, x).quotient.section.pivots
    embedding = operator_matrix(lambda v: ind.embed(x, v), identity_matrix(V.dim, f))
    acts = [ind.module.entries[g] for g in isotropy]
    if not intertwines(embedding, V.entries, acts, f):
        raise TheoremViolation("embedding is not isotropy-linear")
    return RoundtripCertificate(x, V.dim, ind.module.dim, res.subspace.dim)


@dataclass
class EmbeddingCertificate:
    """rho: Ind(Res V) -> V is injective B-linear; onto iff image is full."""

    x: int
    induced_dim: int
    image_dim: int
    target_dim: int
    restriction_dim: int

    @property
    def onto(self) -> bool:
        return self.image_dim == self.target_dim


def verify_ind_res_embedding(inclusion: Inclusion, V: FdModule, x: int) -> EmbeddingCertificate:
    """Build rho((b + BJ_x) tensor v) = b v on the free carrier and check it."""
    res = restriction(inclusion, V, x)
    f = inclusion.field
    if res.subspace.dim == 0:
        return EmbeddingCertificate(x, 0, 0, V.dim, 0)
    ind = induce(inclusion, x, res.module)
    bim = imprimitivity_bimodule(inclusion, x)
    # the free carrier's basis is zeta_y tensor w, blocks in orbit order;
    # rho sends it to n_y w, and n_y is the delta of its arrow, so it acts
    # by V's sparse rows at that arrow
    rho = operator_matrix(
        lambda yw: apply_rows(V.entries[bim.sections[yw[0]]], yw[1], f),
        [(y, w) for y in ind.orbit for w in res.subspace.basis],
    )
    # injectivity
    rank = Subspace.span(zip(*rho), V.dim, f).dim
    if rank != ind.module.dim:
        raise TheoremViolation("rho is not injective")
    # B-linearity on arrow generators
    if not intertwines(rho, ind.module.entries, V.entries, f):
        raise TheoremViolation("rho is not B-linear")
    return EmbeddingCertificate(x, ind.module.dim, rank, V.dim, res.subspace.dim)


def submodule_transfer(inclusion: Inclusion, ind: InducedModule, Z: Subspace) -> Subspace:
    """The submodule W of the inducing module with Ind(W) = Z, by pullback.

    Z must be invariant under the induced action; W = {v : (x block of v)
    lies in Z}; the function checks Ind(W) = Z exactly before returning.
    """
    f = inclusion.field
    mod = ind.module
    if not Z.contains_all(apply_rows(act, w, f) for act in mod.entries for w in Z.basis):
        raise ValueError("subspace is not invariant under the induced action")
    k = ind.inducing.dim
    # membership rows: the residual of embed(x, v) against Z must vanish
    rows = operator_matrix(lambda v: Z.reduce(ind.embed(ind.x, v)), identity_matrix(k, f))
    W = right_kernel(rows, k, f)
    # verify the forward image: Ind(W) = span of all blocks of W
    image = Subspace.span(
        [ind.embed(y, w) for y in ind.orbit for w in W.basis], mod.dim, f
    )
    if image != Z:
        raise TheoremViolation("pullback does not induce back onto Z")
    return W


@dataclass
class GermEquivalenceCertificate:
    """Ind_x(V[x]) and Ind_y(V[y]) are isomorphic along an explicit intertwiner."""

    x: int
    y: int
    dim: int


def verify_germ_induction_equivalence(inclusion: Inclusion, V: FdModule, x: int, y: int) -> GermEquivalenceCertificate:
    """Explicit isomorphism Ind_x(V[x]) -> Ind_y(V[y]) for y in the orbit of x."""
    gpd = inclusion.groupoid
    f = inclusion.field
    if y not in gpd.orbit(x):
        raise ValueError(f"{y} is not in the orbit of {x}")
    gx = germ_space(inclusion, V, x)
    gy = germ_space(inclusion, V, y)
    ind_x = induce(inclusion, x, gx.module)
    ind_y = induce(inclusion, y, gy.module)
    if annihilator(ind_x.module) != annihilator(ind_y.module):
        raise TheoremViolation("induced germ modules have different annihilators")
    if ind_x.module.dim != ind_y.module.dim:
        raise TheoremViolation("induced germ modules have different dimensions")
    dim = ind_x.module.dim
    T = _germ_intertwiner(inclusion, V, gx, gy, ind_x, ind_y)
    if Subspace.span(zip(*T), dim, f).dim != dim:
        raise TheoremViolation("germ intertwiner is not bijective")
    if not intertwines(T, ind_x.module.entries, ind_y.module.entries, f):
        raise TheoremViolation("germ intertwiner is not B-linear")
    return GermEquivalenceCertificate(x, y, dim)


def _germ_intertwiner(inclusion: Inclusion, V: FdModule, gx, gy, ind_x, ind_y):
    """T: Ind_x(V[x]) -> Ind_y(V[y]) from the least arrow n: x -> y.  Block z
    is the germ map psi: v -> n v, then the action of the class of n_z(x) n*
    that the bimodule at y reads off, nu(n_z(y)* n_z(x) n*).  Column (z, j)
    of T is that action applied to column j of psi, placed in block z."""
    gpd = inclusion.groupoid
    f = inclusion.field
    bim_x = imprimitivity_bimodule(inclusion, gx.x)
    bim_y = imprimitivity_bimodule(inclusion, gy.x)
    n = min(gpd.hom_set(gy.x, gx.x))
    psi_columns = [gy.quotient.project(apply_rows(V.entries[n], s, f))
                   for s in gx.quotient.section_basis]
    n_star_class = bim_y.quotient.project(
        partial_inverse(delta(gpd, inclusion.cocycle, n)).to_vector())
    actions = {}
    for z in ind_x.orbit:
        moved = apply_rows(bim_y.left_action[bim_x.sections[z]], n_star_class, f)
        actions[z] = gy.module.action_rows(bim_y.isotropy_class(z, moved))
    # the free carrier's basis is (z, e_j), blocks in orbit order
    return operator_matrix(
        lambda zj: ind_y.embed(zj[0], apply_rows(actions[zj[0]], zj[1], f)),
        [(z, col) for z in ind_x.orbit for col in psi_columns],
    )
