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
isotropy class nu(n_z* . gamma . zeta_y), the one way the bimodule gives
the B(x, x)-coordinates of a class.

The constructors verify the structural facts they rely on (injectivity
and linearity of the standard inclusion, the three-case projection
formula, freeness) and the verifier functions produce certificates for
the restriction/induction roundtrip, the embedding of an induced
restriction, and the transfer of submodule lattices.  Each linearity claim
is one ``modrep.intertwines`` call, each invariance claim one
``Subspace.contains_all`` call over the images.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import TheoremViolation, UnitalityError
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
    zero_vector,
)
from .modrep import (
    FdModule,
    annihilator,
    check_module,
    germ_space,
    intertwines,
    restriction,
)
from .steinberg import delta, partial_inverse


class ImprimitivityBimodule:
    """M_x = B / BJ_x with both actions and the free-basis bookkeeping.

    Both actions are sparse rows, ``B.mult_rows`` compressed to the arrows
    out of x, the right one taken at the isotropy arrows, B(x, x)'s
    section basis.  ``stars[y]`` holds the one scaled delta {a: c} of the
    partial inverse n_y* of each section, computed once.
    """

    def __init__(self, inclusion: Inclusion, x: int):
        self.inclusion = inclusion
        self.x = x
        gpd = inclusion.groupoid
        gpd._require_unit(x)
        f = inclusion.field
        self.field = f
        self.quotient = QuotientSpace(Subspace.full(inclusion.m, f), inclusion.BJ(x))
        self.orbit = tuple(gpd.orbit(x))
        self.data = inclusion.isotropy_data(x, x)

        # the section at y = x is delta_x, elsewhere the least arrow x -> y
        self.sections = {y: x if y == x else min(gpd.hom_set(y, x)) for y in self.orbit}
        self.chosen = {y: delta(gpd, inclusion.cocycle, a) for y, a in self.sections.items()}
        self.stars = {y: partial_inverse(n).coeffs for y, n in self.chosen.items()}
        self.zeta = {y: self.quotient.project(n.to_vector()) for y, n in self.chosen.items()}

        # every operator acts on M_x in the coordinates of its section
        # basis, the deltas of the arrows out of x
        arrows = self.quotient.section.pivots
        isotropy = self.data.quotient.section.pivots
        self.left_action, right = inclusion.B.mult_rows(arrows)
        self.right_action = [right[g] for g in isotropy]
        # mu: B(x,x) -> M_x, c + H -> c + BJ_x, the inclusion of isotropy arrows
        one, zero = f.one(), f.zero()
        self.mu = tuple(tuple(one if a == g else zero for g in isotropy) for a in arrows)
        # nu(xi) = E(x,x)(lift xi); independent of the lift since E kills BJ_x
        emat = inclusion.projection_matrix(x, x)
        self.nu = tuple(tuple(row[a] for a in arrows) for row in emat)
        self.pi = mat_mul(self.mu, self.nu, f)
        self._verify()

    def right_apply(self, xi, hcoords):
        """The class xi times the element of B(x,x) with the given coordinates."""
        f = self.field
        zero = zero_vector(self.quotient.dim, f)
        images = [
            apply_rows(ra, xi, f) if c != 0 else zero
            for c, ra in zip(hcoords, self.right_action)
        ]
        return combine(hcoords, images, f)

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
        for ra in self.right_action:
            if not intertwines(dense_rows(ra, d, f), self.left_action, self.left_action, f):
                raise TheoremViolation("left and right actions do not commute")
        # mu is injective and right-linear
        mu_range = Subspace.span(zip(*self.mu), d, f)
        if mu_range.dim != k:
            raise TheoremViolation("standard inclusion is not injective")
        _, right_mult = self.data.presentation.mult_rows()
        if not intertwines(self.mu, right_mult, self.right_action, f):
            raise TheoremViolation("standard inclusion is not right-linear")
        # nu o mu = id, mu o nu = pi
        basis = identity_matrix(k, f)
        if mat_mul(self.nu, self.mu, f) != basis:
            raise TheoremViolation("nu o mu is not the identity")
        if mat_mul(self.pi, self.pi, f) != self.pi:
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
        # range(mu) = range(pi) = the J_x-killed part of the quotient
        pi_range = Subspace.span(zip(*self.pi), d, f)
        lx = dense_rows(self.left_action[self.x], d, f)
        rows = [tuple(map(f.sub, lr, er)) for lr, er in zip(lx, identity_matrix(d, f))]
        killed = right_kernel(rows, d, f)
        if not (mu_range == pi_range == killed):
            raise TheoremViolation("range(mu) must equal range(pi) and the killed part")
        # freeness: (h_y)_y -> sum zeta_y h_y is bijective
        if d != len(self.orbit) * k:
            raise TheoremViolation("bimodule dimension is not orbit x isotropy")
        cols = [self.right_apply(self.zeta[y], h) for y in self.orbit for h in basis]
        if Subspace.span(cols, d, f).dim != d:
            raise TheoremViolation("the zeta coordinates are not a free basis")

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

    A basis arrow gamma: y -> z sends zeta_y (x) v to zeta_z (x) h v, where
    h = nu(n_z* . gamma . zeta_y) is the bimodule's isotropy class of
    gamma . zeta_y at z; block (z, y) of its matrix is V's action of h, so
    the rows of block z are V's sparse rows of h shifted to the columns of
    block y, and every other row is empty.
    """
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
        y, z = gpd.src[gamma], gpd.tgt[gamma]
        if y in block_index and z in block_index:
            moved = apply_rows(bim.left_action[gamma], bim.zeta[y], f)
            act = V.action_rows(bim.isotropy_class(z, moved))
            rb, cb = block_index[z], block_index[y]
            for r, row in enumerate(act):
                rows[rb + r] = tuple((cb + c, a) for c, a in row)
        entries.append(rows)
    module = FdModule.from_entries(inclusion.B, entries, f"ind{x}[{V.name}]")
    violation = check_module(module)
    if violation is not None:
        raise TheoremViolation(f"induced module failed validation: {violation}")
    return InducedModule(x, orbit, V, module, block_index)


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
