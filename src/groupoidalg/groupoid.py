"""Finite groupoids with the discrete topology.

Arrows carry stable integer ids ``0..m-1``; units are a flagged subset of
the arrows (so the unit space sits inside the arrow space).  Composition
``comp(a, b) = ab`` is defined exactly when ``src(a) == tgt(b)`` and is
stored as a dense partial table.  The arrows into each unit are listed
once at construction, and every walk over composable pairs and triples,
hom-sets, orbits and isotropy groups reads those lists, so it touches
only the pairs that compose.  The triples are walked by rows of the
table: a, then b in ``into[src(a)]``, then c in ``into[src(b)]``, the
lexicographic order, so the first failing triple is the one a full scan
finds first.  In the discrete finite setting every
subset of arrows is compact open and every singleton is a bisection, so
this is precisely the regime where the whole convolution-algebra theory
of this package is finite dimensional.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MalformedTable, NotAUnit


@dataclass(frozen=True)
class Violation:
    """A failed groupoid axiom together with a witness."""

    axiom: str
    witness: tuple

    def __str__(self):
        return f"{self.axiom} violated at {self.witness}"


class FiniteGroupoid:
    """Arrow/unit/composition tables of a finite groupoid.

    Attributes:
        n_arrows: number of arrows m (ids 0..m-1)
        units:    sorted tuple of the arrow ids that are units
        src, tgt: tuples mapping arrow id -> unit id
        inv:      tuple mapping arrow id -> arrow id
        comp:     dense m x m table; comp[a][b] is ab or None
        into:     tuple mapping arrow id u -> sorted arrows with target u
                  (empty unless u is a target)
    """

    def __init__(self, n_arrows, units, src, tgt, inv, comp, arrow_names=None):
        self.n_arrows = n_arrows
        self.units = tuple(sorted(units))
        self.src = tuple(src)
        self.tgt = tuple(tgt)
        self.inv = tuple(inv)
        self.comp = tuple(tuple(row) for row in comp)
        self.arrow_names = tuple(arrow_names) if arrow_names else tuple(
            f"g{i}" for i in range(n_arrows)
        )
        self._unit_set = frozenset(self.units)
        self._validate_ranges()
        into = [[] for _ in range(n_arrows)]
        for a, t in enumerate(self.tgt):
            into[t].append(a)
        self.into = tuple(map(tuple, into))

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_tables(cls, units, src, tgt, inv, compose, arrow_names=None):
        """Build from a sparse composition mapping {(a, b): ab}."""
        m = len(src)
        table = [[None] * m for _ in range(m)]
        for (a, b), ab in compose.items():
            if not (0 <= a < m and 0 <= b < m and 0 <= ab < m):
                raise MalformedTable(f"composition entry out of range: {(a, b, ab)}")
            table[a][b] = ab
        return cls(m, units, src, tgt, inv, table, arrow_names)

    def _validate_ranges(self):
        m = self.n_arrows
        if len(self.src) != m or len(self.tgt) != m or len(self.inv) != m:
            raise MalformedTable("src/tgt/inv tables must have one entry per arrow")
        for name, table in (("src", self.src), ("tgt", self.tgt), ("inv", self.inv)):
            for a, v in enumerate(table):
                if not (0 <= v < m):
                    raise MalformedTable(f"{name}[{a}] = {v} out of range")
        for u in self.units:
            if not (0 <= u < m):
                raise MalformedTable(f"unit id {u} out of range")
            if self.units.count(u) > 1:
                raise MalformedTable(f"duplicate unit id {u}")
        if len(self.comp) != m or any(len(row) != m for row in self.comp):
            raise MalformedTable("comp must be an m x m table")
        for a, row in enumerate(self.comp):
            defined = set(row)
            defined.discard(None)
            if defined and not (0 <= min(defined) and max(defined) < m):
                b, ab = next((b, ab) for b, ab in enumerate(row)
                             if ab is not None and not 0 <= ab < m)
                raise MalformedTable(f"comp[{a}][{b}] = {ab} out of range")

    # -- basic queries -------------------------------------------------------

    def is_unit(self, a) -> bool:
        return a in self._unit_set

    def composable(self, a, b) -> bool:
        return self.src[a] == self.tgt[b]

    def compose(self, a, b):
        ab = self.comp[a][b]
        if ab is None:
            raise MalformedTable(f"composition undefined for ({a}, {b})")
        return ab

    def arrows(self):
        return range(self.n_arrows)

    def composable_pairs(self):
        """Every (a, b) with src(a) = tgt(b), in row-major order: b runs over into[src(a)]."""
        for a in range(self.n_arrows):
            for b in self.into[self.src[a]]:
                yield a, b

    # -- axioms --------------------------------------------------------------

    def validate(self):
        """None if every groupoid axiom holds, else the first Violation.

        Axioms checked, in order: units behave as left/right identities,
        composability (comp defined exactly on src/tgt matches), range and
        source of products, involution and inverse laws, associativity.
        """
        m = self.n_arrows
        for u in self.units:
            if self.src[u] != u or self.tgt[u] != u:
                return Violation("unit-fixed-by-src-tgt", (u,))
            if self.inv[u] != u:
                return Violation("unit-self-inverse", (u,))
        for a in range(m):
            if self.src[a] not in self._unit_set:
                return Violation("source-is-unit", (a,))
            if self.tgt[a] not in self._unit_set:
                return Violation("target-is-unit", (a,))
        for a, row in enumerate(self.comp):
            # row a must be defined exactly at into[src(a)]: it is when it is
            # defined at each of them and at no more entries; else the first
            # b where it breaks is the witness
            composable = self.into[self.src[a]]
            if m - row.count(None) != len(composable) or None in map(row.__getitem__, composable):
                allowed = set(composable)
                b = next(b for b, ab in enumerate(row) if (ab is not None) != (b in allowed))
                return Violation("composability", (a, b))
        for a in range(m):
            if self.comp[self.tgt[a]][a] != a:
                return Violation("left-identity", (self.tgt[a], a))
            if self.comp[a][self.src[a]] != a:
                return Violation("right-identity", (a, self.src[a]))
        comp, src, tgt, into = self.comp, self.src, self.tgt, self.into
        for a, row in enumerate(comp):
            ta = tgt[a]
            for b in into[src[a]]:
                ab = row[b]
                if src[ab] != src[b] or tgt[ab] != ta:
                    return Violation("product-src-tgt", (a, b))
        for a in range(m):
            ai = self.inv[a]
            if self.inv[ai] != a:
                return Violation("involution", (a,))
            if self.src[ai] != self.tgt[a] or self.tgt[ai] != self.src[a]:
                return Violation("inverse-src-tgt", (a,))
            if self.comp[a][ai] != self.tgt[a]:
                return Violation("right-inverse", (a,))
            if self.comp[ai][a] != self.src[a]:
                return Violation("left-inverse", (a,))
        # (ab)c = a(bc) over every composable triple, in lexicographic order
        # (a, then b in into[src(a)], then c in into[src(b)]), so the first
        # failing triple is the witness; every product read is defined,
        # since composability and product-src-tgt hold by now
        for a, row in enumerate(comp):
            for b in into[src[a]]:
                left, right = comp[row[b]], comp[b]
                for c in into[src[b]]:
                    if left[c] != row[right[c]]:
                        return Violation("associativity", (a, b, c))
        return None

    # -- structure -----------------------------------------------------------

    def _require_unit(self, x):
        if x not in self._unit_set:
            raise NotAUnit(f"arrow {x} is not a unit")

    def isotropy_group(self, x):
        """Sorted arrows of the isotropy group at the unit x."""
        self._require_unit(x)
        return [g for g in self.into[x] if self.src[g] == x]

    def isotropy_table(self, x):
        """Composition table of the isotropy group, keyed by arrow ids."""
        members = self.isotropy_group(x)
        return {(a, b): self.comp[a][b] for a in members for b in members}

    def hom_set(self, y, x):
        """Arrows with source x and target y."""
        self._require_unit(x)
        self._require_unit(y)
        return [g for g in self.into[y] if self.src[g] == x]

    def orbit(self, x):
        """Sorted units reachable from x; always contains x.

        Read off the arrows into x: y reaches x exactly when x reaches y,
        through the inverse arrow.
        """
        self._require_unit(x)
        return sorted({self.src[g] for g in self.into[x]})

    def sections(self, x):
        """n_y: x -> y per unit y of the orbit of x: x, else the least of hom_set(y, x)."""
        return {y: x if y == x else min(self.hom_set(y, x)) for y in self.orbit(x)}

    def is_bisection(self, arrows) -> bool:
        arrows = list(arrows)
        srcs = {self.src[a] for a in arrows}
        tgts = {self.tgt[a] for a in arrows}
        return len(srcs) == len(arrows) and len(tgts) == len(arrows)

    def __repr__(self):
        return f"FiniteGroupoid(arrows={self.n_arrows}, units={len(self.units)})"


# ---------------------------------------------------------------------------
# constructors


def pair_groupoid(n: int) -> FiniteGroupoid:
    """The pair groupoid on n points: one arrow j -> i for every (i, j).

    Arrow i*n + j has source (j, j) and target (i, i); under the trivial
    twist its convolution algebra is the n x n matrix algebra with
    arrow (i, j) playing the matrix unit E_ij.
    """
    if n < 1:
        raise MalformedTable("pair groupoid needs at least one point")
    m = n * n
    src = [0] * m
    tgt = [0] * m
    inv = [0] * m
    names = [""] * m
    units = [i * n + i for i in range(n)]
    for i in range(n):
        for j in range(n):
            a = i * n + j
            src[a] = j * n + j
            tgt[a] = i * n + i
            inv[a] = j * n + i
            names[a] = f"e{i}{j}"
    compose = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                compose[(i * n + j, j * n + k)] = i * n + k
    return FiniteGroupoid.from_tables(units, src, tgt, inv, compose, names)


def group_groupoid(table, names=None) -> FiniteGroupoid:
    """One-object groupoid from a finite group's multiplication table.

    ``table[g][h]`` is the product gh; the identity is located by scanning.
    """
    m = len(table)
    identity = None
    for e in range(m):
        if all(table[e][h] == h for h in range(m)) and all(
            table[g][e] == g for g in range(m)
        ):
            identity = e
            break
    if identity is None:
        raise MalformedTable("group table has no identity")
    inv = [None] * m
    for g in range(m):
        for h in range(m):
            if table[g][h] == identity and table[h][g] == identity:
                inv[g] = h
                break
        if inv[g] is None:
            raise MalformedTable(f"group element {g} has no inverse")
    src = [identity] * m
    tgt = [identity] * m
    compose = {(g, h): table[g][h] for g in range(m) for h in range(m)}
    return FiniteGroupoid.from_tables([identity], src, tgt, inv, compose, names)


def cyclic_group_table(n: int):
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def klein_four_table():
    """Z2 x Z2 with elements ordered e, a, b, ab."""
    order = [(0, 0), (1, 0), (0, 1), (1, 1)]
    index = {v: i for i, v in enumerate(order)}
    return [
        [index[((x1 + y1) % 2, (x2 + y2) % 2)] for (y1, y2) in order]
        for (x1, x2) in order
    ]


def action_groupoid(group_table, action) -> FiniteGroupoid:
    """Transformation groupoid of a group acting on a finite set.

    ``action[g][x]`` is g.x and must be a bijection of the point set for
    every g.  Arrows are pairs (g, x): x -> g.x, composed by
    (g, h.x)(h, x) = (gh, x).
    """
    ng = len(group_table)
    npts = len(action[0])
    for g in range(ng):
        if sorted(action[g]) != list(range(npts)):
            raise MalformedTable(f"action of group element {g} is not a bijection")
    identity = next(
        e for e in range(ng) if all(group_table[e][h] == h for h in range(ng))
    )
    ginv = [None] * ng
    for g in range(ng):
        ginv[g] = next(h for h in range(ng) if group_table[g][h] == identity)

    def aid(g, x):
        return g * npts + x

    m = ng * npts
    src = [0] * m
    tgt = [0] * m
    inv = [0] * m
    names = [""] * m
    units = [aid(identity, x) for x in range(npts)]
    for g in range(ng):
        for x in range(npts):
            a = aid(g, x)
            src[a] = aid(identity, x)
            tgt[a] = aid(identity, action[g][x])
            inv[a] = aid(ginv[g], action[g][x])
            names[a] = f"a{g}x{x}"
    compose = {}
    for g in range(ng):
        for h in range(ng):
            for x in range(npts):
                compose[(aid(g, action[h][x]), aid(h, x))] = aid(group_table[g][h], x)
    return FiniteGroupoid.from_tables(units, src, tgt, inv, compose, names)


def group_bundle(group_tables) -> FiniteGroupoid:
    """Disjoint union of groups, one sitting over each unit.

    ``group_tables[i]`` is the multiplication table of the group at unit i;
    all arrows of that fiber have source and target the i-th unit.
    """
    offsets = []
    total = 0
    for t in group_tables:
        offsets.append(total)
        total += len(t)
    src = [0] * total
    tgt = [0] * total
    inv = [0] * total
    names = [""] * total
    units = []
    compose = {}
    for i, table in enumerate(group_tables):
        k = len(table)
        off = offsets[i]
        identity = next(
            e
            for e in range(k)
            if all(table[e][h] == h for h in range(k))
            and all(table[g][e] == g for g in range(k))
        )
        units.append(off + identity)
        for g in range(k):
            src[off + g] = off + identity
            tgt[off + g] = off + identity
            names[off + g] = f"u{i}g{g}"
            inv[off + g] = off + next(
                h for h in range(k) if table[g][h] == identity and table[h][g] == identity
            )
            for h in range(k):
                compose[(off + g, off + h)] = off + table[g][h]
    return FiniteGroupoid.from_tables(units, src, tgt, inv, compose, names)


def disjoint_union(g1: FiniteGroupoid, g2: FiniteGroupoid) -> FiniteGroupoid:
    """Disjoint union; arrows of g2 are shifted past those of g1."""
    off = g1.n_arrows
    src = list(g1.src) + [a + off for a in g2.src]
    tgt = list(g1.tgt) + [a + off for a in g2.tgt]
    inv = list(g1.inv) + [a + off for a in g2.inv]
    units = list(g1.units) + [u + off for u in g2.units]
    names = [f"l.{s}" for s in g1.arrow_names] + [f"r.{s}" for s in g2.arrow_names]
    compose = {}
    for a in range(g1.n_arrows):
        for b in range(g1.n_arrows):
            ab = g1.comp[a][b]
            if ab is not None:
                compose[(a, b)] = ab
    for a in range(g2.n_arrows):
        for b in range(g2.n_arrows):
            ab = g2.comp[a][b]
            if ab is not None:
                compose[(a + off, b + off)] = ab + off
    return FiniteGroupoid.from_tables(units, src, tgt, inv, compose, names)
