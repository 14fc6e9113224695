"""Seeded inputs for the benchmark: groupoid tables, twists and modules.

Everything here is plain data built with the standard library, so the
generator never asks the package under test for an answer.  Each case
also carries closed-form expectations (number of arrows, orbits,
isotropy orders) derived from the family it was built from, which the
output checks compare against what the package computes.

A case is a dict:

    name      family label, for reports
    p         None for Q, else the prime of GF(p)
    units, src, tgt, inv, compose
              the tables FiniteGroupoid.from_tables takes
    cocycle   {(a, b): value} with Fraction values over Q, ints mod p else
    twist     one of TWISTS
    orbits    list of (sorted unit ids, isotropy order) per orbit
    unit      the unit the cli commands use
    modules   {name: (dim, token, rows)} in the problem-file layout
              (only for cli-verify)

The same (workload, seed) always gives the same cases, byte for byte
(see ``case_text``).
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations

TWISTS = ("trivial", "sign", "scaled", "quaternion")

# ---------------------------------------------------------------------------
# groups as multiplication tables; element 0 is always the identity


def cyclic(n):
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def klein_four():
    """Z2 x Z2 ordered e, a, b, ab (the order the quaternion lift needs)."""
    order = [(0, 0), (1, 0), (0, 1), (1, 1)]
    idx = {v: i for i, v in enumerate(order)}
    return [[idx[((x1 + y1) % 2, (x2 + y2) % 2)] for (y1, y2) in order]
            for (x1, x2) in order]


def symmetric3():
    perms = sorted(permutations(range(3)))  # identity first
    idx = {p: i for i, p in enumerate(perms)}
    return [[idx[tuple(g[h[k]] for k in range(3))] for h in perms] for g in perms]


GROUPS = {
    "Z1": [[0]],
    "Z2": cyclic(2),
    "Z3": cyclic(3),
    "Z4": cyclic(4),
    "V4": klein_four(),
    "S3": symmetric3(),
}

# Quaternion lift e, i, j, k of the Klein four group, in klein_four() order.
QUATERNION_SIGNS = [
    [1, 1, 1, 1],
    [1, -1, 1, -1],
    [1, -1, -1, 1],
    [1, 1, -1, -1],
]

# ---------------------------------------------------------------------------
# groupoid families; each returns (units, src, tgt, inv, compose, orbits, fibers)
# where fibers lists (offset, group name) for group fibers (used by the
# quaternion twist) and orbits is [(unit ids, isotropy order)].


def pair_tables(n):
    m = n * n
    units = [i * n + i for i in range(n)]
    src = [0] * m
    tgt = [0] * m
    inv = [0] * m
    for i in range(n):
        for j in range(n):
            a = i * n + j
            src[a], tgt[a], inv[a] = j * n + j, i * n + i, j * n + i
    compose = {(i * n + j, j * n + k): i * n + k
               for i in range(n) for j in range(n) for k in range(n)}
    return units, src, tgt, inv, compose, [(units, 1)], []


def action_tables(group, action):
    """Arrows (g, x) = g * npts + x from x to g.x; action[g] is a permutation."""
    table = GROUPS[group]
    ng, npts = len(table), len(action[0])
    ginv = [next(h for h in range(ng) if table[g][h] == 0) for g in range(ng)]
    m = ng * npts
    src = [0] * m
    tgt = [0] * m
    inv = [0] * m
    for g in range(ng):
        for x in range(npts):
            a = g * npts + x
            src[a], tgt[a] = x, action[g][x]
            inv[a] = ginv[g] * npts + action[g][x]
    compose = {(g * npts + action[h][x], h * npts + x): table[g][h] * npts + x
               for g in range(ng) for h in range(ng) for x in range(npts)}
    orbits = []
    seen = set()
    for x in range(npts):
        if x in seen:
            continue
        orbit = sorted({action[g][x] for g in range(ng)})
        seen.update(orbit)
        orbits.append((orbit, ng // len(orbit)))
    fibers = [(0, group)] if npts == 1 else []
    return list(range(npts)), src, tgt, inv, compose, orbits, fibers


def bundle_tables(groups):
    units, src, tgt, inv, compose, orbits, fibers = [], [], [], [], {}, [], []
    off = 0
    for name in groups:
        table = GROUPS[name]
        k = len(table)
        units.append(off)
        for g in range(k):
            src.append(off)
            tgt.append(off)
            inv.append(off + next(h for h in range(k) if table[g][h] == 0))
            for h in range(k):
                compose[(off + g, off + h)] = off + table[g][h]
        orbits.append(([off], k))
        fibers.append((off, name))
        off += k
    return units, src, tgt, inv, compose, orbits, fibers


def union_tables(left, right):
    u1, s1, t1, i1, c1, o1, f1 = left
    u2, s2, t2, i2, c2, o2, f2 = right
    off = len(s1)

    def shift(seq):
        return [a + off for a in seq]

    compose = dict(c1)
    compose.update({(a + off, b + off): ab + off for (a, b), ab in c2.items()})
    return (u1 + shift(u2), s1 + shift(s2), t1 + shift(t2), i1 + shift(i2), compose,
            o1 + [(shift(units), iso) for units, iso in o2],
            f1 + [(o + off, g) for o, g in f2])


def rotation(n, fixed=0):
    """Z_n rotating n points, with ``fixed`` extra points left alone."""
    return [[(x + g) % n if x < n else x for x in range(n + fixed)] for g in range(n)]


def swaps(pairs, fixed=0):
    """Z2 swapping ``pairs`` disjoint pairs of points, fixing ``fixed`` more."""
    flip = [x ^ 1 if x < 2 * pairs else x for x in range(2 * pairs + fixed)]
    return [list(range(2 * pairs + fixed)), flip]


def s3_on_points():
    return [list(p) for p in sorted(permutations(range(3)))]


def v4_regular():
    return [list(row) for row in klein_four()]


def _catalog():
    """Every family member the workloads use, by name."""
    members = {f"pair({n})": pair_tables(n) for n in (2, 3, 4, 5, 6, 9)}
    for name in ("Z4", "V4", "S3"):
        members[f"group({name})"] = action_tables(name, [[0] for _ in GROUPS[name]])
    for groups in (("Z2", "Z1", "Z1"), ("Z2", "Z2", "Z1", "Z1"), ("Z3", "Z2", "Z1"),
                   ("V4", "Z2", "Z1", "Z1"), ("Z4", "Z3", "Z1"), ("Z3", "Z3", "Z2"),
                   ("V4", "Z4", "Z3"), ("S3", "Z3", "Z2"), ("V4", "S3", "Z4")):
        members["bundle(" + ",".join(groups) + ")"] = bundle_tables(groups)
    for group, action, points in (
            ("Z2", swaps(1, 1), "2+1"), ("Z2", swaps(2), "2+2"), ("Z2", swaps(1, 2), "2+1+1"),
            ("Z2", swaps(2, 2), "2+2+1+1"), ("Z3", rotation(3), "3"),
            ("Z3", rotation(3, 1), "3+1"), ("Z4", rotation(4), "4"),
            ("S3", s3_on_points(), "3")):
        members[f"action({group} on {points} points)"] = action_tables(group, action)
    members["action(V4 on itself)"] = action_tables("V4", v4_regular())
    for left, right in (("pair(2)", "bundle(Z2,Z1,Z1)"), ("pair(4)", "bundle(Z2,Z1,Z1)"),
                        ("pair(2)", "group(V4)"), ("pair(3)", "group(V4)"),
                        ("pair(4)", "pair(3)")):
        members[f"{left}+{right}"] = union_tables(members[left], members[right])
    return members


# CATALOG[name] is the tables of one family member; a workload slot names
# its member, so every seed gives a pass of the same shape and cost.
CATALOG = _catalog()


# ---------------------------------------------------------------------------
# twists


def _coboundary(tables, b, p):
    """Values (a1, a2) -> b(a1) b(a2) / b(a1 a2), keeping those that are not 1."""
    values = {}
    for (a1, a2), a12 in sorted(tables[4].items()):
        if p is None:
            w = Fraction(b[a1] * b[a2], b[a12])
        else:
            w = b[a1] * b[a2] * pow(b[a12], -1, p) % p
        if w != 1:
            values[(a1, a2)] = w
    return values


def twist_values(rnd, tables, twist, p):
    """The cocycle of the given kind as {(a, b): value}, values not equal to 1."""
    units = set(tables[0])
    m = len(tables[1])
    if twist == "trivial":
        return {}
    if twist in ("sign", "scaled"):
        if twist == "sign":
            choices = [1, -1]
        elif p is None:
            choices = [-3, -2, 2, 3]
        else:
            choices = list(range(2, p)) or [1]
        b = [1 if a in units else rnd.choice(choices) for a in range(m)]
        if p is not None:
            b = [v % p for v in b]
        return _coboundary(tables, b, p)
    if twist == "quaternion":
        values = {}
        for off, group in tables[6]:
            if group != "V4":
                continue
            for a in range(4):
                for c in range(4):
                    s = QUATERNION_SIGNS[a][c]
                    if s != 1:
                        values[(off + a, off + c)] = Fraction(s) if p is None else s % p
        return dict(sorted(values.items()))
    raise ValueError(f"unknown twist {twist!r}")


# ---------------------------------------------------------------------------
# modules, computed from the tables alone


def _action_rows(case, basis, acting):
    """Matrices of delta_a (a in ``acting``) on span{delta_g : g in basis}.

    delta_a * delta_g = w(a, g) delta_{ag} when src(a) = tgt(g), else 0;
    ``basis`` must be closed under those products.
    """
    src, tgt, compose, w = case["src"], case["tgt"], case["compose"], case["cocycle"]
    zero, one = (Fraction(0), Fraction(1)) if case["p"] is None else (0, 1)
    index = {g: i for i, g in enumerate(basis)}
    rows = []
    for a in acting:
        mat = [[zero] * len(basis) for _ in basis]
        for j, g in enumerate(basis):
            if src[a] == tgt[g]:
                mat[index[compose[(a, g)]]][j] = w.get((a, g), one)
        rows.extend(tuple(r) for r in mat)
    return rows


def column_module(case, x):
    """B delta_x: the left ideal on arrows with source x, a module over B.

    Its dimension is |orbit(x)| * |G_x|.
    """
    basis = [g for g in range(len(case["src"])) if case["src"][g] == x]
    return len(basis), "B", _action_rows(case, basis, range(len(case["src"])))


def isotropy_regular_module(case, x):
    """The regular module of the twisted group algebra at x.

    Written on the basis delta_g, g in G_x in arrow order, which is the
    canonical coset-section basis of B(x, x) for a point ideal.
    """
    basis = [g for g in range(len(case["src"]))
             if case["src"][g] == x and case["tgt"][g] == x]
    return len(basis), f"isotropy:{x}", _action_rows(case, basis, basis)


# ---------------------------------------------------------------------------
# cases


def make_case(rnd, name, twist, p, modules=False):
    """The member ``name`` of CATALOG with a seeded twist of the given kind."""
    tables = CATALOG[name]
    if twist == "quaternion" and not any(g == "V4" for _, g in tables[6]):
        raise ValueError(f"{name} has no Klein-four fiber for the quaternion twist")
    units, src, tgt, inv, compose, orbits, _ = tables
    case = {
        "name": name, "p": p, "twist": twist,
        "units": units, "src": src, "tgt": tgt, "inv": inv, "compose": compose,
        "cocycle": twist_values(rnd, tables, twist, p),
        "orbits": orbits,
        # the first unit of the orbit with the largest |orbit| * |G_x|
        "unit": max(orbits, key=lambda o: len(o[0]) * o[1])[0][0],
    }
    if modules:
        x = case["unit"]
        case["modules"] = {"col": column_module(case, x), "iso": isotropy_regular_module(case, x)}
    return case


def orbit_of(case, x):
    """(orbit, isotropy order) of the unit x, from the family's closed form."""
    for orbit, iso in case["orbits"]:
        if x in orbit:
            return orbit, iso
    raise KeyError(x)


def case_text(case) -> str:
    """Canonical text of a case; equal cases give equal bytes."""
    parts = [
        f"name {case['name']}", f"p {case['p']}", f"twist {case['twist']}",
        f"unit {case['unit']}",
        "units " + " ".join(map(str, case["units"])),
        "src " + " ".join(map(str, case["src"])),
        "tgt " + " ".join(map(str, case["tgt"])),
        "inv " + " ".join(map(str, case["inv"])),
        "compose " + " ".join(f"{a},{b}>{c}" for (a, b), c in sorted(case["compose"].items())),
        "cocycle " + " ".join(f"{a},{b}={v}" for (a, b), v in sorted(case["cocycle"].items())),
        "orbits " + " ".join(f"{','.join(map(str, o))}/{iso}" for o, iso in case["orbits"]),
    ]
    for name, (dim, token, rows) in sorted(case.get("modules", {}).items()):
        parts.append(f"module {name} {dim} {token} "
                     + ";".join(" ".join(map(str, r)) for r in rows))
    return "\n".join(parts) + "\n"


def generate(schedule, seed, salt, modules=False):
    """One case per schedule slot (member name, twist, p or tuple of primes).

    The seed picks the twist values and the prime from a tuple.
    """
    rnd = random.Random(f"{salt}:{seed}")
    cases = []
    for name, twist, p in schedule:
        if isinstance(p, tuple):
            p = rnd.choice(p)
        cases.append(make_case(rnd, name, twist, p, modules))
    return cases
