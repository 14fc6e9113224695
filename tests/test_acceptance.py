"""Acceptance gate: one test per criterion, one PASS line per criterion.

Every expected value is either computed by an independent in-test oracle
or forced by an exhaustive scan; tolerances are exact equality
throughout (all arithmetic is over Q or GF(p)).
"""

import itertools
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import groupoidalg
from groupoidalg.groupoid import pair_groupoid
from groupoidalg.ideals import (
    effros_hahn_check,
    enumerate_ideals,
    induced_ideal,
    left_ideals,
    primitive_ideals,
    question_12_15_experiment,
)
from groupoidalg.induction import (
    imprimitivity_bimodule,
    induce,
    submodule_transfer,
    verify_ind_res_embedding,
    verify_res_ind_roundtrip,
)
from groupoidalg.isotropy import Inclusion
from groupoidalg.linalg import GF, QQ, Subspace
from groupoidalg.modrep import (
    all_submodules,
    annihilator,
    direct_sum,
    find_module_isomorphism,
    germ_space,
    is_irreducible,
    isotropy_quotient_module,
    quotient_module,
    regular_module,
    restriction,
    submodule_module,
)
from groupoidalg.normalizers import certify_normalizer, verify_inverse_semigroup
from groupoidalg.steinberg import convolve, delta, partial_inverse, presentation_of_B
from groupoidalg.twist import Cocycle, coboundary, validate_cocycle

from conftest import battery, quaternion_fixture

GF2, GF3, GF5 = GF(2), GF(3), GF(5)
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def report(criterion, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {criterion}: PASS{suffix}")


def associativity_holds(g, c):
    """Exhaustive twisted-associativity scan over composable triples.

    Products of delta sections vanish unless the pieces compose, so the
    convolution associativity on all basis triples reduces to the scalar
    identity w(a,b) w(ab, d) = w(a, bd) w(b, d) over composable triples.
    """
    f = c.field
    for a, b in g.composable_pairs():
        ab = g.comp[a][b]
        for d in g.arrows():
            if g.src[b] != g.tgt[d]:
                continue
            lhs = f.mul(c(a, b), f.mul(c(ab, d), f.one()))
            rhs = f.mul(c(a, g.comp[b][d]), c(b, d))
            if lhs != rhs:
                return False
    return True


def random_coboundary(g, field, rng):
    b = {
        a: field.one() if g.is_unit(a) else field.of(rng.randrange(1, field.p))
        for a in g.arrows()
    }
    return coboundary(g, field, b)


# -- criterion 1 ----------------------------------------------------------------


def convolution_associativity_holds(g, c):
    """Independent oracle: associativity of actual delta convolutions."""
    ds = [delta(g, c, a) for a in g.arrows()]
    for a in g.arrows():
        for b in g.arrows():
            for d in g.arrows():
                lhs = convolve(convolve(ds[a], ds[b]), ds[d])
                rhs = convolve(ds[a], convolve(ds[b], ds[d]))
                if lhs != rhs:
                    return False
    return True


def test_criterion_01_cocycle_associativity_and_mutation_kill():
    # quaternion twist: full convolution-level associativity, then 100%
    # mutation kill over all sixteen composable pairs
    g, c = quaternion_fixture(QQ)
    assert convolution_associativity_holds(g, c)
    for pair in g.composable_pairs():
        mutant = c.mutated(pair, QQ.neg(c(*pair)))
        mutant.validated = True  # force the oracle to run on the raw table
        assert not associativity_holds(g, mutant)
        assert not convolution_associativity_holds(g, mutant)

    rng = random.Random(20240501)
    killed = 0
    surviving_valid = 0
    # on groupoids with at least two arrows out of every unit, every single
    # flip breaks a triple; one-object fibers have a free twist parameter
    # (any value of w(flip, flip) yields a valid cocycle), so there the
    # scan must agree exactly with re-validation instead
    full_kill = {"pair2", "pair3", "swap"}
    for name, gg, _ in battery(GF5, ["pair2", "pair3", "z2", "gb", "swap"]):
        for _ in range(50):
            cb = random_coboundary(gg, GF5, rng)
            assert associativity_holds(gg, cb), name
            for pair in gg.composable_pairs():
                mutant = cb.mutated(pair, GF5.mul(GF5.of(2), cb(*pair)))
                broke = not associativity_holds(gg, mutant)
                if name in full_kill:
                    assert broke, (name, pair)
                    killed += 1
                elif broke:
                    killed += 1
                else:
                    # a surviving mutant must still satisfy the cocycle
                    # identity: confirm through the independent
                    # convolution-level oracle
                    mutant.validated = True
                    assert convolution_associativity_holds(gg, mutant), (name, pair)
                    surviving_valid += 1
    report(
        1,
        f"quaternion kills=16/16; coboundary kills={killed}, "
        f"survivors proven valid cocycles={surviving_valid}",
    )


# -- criterion 2 ----------------------------------------------------------------


def pair_arrow(n, i, j):
    return i * n + j


def matrix_unit_structure_ok(pres, n, field):
    for i, j, k, l in itertools.product(range(n), repeat=4):
        row = pres.table[pair_arrow(n, i, j)][pair_arrow(n, k, l)]
        nonzero = [(idx, v) for idx, v in enumerate(row) if v != 0]
        if j == k:
            if nonzero != [(pair_arrow(n, i, l), field.one())]:
                return False
        elif nonzero:
            return False
    return True


def unique_irreducible_dimension(inc, n, p):
    """Exhaustive certificate that the only irreducible module has dim n.

    Where the full invariant-subspace scan of the regular module fits in
    2^16 candidates it is used directly: every simple quotient of the
    regular module (and every irreducible module is one) then has
    dimension n and a single isomorphism class.  Beyond that bound the
    regular module is decomposed explicitly into n invariant column
    blocks, each exhaustively checked irreducible and pairwise
    isomorphic, which pins every simple quotient to the same class.
    """
    reg = regular_module(inc.B)
    field = inc.field
    if p ** (n * n) <= 2**16:
        subs = all_submodules(reg)
        minimal = [
            s
            for s in subs
            if s.dim > 0
            and not any(0 < t.dim < s.dim and s.contains_subspace(t) for t in subs)
        ]
        assert all(s.dim == n for s in minimal)
        mods = [submodule_module(reg, s) for s in minimal]
        for m in mods:
            assert is_irreducible(m).status == "irreducible"
        for m in mods[1:]:
            assert find_module_isomorphism(mods[0], m) is not None
        # every submodule is a join of minimal ones: semisimple lattice
        for s in subs:
            inside = [t for t in minimal if s.contains_subspace(t)]
            joined = Subspace.zero(reg.dim, field)
            for t in inside:
                joined = joined.add(t)
            assert joined == s
        # simple quotients = regular/maximal all have dimension n
        full = reg.dim
        for s in subs:
            if s.dim < full and not any(
                s.dim < t.dim < full and t.contains_subspace(s) for t in subs
            ):
                assert full - s.dim == n
        return True
    # block route: regular = direct sum of the n column blocks
    blocks = []
    for j in range(n):
        vecs = []
        for i in range(n):
            e = [field.zero()] * reg.dim
            e[pair_arrow(n, i, j)] = field.one()
            vecs.append(tuple(e))
        blocks.append(Subspace.span(vecs, reg.dim, field))
    total = Subspace.zero(reg.dim, field)
    mods = []
    for b in blocks:
        for m in reg.matrices:
            for v in b.basis:
                from groupoidalg.linalg import mat_vec

                assert mat_vec(m, v, field) in b
        total = total.add(b)
        mods.append(submodule_module(reg, b))
    assert total.dim == reg.dim
    for m in mods:
        assert m.dim == n
        verdict = is_irreducible(m)  # exhaustive p^n seed scan
        assert verdict.status == "irreducible" and verdict.certified
    for m in mods[1:]:
        assert find_module_isomorphism(mods[0], m) is not None
    return True


def test_criterion_02_matrix_algebra_oracle():
    for n in (1, 2, 3, 4):
        for field in (GF2, GF3):
            g = pair_groupoid(n)
            c = Cocycle.trivial(g, field)
            pres = presentation_of_B(g, c)
            assert pres.dim == n * n
            assert matrix_unit_structure_ok(pres, n, field)
            assert pres.center().dim == 1
            inc = Inclusion(g, c)
            assert unique_irreducible_dimension(inc, n, field.p)
        # the rational presentation carries the same table
        pres_q = presentation_of_B(pair_groupoid(n), Cocycle.trivial(pair_groupoid(n), QQ))
        assert matrix_unit_structure_ok(pres_q, n, QQ)
        assert pres_q.center().dim == 1
    report(2, "n=1..4 over GF(2), GF(3) and Q")


# -- criterion 3 ----------------------------------------------------------------


def test_criterion_03_inverse_semigroup_and_beta_laws():
    for name, g, c in battery(QQ):
        certs = [
            certify_normalizer(delta(g, c, a), partial_inverse(delta(g, c, a)))
            for a in g.arrows()
        ]
        rep = verify_inverse_semigroup(certs)
        assert rep.ok, name
        for c1 in certs:
            star = certify_normalizer(c1.n_star, c1.n)
            assert star.beta == c1.beta.inverse(), name
            for c2 in certs:
                prod = convolve(c1.n, c2.n)
                composed = c1.beta.compose(c2.beta)
                if prod.is_zero():
                    assert composed.mapping == {}, name
                else:
                    pcert = certify_normalizer(prod, convolve(c2.n_star, c1.n_star))
                    assert pcert.beta == composed, name
    report(3, "closure, unique stars, commuting idempotents, beta laws")


# -- criterion 4 ----------------------------------------------------------------


def test_criterion_04_isotropy_identification():
    cases = []
    for field in (QQ, GF3):
        for name, g, c in battery(field):
            cases.append((f"{name}/{field}", g, c))
    g, c = quaternion_fixture(QQ)
    cases.append(("v4quat/Q", g, c))
    g, c = quaternion_fixture(GF3)
    cases.append(("v4quat/GF3", g, c))
    from conftest import make_gb

    gb = make_gb()
    sign = Cocycle(gb, GF3, {(1, 1): GF3.of(-1)})
    assert validate_cocycle(sign) is None
    cases.append(("gb_sign/GF3", gb, sign))
    checked = 0
    for name, g, c in cases:
        inc = Inclusion(g, c)
        for x in g.units:
            data = inc.isotropy_data(x, x)
            assert data.dim == len(g.isotropy_group(x)), name
            inc.identify_with_twisted_group_algebra(x)
            checked += 1
    report(4, f"{checked} unit identifications matched exactly")


# -- criterion 5 ----------------------------------------------------------------


def test_criterion_05_regularity_and_h_identity():
    pairs = 0
    for field in (QQ, GF3):
        for name, g, c in battery(field):
            inc = Inclusion(g, c)
            for x in g.units:
                for y in g.units:
                    data = inc.isotropy_data(y, x)
                    assert data.C.add(data.L).dim == inc.m, name
                    assert data.C.intersect(data.L) == data.H, name
                    pairs += 1
    report(5, f"{pairs} unit pairs, exact RREF equalities")


# -- criterion 6 ----------------------------------------------------------------


def test_criterion_06_freeness():
    checked = 0
    for field in (QQ, GF3):
        for name, g, c in battery(field):
            inc = Inclusion(g, c)
            for x in g.units:
                bim = imprimitivity_bimodule(inc, x)
                iso = len(g.isotropy_group(x))
                assert bim.quotient.dim == len(g.orbit(x)) * iso, name
                # the constructor has already verified the coordinate bijection;
                # re-derive it here from the free coordinates of a spanning set
                for gamma in g.arrows():
                    if g.src[gamma] != x:
                        continue
                    cls = bim.quotient.project(inc.delta_vector(gamma))
                    blocks = bim.free_coordinates(cls)
                    rebuilt = (field.zero(),) * bim.quotient.dim
                    for y in bim.orbit:
                        term = bim.right_apply(bim.zeta[y], blocks[y])
                        rebuilt = tuple(
                            field.add(a, b) for a, b in zip(rebuilt, term)
                        )
                    assert rebuilt == cls, name
                checked += 1
    report(6, f"{checked} bimodules free of the predicted rank")


# -- criterion 7 ----------------------------------------------------------------


def isotropy_battery(inc, x):
    data = inc.isotropy_data(x, x)
    reg = regular_module(data.presentation)
    mods = [reg]
    subs = all_submodules(reg)
    minimal = [
        s
        for s in subs
        if s.dim > 0
        and not any(0 < t.dim < s.dim and s.contains_subspace(t) for t in subs)
    ]
    for s in minimal:
        m = submodule_module(reg, s, name=f"irr{s.dim}")
        if is_irreducible(m).status == "irreducible":
            mods.append(m)
    mods.append(direct_sum(reg, reg, name="decomposable"))
    return mods


def test_criterion_07_roundtrip():
    cases = 0
    for name, g, c in battery(GF3):
        inc = Inclusion(g, c)
        for x in g.units:
            mods = isotropy_battery(inc, x)
            assert len(mods) >= 3, name
            for V in mods:
                cert = verify_res_ind_roundtrip(inc, x, V)
                assert cert.restriction_dim == V.dim, name
                cases += 1
    report(7, f"{cases} roundtrip isomorphisms verified exactly")


# -- criterion 8 ----------------------------------------------------------------


def test_criterion_08_lattice_transfer():
    checked = 0
    for field in (GF2, GF3):
        for name, g, c in battery(field, ["pair2", "pair3", "z2", "gb", "v4", "swap3"]):
            inc = Inclusion(g, c)
            for x in g.units:
                V = regular_module(inc.isotropy_data(x, x).presentation)
                ind = induce(inc, x, V)
                if field.p ** ind.module.dim > 2**20:
                    continue
                v_subs = all_submodules(V)
                z_subs = all_submodules(ind.module)
                assert len(v_subs) == len(z_subs), name
                pulled = {}
                for Z in z_subs:
                    W = submodule_transfer(inc, ind, Z)
                    pulled[Z.basis] = W
                assert sorted(w.basis for w in pulled.values()) == sorted(
                    s.basis for s in v_subs
                ), name
                items = list(z_subs)
                for Z1 in items:
                    for Z2 in items:
                        assert Z2.contains_subspace(Z1) == pulled[
                            Z2.basis
                        ].contains_subspace(pulled[Z1.basis]), name
                # irreducible/indecomposable correspondence on the same data
                for Z in z_subs:
                    if 0 < Z.dim < ind.module.dim:
                        zmod = submodule_module(ind.module, Z)
                        wmod = submodule_module(V, pulled[Z.basis])
                        assert (
                            is_irreducible(zmod).status
                            == is_irreducible(wmod).status
                        ), name
                checked += 1
    report(8, f"{checked} full lattice isomorphisms")


# -- criterion 9 ----------------------------------------------------------------


def b_module_battery(inc):
    """Regular module, its minimal submodules, simple quotients, a direct sum."""
    reg = regular_module(inc.B)
    out = [("regular", reg)]
    subs = all_submodules(reg)
    full = reg.dim
    minimal = [
        s
        for s in subs
        if s.dim > 0
        and not any(0 < t.dim < s.dim and s.contains_subspace(t) for t in subs)
    ]
    for i, s in enumerate(minimal[:3]):
        out.append((f"min{i}", submodule_module(reg, s)))
    maximal = [
        s
        for s in subs
        if s.dim < full
        and not any(s.dim < t.dim < full and t.contains_subspace(s) for t in subs)
    ]
    for i, s in enumerate(maximal[:2]):
        q, _ = quotient_module(reg, s)
        out.append((f"top{i}", q))
    return out


def test_criterion_09_embedding():
    injective = 0
    onto_irreducible = 0
    non_onto_reducible = 0
    for name, g, c in battery(GF3, ["pair2", "z2", "gb", "v4", "du"]):
        inc = Inclusion(g, c)
        for mod_name, V in b_module_battery(inc):
            if V.dim == 0:
                continue
            verdict = is_irreducible(V)
            for x in g.units:
                res = restriction(inc, V, x)
                cert = verify_ind_res_embedding(inc, V, x)
                injective += 1
                if res.subspace.dim == 0:
                    continue
                if verdict.status == "irreducible":
                    # Cor 10.2: onto, and the restriction is irreducible
                    assert cert.onto, (name, mod_name)
                    rverdict = is_irreducible(res.module)
                    assert rverdict.status == "irreducible", (name, mod_name)
                    onto_irreducible += 1
                elif not cert.onto:
                    non_onto_reducible += 1
    assert onto_irreducible > 0
    # the battery must witness that reducible modules can fail to be onto
    assert non_onto_reducible > 0
    report(
        9,
        f"injective={injective}, onto-irreducible={onto_irreducible}, "
        f"reducible-non-onto witnesses={non_onto_reducible}",
    )


# -- criterion 10 ----------------------------------------------------------------


def test_criterion_10_annihilator_identities():
    for name, g, c in battery(GF3, ["pair2", "z2", "gb", "v4", "swap"]):
        inc = Inclusion(g, c)
        for x in g.units:
            for V in isotropy_battery(inc, x):
                lhs = annihilator(induce(inc, x, V).module)
                rhs = induced_ideal(inc, x, annihilator(V))
                assert lhs == rhs, name

    rng = random.Random(1031)
    for name, g, c in battery(GF3, ["pair2", "gb", "z2"]):
        inc = Inclusion(g, c)
        reg = regular_module(inc.B)
        triples = 0
        while triples < 100:
            x = rng.choice(list(g.units))
            gs = germ_space(inc, reg, x)
            if gs.quotient.dim == 0:
                continue
            germ_subs = all_submodules(gs.module)
            t = rng.choice(germ_subs)
            lifted = [gs.quotient.inject(v) for v in t.basis]
            W = Subspace.span(
                list(lifted) + list(gs.quotient.kernel.basis), reg.dim, GF3
            )
            VW, _ = isotropy_quotient_module(inc, reg, x, W)
            if VW.dim == 0:
                ann = Subspace.full(inc.m, GF3)
            else:
                ann = annihilator(induce(inc, x, VW).module)
            b = tuple(GF3.of(rng.randrange(3)) for _ in range(inc.m))
            side1 = b in ann
            side2 = True
            for d in range(inc.m):
                db = inc.multiply(inc.delta_vector(d), b)
                act = reg.action_of(db)
                for j in range(reg.dim):
                    col = tuple(act[r][j] for r in range(reg.dim))
                    if col not in W:
                        side2 = False
                        break
                if not side2:
                    break
            assert side1 == side2, name
            triples += 1
    report(10, "Ann(Ind V) = Ind(Ann V) and the two-sided criterion, exact")


# -- criterion 11 ----------------------------------------------------------------


def test_criterion_11_effros_hahn():
    start = time.monotonic()
    total_ideals = 0
    total_primitive = 0
    fixtures = ["pair1", "pair2", "pair3", "z2", "v4", "gb", "swap3", "du"]
    for name, g, c in battery(GF2, fixtures):
        inc = Inclusion(g, c)
        assert inc.m <= 12, name
        lattice = left_ideals(inc)
        ideals = enumerate_ideals(inc, lattice)
        for ideal in ideals:
            if ideal.dim == inc.m:
                continue
            rep = effros_hahn_check(inc, ideal)
            assert rep.ok, name
            total_ideals += 1
        for ideal, witness in primitive_ideals(inc, lattice):
            rep = effros_hahn_check(inc, ideal, witness)
            assert rep.primitive_single_unit is not None, name
            q = question_12_15_experiment(inc, ideal, witness)
            assert q.answer == "YES", name
            assert q.inducing_ideal_dim is not None, name
            total_primitive += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"budget exceeded: {elapsed:.1f}s"
    report(
        11,
        f"{total_ideals} ideals decomposed, {total_primitive} primitive "
        f"ideals induced, {elapsed:.1f}s",
    )


# -- criterion 12 ----------------------------------------------------------------


def test_criterion_12_determinism():
    env_runs = []
    fixture = str(FIXTURES / "gb3_sign.gkd")
    # the child process imports the package from where this one did
    src = str(Path(groupoidalg.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "groupoidalg.cli", "verify", fixture, "all"],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        env_runs.append(proc.stdout)
    assert env_runs[0] == env_runs[1]
    from groupoidalg.cli import run

    for path in sorted(FIXTURES.glob("*.gkd")):
        a, ca = run("verify", str(path), ["all"])
        b, cb = run("verify", str(path), ["all"])
        assert a == b and ca == cb
    report(12, "byte-identical reports across processes and runs")
