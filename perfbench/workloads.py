"""The benchmark's workloads: seeded schedules, the timed ops and their checks.

An op is one timed unit of work.  Each op returns the objects it
computed so the runner can hash them outside the timed region, and
raises ``CheckFailed`` when an output disagrees with a closed form that
the generator derived without the package.

Import this module only after ``src`` is on ``sys.path``.
"""

from __future__ import annotations

import os

from groupoidalg import cli
from groupoidalg.groupoid import FiniteGroupoid
from groupoidalg.induction import imprimitivity_bimodule, induce, verify_res_ind_roundtrip
from groupoidalg.isotropy import Inclusion
from groupoidalg.linalg import GF, QQ
from groupoidalg.modrep import regular_module
from groupoidalg.twist import Cocycle, validate_cocycle

import gen


class CheckFailed(Exception):
    """An output of the package disagrees with the benchmark's expectation."""


def expect(ok, what):
    if not ok:
        raise CheckFailed(what)


def field_of(p):
    return QQ if p is None else GF(p)


# ---------------------------------------------------------------------------
# schedules: one slot per input of a pass, (family member, twist, prime)
#
# A slot fixes the family member and the twist kind, and the seed picks
# the twist values and the prime from a tuple.  So every seed gives a pass
# of one shape and cost, with other inputs.  Twist values do not change
# the sparsity of any table.

PRIMES = (3, 5, 7)


def _slots(names, twists, p):
    """Each name with each twist kind, in turn."""
    return [(name, twists[i % len(twists)], p) for i, name in enumerate(names)]


# Over Q: Fraction elimination dominates.  dim B reaches 36.
PIPELINE_Q = _slots(
    ["pair(2)"] * 4 + ["pair(3)"] * 4 + ["pair(4)"] * 2 + ["pair(5)", "pair(6)"]
    + ["group(V4)", "group(Z4)", "group(S3)", "group(V4)", "group(Z4)", "group(S3)"]
    + ["bundle(Z3,Z2,Z1)", "bundle(Z2,Z2,Z1,Z1)", "bundle(V4,Z2,Z1,Z1)",
       "bundle(Z4,Z3,Z1)", "bundle(S3,Z3,Z2)", "bundle(V4,Z4,Z3)"]
    + ["action(Z2 on 2+1 points)", "action(Z2 on 2+2 points)", "action(Z2 on 2+1+1 points)",
       "action(Z3 on 3 points)", "action(Z2 on 2+1 points)", "action(Z3 on 3 points)",
       "action(Z3 on 3+1 points)", "action(Z2 on 2+2+1+1 points)"]
    + ["pair(2)+bundle(Z2,Z1,Z1)", "pair(2)+group(V4)", "pair(3)+group(V4)"],
    ["sign", "scaled"], None)

# Over GF(p): cheap scalars, so the dense m^3 tables and caches dominate.
# dim B reaches 81: one pair(10) op takes about 7 s on its own, more than
# a pass may take within the benchmark's time budget.
PIPELINE_GFP = _slots(
    ["pair(2)"] * 4 + ["pair(3)"] * 4 + ["pair(4)"] * 4 + ["pair(5)"] * 2
    + ["pair(6)", "pair(9)"]
    + ["group(V4)", "group(Z4)", "group(S3)", "group(V4)", "group(Z4)", "group(S3)"]
    + ["bundle(Z3,Z2,Z1)", "bundle(V4,Z2,Z1,Z1)", "bundle(Z3,Z3,Z2)", "bundle(V4,Z4,Z3)",
       "bundle(S3,Z3,Z2)", "bundle(V4,S3,Z4)"]
    + ["action(Z2 on 2+2 points)", "action(Z2 on 2+1+1 points)", "action(Z3 on 3 points)",
       "action(Z3 on 3+1 points)", "action(Z2 on 2+2+1+1 points)", "action(V4 on itself)",
       "action(Z4 on 4 points)", "action(S3 on 3 points)"]
    + ["pair(2)+bundle(Z2,Z1,Z1)", "pair(3)+group(V4)", "pair(4)+bundle(Z2,Z1,Z1)",
       "pair(4)+pair(3)"],
    ["sign", "scaled"], PRIMES) + _slots(
    ["group(V4)", "bundle(V4,Z2,Z1,Z1)", "bundle(V4,Z4,Z3)", "pair(3)+group(V4)"],
    ["quaternion", "trivial"], PRIMES)


# ---------------------------------------------------------------------------
# pipeline op


def build(case):
    """Groupoid and validated cocycle from the generated tables."""
    field = field_of(case["p"])
    gpd = FiniteGroupoid.from_tables(case["units"], case["src"], case["tgt"],
                                     case["inv"], case["compose"])
    expect(gpd.validate() is None, "groupoid axioms")
    cocycle = Cocycle(gpd, field, case["cocycle"])
    expect(validate_cocycle(cocycle) is None, "cocycle identity")
    return gpd, cocycle


def pipeline_op(case):
    """The structure pipeline on one input; returns its outputs."""
    gpd, cocycle = build(case)
    inc = Inclusion(gpd, cocycle)
    expect(inc.m == len(case["src"]), "dim B equals the number of arrows")
    out = [inc.m]
    for orbit, iso in case["orbits"]:
        x = orbit[0]
        data = inc.isotropy_data(x, x)
        expect(data.dim == iso, f"dim B({x},{x}) equals |G_x|")
        if len(orbit) > 1:
            y = orbit[1]
            expect(inc.isotropy_data(y, x).dim == iso, f"dim B({y},{x}) equals |hom({y},{x})|")
        emat = inc.projection_matrix(x, x)
        inc.identify_with_twisted_group_algebra(x)
        bim = imprimitivity_bimodule(inc, x)
        expect(bim.quotient.dim == len(orbit) * iso, f"dim M_{x} equals |orbit|*|G_x|")
        V = regular_module(data.presentation)
        ind = induce(inc, x, V)
        expect(ind.module.dim == len(orbit) * iso, f"induced dim at {x} equals |orbit|*dim V")
        cert = verify_res_ind_roundtrip(inc, x, V)
        expect((cert.module_dim, cert.induced_dim, cert.restriction_dim)
               == (iso, len(orbit) * iso, iso), f"roundtrip certificate at {x}")
        out.append((x, data.presentation.table, emat, ind.module.matrices))
    return out


# ---------------------------------------------------------------------------
# cli-verify: problem files and commands

# (family member, twist, prime) per problem file; the 10 commands run on
# every file, except that Q files with a scaled twist skip `verify
# inclusion` (see KNOWN_LIMIT_CASE).  Over GF(2) and GF(3) the cost of
# submodule enumeration depends on the groups, not only on dim B.
CLI_FILES = (
    _slots(["pair(2)", "pair(3)", "bundle(Z3,Z2,Z1)", "bundle(Z4,Z3,Z1)",
            "action(Z2 on 2+2 points)"], ["sign", "scaled"], None)
    + [("group(V4)", "quaternion", None)]
    + _slots(["pair(2)", "pair(3)", "bundle(Z3,Z2,Z1)", "action(Z2 on 2+1 points)"],
             ["trivial"], 2)
    + _slots(["pair(2)", "pair(2)", "group(S3)"], ["sign", "scaled"], 3)
    + [("group(V4)", "quaternion", 3)]
)


def cli_commands(case):
    """(command, args) pairs run on one problem file."""
    x = str(case["unit"])
    verify_suites = ["all"]
    if case["p"] is None and case["twist"] == "scaled":
        verify_suites = ["bimodule", "roundtrip", "ideals"]
    return ([("validate", []), ("algebra", []), ("isotropy", [x]),
             ("induce", [x, "iso"]), ("restrict", [x, "col"]), ("germs", ["col"]),
             ("ideals", [])]
            + [("verify", [s]) for s in verify_suites]
            + [("effros-hahn", []), ("q1215", [])])


def write_problem(case, path):
    """Write the case as a .gkd file with cli.format_problem and check it parses back."""
    gpd, cocycle = build(case)
    field = cocycle.field
    text = cli.format_problem(field, gpd, cocycle, modules=case.get("modules"))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    parsed = cli.parse(path)
    expect(parsed.groupoid.units == tuple(case["units"])
           and list(parsed.groupoid.src) == case["src"]
           and list(parsed.groupoid.tgt) == case["tgt"]
           and list(parsed.groupoid.inv) == case["inv"]
           and {(a, b): parsed.groupoid.comp[a][b]
                for a, b in parsed.groupoid.composable_pairs()} == case["compose"],
           "problem file round-trips the tables")
    expect(parsed.cocycle.values == {k: field.of(v) for k, v in case["cocycle"].items()},
           "problem file round-trips the cocycle")
    expect({n: (d, t, [tuple(r) for r in rows]) for n, (d, t, rows) in parsed.modules.items()}
           == {n: (d, t, [tuple(field.of(v) for v in r) for r in rows])
               for n, (d, t, rows) in case.get("modules", {}).items()},
           "problem file round-trips the modules")


def report_values(text):
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


def check_report(case, command, code, text):
    """Closed-form checks on one cli report."""
    expect(code == 0, f"{command} exits 0 (got {code}): {text.strip()[-200:]}")
    expect(not any(": FAIL" in line for line in text.splitlines()), f"{command} has no FAIL line")
    kv = report_values(text)
    m = len(case["src"])
    x = case["unit"]
    orbit, iso = gen.orbit_of(case, x)
    if command == "validate":
        expect(kv.get("arrows") == str(m), "validate: arrows")
    elif command in ("algebra", "verify"):
        expect(kv.get("dim B") == str(m), f"{command}: dim B equals the number of arrows")
    elif command == "isotropy":
        expect(kv.get(f"dim B({x},{x})") == str(iso), "isotropy: dim B(x,x) equals |G_x|")
    elif command == "induce":
        expect(kv.get("dim") == str(len(orbit) * iso), "induce: dim equals |orbit|*dim V")
    elif command == "restrict":
        expect(kv.get("dim") == str(iso), "restrict: dim Res_x(B delta_x) equals |G_x|")
    elif command == "germs":
        for y in case["units"]:
            want = iso if y in orbit else 0
            expect(kv.get(f"dim V[{y}]") == str(want), f"germs: dim V[{y}] equals |hom({y},{x})|")
    elif (command == "ideals" and "ideal count" in kv
          and case["name"].startswith("pair(") and "+" not in case["name"]):
        expect(kv["ideal count"] == "2", "ideals: a pair groupoid has exactly 2 ideals")


def cli_op(case, path, command, args):
    text, code = cli.run(command, path, args)
    check_report(case, command, code, text)
    return text


# The finding this workload keeps visible: over Q, `verify inclusion` with
# a coboundary twist whose values are not +-1 does not terminate in
# practice.  The prop_5_8 closure in verify_inverse_semigroup meets scalar
# multiples such as 4^k * delta_g, so it grows until its 4096-element
# budget, with a quadratic number of products per step.  It runs once per
# cli-verify run, outside the timed passes, under the per-op limit.
KNOWN_LIMIT_CASE = (("pair(2)", "scaled", None), ("verify", ["inclusion"]))


def problem_path(workdir, index):
    return os.path.join(workdir, f"case{index:03d}.gkd")
