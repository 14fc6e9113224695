"""Problem-file parser, command runner, and deterministic report emitter.

Problem files (extension ``.gkd``) are line oriented with ``#`` comments
and whitespace-separated tokens, sections in this fixed order:

    [field] Q              or:  [field] GF <p>
    [units] <id> ...
    [arrows]               then lines:  <id> <src> <tgt> <inv>
    [compose]              then lines:  <a> <b> <ab>
    [cocycle]              then lines:  <a> <b> <value>   (optional)
    [element] <name>       then lines:  <arrow> <value>   (optional, repeatable)
    [module] <name> <dim> <algebra>    then matrix rows   (optional, repeatable)

Scalars are written "a/b" or "a" over the rationals and as decimal
residues over GF(p).  A module's algebra token is ``B`` (one action
matrix per arrow, in arrow order) or ``isotropy:<unit>`` (one matrix
per canonical coset-section basis element of the isotropy algebra).

Exit codes: 0 all checks passed, 1 a mathematical check failed,
2 malformed input or usage, 3 an internal error (a bug of the package).
Reports are byte deterministic: every iteration is sorted and all
randomness is seeded.
"""

from __future__ import annotations

import argparse
import sys

from .errors import GroupoidAlgError, ProblemFileError, TheoremViolation
from .groupoid import FiniteGroupoid
from .ideals import (
    effros_hahn_check,
    enumerate_ideals,
    ideal_decomposition,
    left_ideals,
    maximal_ideals,
    primitive_ideals,
    question_12_15_experiment,
)
from .induction import (
    imprimitivity_bimodule,
    verify_ind_res_embedding,
    verify_res_ind_roundtrip,
)
from .isotropy import Inclusion
from .linalg import GF, QQ, Field, Subspace
from .modrep import (
    FdModule,
    check_module,
    germ_space,
    intertwines,
    regular_module,
    restriction,
)
from .normalizers import certify_normalizer, verify_inverse_semigroup
from .steinberg import AlgebraElement, convolve, delta, partial_inverse
from .twist import Cocycle, validate_cocycle

# each command and its arguments: <required>, [optional]
USAGE = {
    "validate": "",
    "algebra": "",
    "isotropy": "<x>",
    "induce": "<x> <module>",
    "restrict": "<x> <module>",
    "germs": "<module>",
    "ideals": "",
    "verify": "[suite]",
    "effros-hahn": "",
    "q1215": "",
}

IDEAL_ENUM_FIELDS = (2, 3)
IDEAL_ENUM_MAX_DIM = 12
ENUMERATION_SKIPPED = "skipped (needs GF(2)/GF(3) and dim B <= 12)"


class ProblemFile:
    """Parsed problem data; algebra objects are built on demand."""

    def __init__(self, field, groupoid, cocycle, elements, modules):
        self.field: Field = field
        self.groupoid: FiniteGroupoid = groupoid
        self.cocycle: Cocycle = cocycle
        self.elements: dict = elements  # name -> [(arrow, scalar)]
        self.modules: dict = modules  # name -> (dim, algebra_token, [rows])


def _integer(token, what, line=None) -> int:
    """An integer token of the input; anything else is a ProblemFileError."""
    try:
        return int(token)
    except ValueError:
        raise ProblemFileError(f"{what} must be an integer, got {token!r}", line=line) from None


def _tokenize(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ProblemFileError(f"cannot read {path}: {exc}") from exc
    lines = []
    for no, line in enumerate(raw.split("\n"), start=1):
        body = line.split("#", 1)[0].strip()
        if body:
            lines.append((no, body.split()))
    return lines


_SECTION_ORDER = ["field", "units", "arrows", "compose", "cocycle", "element", "module"]


def parse(path) -> ProblemFile:
    """Parse and structurally validate a problem file."""
    lines = _tokenize(path)
    field = None
    units = None
    arrow_rows = []
    compose_rows = []
    cocycle_rows = []
    elements = {}
    modules = {}
    section = None
    section_arg = None
    order_pos = -1

    def fail(msg, no):
        raise ProblemFileError(msg, line=no)

    for no, toks in lines:
        if toks[0].startswith("[") and toks[0].endswith("]"):
            name = toks[0][1:-1]
            if name not in _SECTION_ORDER:
                fail(f"unknown section [{name}]", no)
            pos = _SECTION_ORDER.index(name)
            repeatable = name in ("element", "module")
            if pos < order_pos or (pos == order_pos and not repeatable):
                fail(f"section [{name}] out of order", no)
            order_pos = pos
            section = name
            if name == "field":
                if toks[1:] == ["Q"]:
                    field = QQ
                elif toks[1:2] == ["GF"]:
                    if len(toks) != 3:
                        fail("[field] GF needs a prime", no)
                    try:
                        field = GF(_integer(toks[2], "prime", no))
                    except ValueError as exc:
                        fail(str(exc), no)
                else:
                    fail("field must be Q or GF <p>", no)
            elif name == "units":
                units = [_integer(t, "unit", no) for t in toks[1:]]
            elif name == "element":
                if len(toks) != 2:
                    fail("[element] needs a name", no)
                section_arg = toks[1]
                if section_arg in elements:
                    fail(f"duplicate element name {section_arg}", no)
                elements[section_arg] = []
            elif name == "module":
                if len(toks) != 4:
                    fail("[module] needs: name dim algebra", no)
                section_arg = toks[1]
                if section_arg in modules:
                    fail(f"duplicate module name {section_arg}", no)
                dim = _integer(toks[2], "module dim", no)
                if dim < 0:
                    fail(f"module dim must be non-negative, got {dim}", no)
                modules[section_arg] = (dim, toks[3], [])
            continue
        if section is None:
            fail("content before any section", no)
        if field is None:
            fail("missing [field]", no)
        if section == "arrows":
            if len(toks) != 4:
                fail("arrow line needs: id src tgt inv", no)
            arrow_rows.append((no, [_integer(t, "arrow id", no) for t in toks]))
        elif section == "compose":
            if len(toks) != 3:
                fail("compose line needs: a b ab", no)
            compose_rows.append((no, [_integer(t, "arrow id", no) for t in toks]))
        elif section == "cocycle":
            if len(toks) != 3:
                fail("cocycle line needs: a b value", no)
            cocycle_rows.append((no, toks))
        elif section == "element":
            if len(toks) != 2:
                fail("element line needs: arrow value", no)
            elements[section_arg].append((no, _integer(toks[0], "arrow id", no), toks[1]))
        elif section == "module":
            dim, token, rows = modules[section_arg]
            rows.append((no, toks))
        else:
            fail(f"unexpected content in section [{section}]", no)

    if field is None:
        raise ProblemFileError("missing [field]")
    if units is None:
        raise ProblemFileError("missing [units]")
    if not arrow_rows:
        raise ProblemFileError("missing [arrows]")

    m = len(arrow_rows)
    src = [None] * m
    tgt = [None] * m
    inv = [None] * m
    seen = set()
    for no, (aid, s, t, i) in arrow_rows:
        if not (0 <= aid < m):
            raise ProblemFileError(f"arrow id {aid} out of range 0..{m - 1}", line=no)
        if aid in seen:
            raise ProblemFileError(f"duplicate arrow id {aid}", line=no)
        seen.add(aid)
        for ref in (s, t, i):
            if not (0 <= ref < m):
                raise ProblemFileError(f"dangling arrow reference {ref}", line=no)
        src[aid], tgt[aid], inv[aid] = s, t, i
    for u in units:
        if not (0 <= u < m):
            raise ProblemFileError(f"dangling unit reference {u}")
    compose = {}
    for no, (a, b, ab) in compose_rows:
        for ref in (a, b, ab):
            if not (0 <= ref < m):
                raise ProblemFileError(f"dangling arrow reference {ref}", line=no)
        if (a, b) in compose:
            raise ProblemFileError(f"duplicate composition ({a}, {b})", line=no)
        compose[(a, b)] = ab
    try:
        gpd = FiniteGroupoid.from_tables(units, src, tgt, inv, compose)
    except GroupoidAlgError as exc:
        raise ProblemFileError(str(exc)) from exc

    scalars = {}  # each distinct scalar token parsed once; one that fails is not kept

    def scalar(token):
        if token not in scalars:
            scalars[token] = field.parse(token)
        return scalars[token]

    cvals = {}
    for no, (a, b, val) in cocycle_rows:
        a, b = _integer(a, "arrow id", no), _integer(b, "arrow id", no)
        try:
            cvals[(a, b)] = scalar(val)
        except (ValueError, ZeroDivisionError) as exc:
            raise ProblemFileError(f"bad scalar {val!r}: {exc}", line=no) from exc
    try:
        cocycle = Cocycle(gpd, field, cvals)
    except GroupoidAlgError as exc:
        raise ProblemFileError(str(exc)) from exc

    parsed_elements = {}
    for name, entries in elements.items():
        coeffs = []
        for no, arrow, val in entries:
            if not (0 <= arrow < m):
                raise ProblemFileError(f"dangling arrow reference {arrow}", line=no)
            try:
                coeffs.append((arrow, scalar(val)))
            except (ValueError, ZeroDivisionError) as exc:
                raise ProblemFileError(f"bad scalar {val!r}: {exc}", line=no) from exc
        parsed_elements[name] = coeffs

    parsed_modules = {}
    for name, (dim, token, rows) in modules.items():
        mat_rows = []
        for no, toks in rows:
            if len(toks) != dim:
                raise ProblemFileError(
                    f"module {name}: row has {len(toks)} entries, expected {dim}", line=no
                )
            try:
                mat_rows.append(tuple(map(scalar, toks)))
            except (ValueError, ZeroDivisionError) as exc:
                raise ProblemFileError(f"bad scalar in module {name}", line=no) from exc
        parsed_modules[name] = (dim, token, mat_rows)

    return ProblemFile(field, gpd, cocycle, parsed_elements, parsed_modules)


def format_problem(field, groupoid, cocycle, elements=None, modules=None) -> str:
    """Serialize problem data back to the file format (used by fixtures)."""
    out = []
    if field.p is None:
        out.append("[field] Q")
    else:
        out.append(f"[field] GF {field.p}")
    out.append("[units] " + " ".join(str(u) for u in groupoid.units))
    out.append("[arrows]")
    for a in groupoid.arrows():
        out.append(f"{a} {groupoid.src[a]} {groupoid.tgt[a]} {groupoid.inv[a]}")
    out.append("[compose]")
    for a, b in groupoid.composable_pairs():
        out.append(f"{a} {b} {groupoid.comp[a][b]}")
    if cocycle is not None and cocycle.values:
        out.append("[cocycle]")
        for (a, b), v in sorted(cocycle.values.items()):
            out.append(f"{a} {b} {field.format(v)}")
    for name, coeffs in sorted((elements or {}).items()):
        out.append(f"[element] {name}")
        for arrow, v in sorted(coeffs):
            out.append(f"{arrow} {field.format(v)}")
    for name, (dim, token, mats) in sorted((modules or {}).items()):
        out.append(f"[module] {name} {dim} {token}")
        for row in mats:
            out.append(" ".join(field.format(v) for v in row))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# report assembly


class Report:
    def __init__(self, command):
        self.lines = ["== groupoid algebra report =="]
        self.lines.append(f"command: {command}")
        self.failed = False

    def section(self, name):
        self.lines.append(f"-- {name} --")

    def kv(self, key, value):
        self.lines.append(f"{key}: {value}")

    def check(self, check_id, ok, detail=""):
        status = "PASS" if ok else "FAIL"
        if not ok:
            self.failed = True
        suffix = f" {detail}" if detail else ""
        self.lines.append(f"{check_id}: {status}{suffix}")

    def text(self):
        return "\n".join(self.lines) + "\n"


def _build_element(problem: ProblemFile, name) -> AlgebraElement:
    coeffs = dict(problem.elements[name])
    return AlgebraElement(problem.groupoid, problem.cocycle, coeffs)


def _build_module(problem: ProblemFile, inclusion: Inclusion, name) -> FdModule:
    if name not in problem.modules:
        raise ProblemFileError(f"unknown module {name!r}")
    dim, token, rows = problem.modules[name]
    if token == "B":
        algebra = inclusion.B
    elif token.startswith("isotropy:"):
        x = _integer(token.split(":", 1)[1], "unit")
        if not problem.groupoid.is_unit(x):
            raise ProblemFileError(f"module {name}: {x} is not a unit")
        algebra = inclusion.isotropy_data(x, x).presentation
    else:
        raise ProblemFileError(f"unknown algebra token {token!r}")
    expected = algebra.dim * dim
    if len(rows) != expected:
        raise ProblemFileError(
            f"module {name}: got {len(rows)} rows, expected {expected}"
        )
    mats = [rows[i * dim:(i + 1) * dim] for i in range(algebra.dim)]
    try:
        return FdModule(algebra, mats, name)
    except ValueError as exc:
        raise ProblemFileError(f"module {name}: {exc}") from exc


def _module_axioms_hold(V: FdModule, report: Report) -> bool:
    """Report the module_axioms check of V; True when it passes."""
    violation = check_module(V)
    report.check("module_axioms", violation is None, str(violation) if violation else "")
    return violation is None


def _validated_inclusion(problem: ProblemFile, report: Report):
    violation = problem.groupoid.validate()
    if violation is not None:
        report.check("groupoid_axioms", False, str(violation))
        return None
    violation = validate_cocycle(problem.cocycle)
    if violation is not None:
        report.check("def_2_5", False, str(violation))
        return None
    return Inclusion(problem.groupoid, problem.cocycle)


# ---------------------------------------------------------------------------
# commands


def cmd_validate(problem: ProblemFile, args, report: Report):
    gpd = problem.groupoid
    report.section("tables")
    report.kv("arrows", gpd.n_arrows)
    report.kv("units", " ".join(str(u) for u in gpd.units))
    violation = gpd.validate()
    report.check("groupoid_axioms", violation is None,
                 str(violation) if violation else "")
    if violation is not None:
        return
    cviol = validate_cocycle(problem.cocycle)
    report.check("def_2_5", cviol is None, str(cviol) if cviol else "")
    if cviol is None:
        for name in sorted(problem.elements):
            el = _build_element(problem, name)
            report.kv(f"element {name} support",
                      " ".join(str(a) for a in el.support()))


def cmd_algebra(problem: ProblemFile, args, report: Report):
    inclusion = _validated_inclusion(problem, report)
    if inclusion is None:
        return
    report.section("convolution algebra")
    report.kv("dim B", inclusion.m)
    report.check("prop_4_6", inclusion.B.check_associativity() is None)
    report.check("unit", inclusion.B.check_unit())
    report.kv("center dim", inclusion.B.center().dim)


def cmd_isotropy(problem: ProblemFile, args, report: Report):
    x = _integer(args[0], "unit")
    inclusion = _validated_inclusion(problem, report)
    if inclusion is None:
        return
    gpd = problem.groupoid
    if not gpd.is_unit(x):
        raise ProblemFileError(f"{x} is not a unit")
    report.section("point spaces")
    jx = inclusion.point_ideal(x)
    jb, bj, L = inclusion.left_right_spaces(x, x)
    data = inclusion.isotropy_data(x, x)
    report.kv("dim J_x", jx.basis.dim)
    report.kv("dim J_xB", jb.dim)
    report.kv("dim BJ_x", bj.dim)
    report.kv("dim L", L.dim)
    report.kv("dim C", data.C.dim)
    report.kv("dim H", data.H.dim)
    report.kv(f"dim B({x},{x})", data.dim)
    # isotropy_data raises TheoremViolation unless C cap L = H and C + L = B
    report.check("lemma_5_18", True)
    report.check("thm_5_28", True)
    report.section("isotropy algebra")
    for i in range(data.dim):
        for j in range(data.dim):
            coords = data.presentation.table[i][j]
            entry = " ".join(problem.field.format(c) for c in coords)
            report.kv(f"c{i}*c{j}", entry)
    cert = inclusion.identify_with_twisted_group_algebra(x)
    report.check(
        "thm_13_6", True,
        f"dim={data.dim} isotropy_arrows=" + ",".join(str(g) for g in cert.members),
    )


def cmd_induce(problem: ProblemFile, args, report: Report):
    x = _integer(args[0], "unit")
    if not problem.groupoid.is_unit(x):
        raise ProblemFileError(f"{x} is not a unit")
    inclusion = _validated_inclusion(problem, report)
    if inclusion is None:
        return
    V = _build_module(problem, inclusion, args[1])
    if V.algebra.rows != inclusion.isotropy_data(x, x).presentation.rows:
        raise ProblemFileError(f"induce expects a module over isotropy:{x}")
    if not _module_axioms_hold(V, report):
        return
    bim = imprimitivity_bimodule(inclusion, x)
    report.section("induced module")
    report.kv("orbit", " ".join(str(y) for y in bim.orbit))
    report.kv("free basis sections", " ".join(f"{y}:{bim.sections[y]}" for y in bim.orbit))
    cert = verify_res_ind_roundtrip(inclusion, x, V)
    report.kv("dim", cert.induced_dim)
    report.check("thm_8_4", True, f"dim={cert.module_dim}")


def cmd_restrict(problem: ProblemFile, args, report: Report):
    x = _integer(args[0], "unit")
    if not problem.groupoid.is_unit(x):
        raise ProblemFileError(f"{x} is not a unit")
    inclusion = _validated_inclusion(problem, report)
    if inclusion is None:
        return
    V = _build_module(problem, inclusion, args[1])
    if V.algebra is not inclusion.B:
        raise ProblemFileError("restrict expects a module over B")
    if not _module_axioms_hold(V, report):
        return
    emb = verify_ind_res_embedding(inclusion, V, x)
    report.section("restriction")
    report.kv("dim", emb.restriction_dim)
    if emb.restriction_dim:
        report.check("thm_10_1", True,
                     f"induced_dim={emb.induced_dim} image_dim={emb.image_dim} onto={'yes' if emb.onto else 'no'}")


def cmd_germs(problem: ProblemFile, args, report: Report):
    inclusion = _validated_inclusion(problem, report)
    if inclusion is None:
        return
    V = _build_module(problem, inclusion, args[0])
    if V.algebra is not inclusion.B:
        raise ProblemFileError("germs expects a module over B")
    if not _module_axioms_hold(V, report):
        return
    report.section("germ spaces")
    nonzero = []
    for x in problem.groupoid.units:
        g = germ_space(inclusion, V, x)
        report.kv(f"dim V[{x}]", g.quotient.dim)
        if g.quotient.dim:
            nonzero.append(x)
    report.check("prop_12_7", V.dim == 0 or bool(nonzero),
                 "no nonzero germ" if V.dim and not nonzero else "")


def _ideal_enumeration_allowed(inclusion: Inclusion, report: Report) -> bool:
    """Whether the ideals of B may be enumerated; reports the skip when not."""
    if inclusion.field.p in IDEAL_ENUM_FIELDS and inclusion.m <= IDEAL_ENUM_MAX_DIM:
        return True
    report.kv("enumeration", ENUMERATION_SKIPPED)
    return False


def _report_thm_12_14(inclusion: Inclusion, report: Report, list_ideals: bool):
    """Theorem 12.14 on every proper ideal (i) and every primitive ideal (ii):
    one ``effros_hahn_check`` per proper ideal and no simple module built.
    The primitive ideals are the maximal ones, taken from the proper ideals,
    so none can be missing from them."""
    proper = [i for i in enumerate_ideals(inclusion, left_ideals(inclusion)) if i.dim < inclusion.m]
    primitive = {ideal.basis for ideal in maximal_ideals(proper)}
    ok_i = ok_ii = True
    for i, ideal in enumerate(proper):
        check = effros_hahn_check(inclusion, ideal)
        ok_i = check.ok and ok_i
        if ideal.basis in primitive:
            ok_ii = check.single_unit is not None and ok_ii
        if list_ideals:
            report.kv(f"ideal {i} dim", ideal.dim)
    report.check("thm_12_14_i", ok_i, f"ideals={len(proper)}")
    report.check("thm_12_14_ii", ok_ii, f"primitive={len(primitive)}")


def cmd_ideals(problem: ProblemFile, args, report: Report):
    inclusion = _validated_inclusion(problem, report)
    if inclusion is None:
        return
    report.section("ideals")
    # Prop 12.12 on the regular module B/0, whose annihilator is 0
    per_unit = ideal_decomposition(inclusion, Subspace.zero(inclusion.m, inclusion.field))
    report.check("prop_12_12", True, "ann_dim=0")
    for x in sorted(per_unit):
        report.kv(f"induced ideal dim at {x}", per_unit[x].dim)
    if not _ideal_enumeration_allowed(inclusion, report):
        return
    ideals = enumerate_ideals(inclusion, left_ideals(inclusion))
    report.kv("ideal count", len(ideals))
    for i, ideal in enumerate(ideals):
        report.kv(f"ideal {i} dim", ideal.dim)


def cmd_effros_hahn(problem: ProblemFile, args, report: Report):
    inclusion = _validated_inclusion(problem, report)
    if inclusion is None:
        return
    report.section("induced-ideal decomposition")
    if _ideal_enumeration_allowed(inclusion, report):
        _report_thm_12_14(inclusion, report, list_ideals=True)


def cmd_q1215(problem: ProblemFile, args, report: Report):
    inclusion = _validated_inclusion(problem, report)
    if inclusion is None:
        return
    report.section("induced primitivity")
    if not _ideal_enumeration_allowed(inclusion, report):
        return
    prims = primitive_ideals(inclusion, left_ideals(inclusion))
    all_yes = True
    for i, (ideal, witness) in enumerate(prims):
        rep = question_12_15_experiment(inclusion, ideal, witness)
        all_yes = all_yes and rep.answer == "YES"
        report.kv(
            f"primitive {i}",
            f"dim={ideal.dim} answer={rep.answer} unit={rep.unit} "
            f"inducing_dim={rep.inducing_ideal_dim}",
        )
    report.check("q_12_15", all_yes, f"primitive={len(prims)} (finite discrete case)")


def _verify_inclusion_suite(problem, inclusion, report: Report):
    gpd = problem.groupoid
    report.section("inclusion")
    report.check("prop_4_6", inclusion.B.check_associativity() is None)
    certs = []
    for gamma in gpd.arrows():
        d = delta(gpd, problem.cocycle, gamma)
        certs.append(certify_normalizer(d, partial_inverse(d)))
    sem = verify_inverse_semigroup(certs)
    report.check("prop_5_8", sem.ok, f"closure={len(sem.elements)}")
    for cert, gamma in zip(certs, gpd.arrows()):
        pairs = " ".join(f"{a} -> {b}" for a, b in sorted(cert.beta.mapping.items()))
        report.kv(f"beta {gpd.arrow_names[gamma]}", pairs)
    # A nonzero product of two arrow deltas is w delta_ab, a star s delta_(gamma^-1):
    # a certified pair scaled by a nonzero scalar (the four laws are homogeneous,
    # partial inverses on bisections unique), so its beta is that of its arrow's
    # certificate, as (c^-1 n*) 1_u (c n) = n* 1_u n
    beta_ok = all(certs[gpd.inv[g]].beta == c.beta.inverse() for g, c in zip(gpd.arrows(), certs))
    for c1 in certs:
        for c2 in certs:
            prod = convolve(c1.n, c2.n).coeffs
            if len(prod) > 1:
                raise TheoremViolation("a product of two arrow deltas is not one scaled delta")
            beta_ok = all(certs[a].beta == c1.beta.compose(c2.beta) for a in prod) and beta_ok
    report.check("prop_5_10", beta_ok)
    # isotropy_data raises TheoremViolation unless C + L = B and C cap L = H
    for x in gpd.units:
        for y in gpd.units:
            inclusion.isotropy_data(y, x)
    # identify_with_twisted_group_algebra raises TheoremViolation unless
    # dim B(x,x) = |G_x| and the structure constants match
    for x in gpd.units:
        inclusion.identify_with_twisted_group_algebra(x)
    report.check("thm_5_28", True)
    report.check("lemma_5_18", True)
    report.check("thm_13_6", True)


def bimodule_as_left_module(inclusion, bim) -> FdModule:
    """M_x as a left B-module (the left action's sparse rows on the quotient)."""
    return FdModule.from_entries(inclusion.B, bim.left_action, f"M{bim.x}")


def _verify_bimodule_suite(problem, inclusion, report: Report):
    gpd = problem.groupoid
    report.section("bimodule")
    res_ok = True
    for x in gpd.units:
        # the constructor raises TheoremViolation unless M_x is free of rank |orbit|
        bim = imprimitivity_bimodule(inclusion, x)
        res = restriction(inclusion, bimodule_as_left_module(inclusion, bim), x)
        reg = regular_module(bim.data.presentation)
        # mu's columns over Res_x M_x: an explicit isomorphism from the regular
        # module.  Column j is the basis vector at position mu[j] (0 at None)
        one, zero, d = problem.field.one(), problem.field.zero(), bim.quotient.dim
        cols = [res.subspace.membership(tuple(one if r == p else zero for r in range(d)))
                for p in bim.mu]
        res_ok = (res_ok and None not in cols
                  and res.module.dim == reg.dim == Subspace.span(cols, reg.dim, problem.field).dim
                  and intertwines(tuple(zip(*cols)), reg.entries, res.module.entries, problem.field))
    report.check("cor_6_13", True)
    report.check("prop_7_5", res_ok)


def _verify_roundtrip_suite(problem, inclusion, report: Report):
    gpd = problem.groupoid
    report.section("roundtrip")
    for x in gpd.units:
        data = inclusion.isotropy_data(x, x)
        reg = regular_module(data.presentation)
        verify_res_ind_roundtrip(inclusion, x, reg)
    report.check("thm_8_4", True, f"units={len(gpd.units)}")
    regB = regular_module(inclusion.B)
    for x in gpd.units:
        verify_ind_res_embedding(inclusion, regB, x)
    report.check("thm_10_1", True, f"units={len(gpd.units)}")


def _verify_ideal_suite(problem, inclusion, report: Report):
    report.section("decomposition")
    # Prop 12.12 on the regular module B/0, whose annihilator is 0
    ideal_decomposition(inclusion, Subspace.zero(inclusion.m, inclusion.field))
    report.check("prop_12_12", True)
    if _ideal_enumeration_allowed(inclusion, report):
        _report_thm_12_14(inclusion, report, list_ideals=False)


VERIFY_SUITES = ("all", "inclusion", "bimodule", "roundtrip", "ideals")


def cmd_verify(problem: ProblemFile, args, report: Report):
    suite = args[0] if args else "all"
    if suite not in VERIFY_SUITES:
        raise ProblemFileError(f"unknown suite {suite!r}; choose from {VERIFY_SUITES}")
    inclusion = _validated_inclusion(problem, report)
    if inclusion is None:
        return
    report.kv("dim B", inclusion.m)
    report.kv("center dim", inclusion.B.center().dim)
    if suite in ("all", "inclusion"):
        _verify_inclusion_suite(problem, inclusion, report)
    if suite in ("all", "bimodule"):
        _verify_bimodule_suite(problem, inclusion, report)
    if suite in ("all", "roundtrip"):
        _verify_roundtrip_suite(problem, inclusion, report)
    if suite in ("all", "ideals"):
        _verify_ideal_suite(problem, inclusion, report)


_DISPATCH = {
    "validate": cmd_validate,
    "algebra": cmd_algebra,
    "isotropy": cmd_isotropy,
    "induce": cmd_induce,
    "restrict": cmd_restrict,
    "germs": cmd_germs,
    "ideals": cmd_ideals,
    "verify": cmd_verify,
    "effros-hahn": cmd_effros_hahn,
    "q1215": cmd_q1215,
}


def run(command, problem_path, args=()) -> tuple[str, int]:
    """Run one command against a problem file; returns (report text, exit code)."""
    report = Report(" ".join([command, *[str(a) for a in args]]))
    try:
        problem = parse(problem_path)
        if command not in _DISPATCH:
            return f"unknown command: {command}\n", 2
        usage = USAGE[command]
        if not usage.count("<") <= len(args) <= len(usage.split()):
            raise ProblemFileError(f"usage: {command} {usage}".rstrip())
        _DISPATCH[command](problem, list(args), report)
    except ProblemFileError as exc:
        return f"input error: {exc}\n", 2
    except GroupoidAlgError as exc:
        report.check("internal_consistency", False, str(exc))
        return report.text(), 1
    return report.text(), 1 if report.failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="groupoidalg",
        description="exact computations with twisted convolution algebras of "
                    "finite groupoids",
    )
    parser.add_argument("command", choices=USAGE)
    parser.add_argument("problem", help="path to a .gkd problem file")
    parser.add_argument("args", nargs="*", help="command arguments")
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        text, code = run(ns.command, ns.problem, ns.args)
    except Exception as exc:  # a bug of the package, not a verdict on the input
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 3
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
