"""Problem-file parsing, command execution, exit codes, determinism."""

import ast
import dataclasses
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import groupoidalg
from groupoidalg import cli, ideals, induction, modrep
from groupoidalg.cli import format_problem, main, parse, run
from groupoidalg.errors import ProblemFileError, TheoremViolation
from groupoidalg.groupoid import pair_groupoid
from groupoidalg.induction import imprimitivity_bimodule
from groupoidalg.isotropy import Inclusion
from groupoidalg.linalg import GF, QQ, Field, Subspace, dense_rows, identity_matrix, mat_mul
from groupoidalg.modrep import (
    FdModule,
    Restriction,
    find_module_isomorphism,
    regular_module,
    restriction,
)
from groupoidalg.steinberg import presentation_of_B
from groupoidalg.twist import Cocycle, validate_cocycle

from conftest import idempotent_unit_modules, oracle_battery

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def write(tmp_path, text, name="test.gkd"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_parse_empty_file_missing_field(tmp_path):
    path = write(tmp_path, "")
    with pytest.raises(ProblemFileError, match="missing \\[field\\]"):
        parse(path)


def test_parse_pair2_fixture_roundtrip():
    problem = parse(str(FIXTURES / "pair2.gkd"))
    expected = pair_groupoid(2)
    g = problem.groupoid
    assert g.n_arrows == expected.n_arrows
    assert g.units == expected.units
    assert g.src == expected.src
    assert g.tgt == expected.tgt
    assert g.inv == expected.inv
    assert g.comp == expected.comp
    assert g.validate() is None


def test_format_parse_roundtrip(tmp_path):
    g = pair_groupoid(3)
    c = Cocycle.trivial(g, GF(5))
    text = format_problem(GF(5), g, c)
    problem = parse(write(tmp_path, text))
    assert problem.groupoid.comp == g.comp
    assert problem.field.p == 5


def test_zero_cocycle_value_is_input_error(tmp_path):
    base = format_problem(QQ, pair_groupoid(2), None)
    path = write(tmp_path, base + "[cocycle]\n1 2 0\n")
    text, code = run("validate", path)
    assert code == 2
    assert "zero" in text.lower() or "0" in text


@pytest.mark.parametrize("line", ["99 0 2", "0 -4 1", "-4 -4 3"],
                         ids=["past-the-end", "negative-first", "negative-both"])
def test_cocycle_arrow_out_of_range_is_input_error(tmp_path, line):
    """pair2 has arrows 0..3.  A [cocycle] pair naming another id is bad
    input: not an IndexError, nor an alias of a real arrow (-4 is arrow 0
    from the end), nor a failed cocycle identity."""
    text = (FIXTURES / "pair2.gkd").read_text(encoding="utf-8")
    out, code = run("validate", write(tmp_path, text + f"[cocycle]\n{line}\n"))
    assert code == 2, out
    assert out.startswith("input error:") and "out of range" in out, out


def test_parse_reads_each_scalar_token_once(tmp_path, monkeypatch):
    """Each distinct scalar token of a file is parsed once, in the cocycle,
    element and module sections alike; a token that fails is not kept, so
    a bad scalar on two lines is reported at the first."""
    base = format_problem(QQ, pair_groupoid(2), None)
    tokens, parse_scalar = [], Field.parse
    monkeypatch.setattr(Field, "parse", lambda self, text: tokens.append(text) or parse_scalar(self, text))
    text = base + "[cocycle]\n1 2 1\n[element] e\n0 1/2\n3 1/2\n[module] M 2 B\n" + "1/2 0\n0 1\n" * 4
    problem = parse(write(tmp_path, text))
    assert sorted(tokens) == ["0", "1", "1/2"]
    assert problem.elements["e"] == [(0, Fraction(1, 2)), (3, Fraction(1, 2))]
    assert problem.modules["M"][2] == [(Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(1))] * 4
    bad = base + "[cocycle]\n1 2 1/x\n2 1 1/x\n"
    first = bad.splitlines().index("1 2 1/x") + 1
    with pytest.raises(ProblemFileError, match=f"^line {first}: bad scalar '1/x'"):
        parse(write(tmp_path, bad))


def test_unknown_section_reports_line(tmp_path):
    path = write(tmp_path, "[field] Q\n[wat]\n")
    with pytest.raises(ProblemFileError, match="unknown section"):
        parse(path)


def test_sections_out_of_order(tmp_path):
    path = write(tmp_path, "[units] 0\n[field] Q\n")
    with pytest.raises(ProblemFileError, match="out of order"):
        parse(path)


def test_dangling_reference(tmp_path):
    path = write(
        tmp_path,
        "[field] Q\n[units] 0\n[arrows]\n0 0 0 7\n",
    )
    with pytest.raises(ProblemFileError, match="dangling|out of range"):
        parse(path)


def test_duplicate_arrow_id(tmp_path):
    path = write(
        tmp_path,
        "[field] Q\n[units] 0\n[arrows]\n0 0 0 0\n0 0 0 0\n",
    )
    with pytest.raises(ProblemFileError, match="duplicate"):
        parse(path)


def test_duplicate_unit_is_input_error(tmp_path):
    """A repeated unit id is bad input, not a failed check."""
    original = (FIXTURES / "pair2_gf3.gkd").read_text(encoding="utf-8")
    assert "\n[units] 0 3\n" in original
    path = write(tmp_path, original.replace("\n[units] 0 3\n", "\n[units] 0 0 3\n", 1))
    for command in ("validate", "verify"):
        assert run(command, path) == ("input error: duplicate unit id 0\n", 2)


def test_validate_corrupted_table_exits_one(tmp_path):
    g = pair_groupoid(2)
    text = format_problem(QQ, g, None)
    # corrupt one inv entry
    lines = text.split("\n")
    idx = lines.index("[arrows]") + 2
    toks = lines[idx].split()
    toks[3] = str((int(toks[3]) + 3) % 4)
    lines[idx] = " ".join(toks)
    path = write(tmp_path, "\n".join(lines))
    out, code = run("validate", path)
    assert code == 1
    assert "groupoid_axioms: FAIL" in out


def test_invalid_cocycle_identity_exits_one(tmp_path):
    original = (FIXTURES / "v4quat.gkd").read_text(encoding="utf-8")
    # flip one sign at a non-unit pair: still parseable, no longer a cocycle
    assert "\n1 1 -1\n" in original
    path = write(tmp_path, original.replace("\n1 1 -1\n", "\n1 1 1\n", 1))
    out, code = run("validate", path)
    assert code == 1
    assert "def_2_5: FAIL" in out
    assert "cocycle-identity" in out


def test_verify_all_pair2():
    out, code = run("verify", str(FIXTURES / "pair2.gkd"), ["all"])
    assert code == 0
    assert "dim B: 4" in out
    assert "center dim: 1" in out
    assert "thm_8_4: PASS" in out
    assert "FAIL" not in out


def test_isotropy_command_on_gb():
    out, code = run("isotropy", str(FIXTURES / "gb3_sign.gkd"), ["0"])
    assert code == 0
    assert "dim B(0,0): 2" in out
    assert "thm_13_6: PASS" in out


def test_unknown_command():
    out, code = run("nonsense", str(FIXTURES / "pair2.gkd"))
    assert code == 2
    assert out == "unknown command: nonsense\n"


@pytest.mark.parametrize("command,args", [
    ("algebra", ["7"]), ("validate", ["x", "y"]), ("verify", ["all", "junk"]),
    ("ideals", ["1"]), ("q1215", ["z"]), ("effros-hahn", ["1"]), ("isotropy", []),
    ("isotropy", ["0", "1"]), ("induce", ["0"]), ("restrict", ["0", "m", "n"]), ("germs", []),
])
def test_wrong_argument_count_is_input_error(command, args):
    out, code = run(command, str(FIXTURES / "pair2.gkd"), args)
    usage = f"{command} {cli.USAGE[command]}".rstrip()
    assert (code, out) == (2, f"input error: usage: {usage}\n")


def test_internal_keyerror_is_not_an_unknown_command(monkeypatch):
    """A KeyError raised inside a handler is a bug, not bad input."""
    def broken(problem, args, report):
        raise KeyError("internal")

    monkeypatch.setitem(cli._DISPATCH, "validate", broken)
    with pytest.raises(KeyError, match="internal"):
        run("validate", str(FIXTURES / "pair2.gkd"))


def test_isotropy_data_violation_fails_verify_inclusion_and_isotropy(monkeypatch):
    """The regularity and C cap L = H checks live in Inclusion.isotropy_data;
    the CLI reports their TheoremViolation as a failed internal check."""
    def broken(self, I, J):
        raise TheoremViolation("H = C intersect L failed for the given ideal pair")

    monkeypatch.setattr(Inclusion, "isotropy_data_for_ideals", broken)
    for command, args in [("verify", ["inclusion"]), ("isotropy", ["0"])]:
        out, code = run(command, str(FIXTURES / "pair2.gkd"), args)
        assert code == 1, out
        assert out.endswith(
            "internal_consistency: FAIL H = C intersect L failed for the given ideal pair\n"
        )


def test_internal_valueerror_is_not_an_input_error(monkeypatch):
    """A ValueError raised inside a handler is a bug, not bad input."""
    def broken(problem, args, report):
        raise ValueError("bug inside handler")

    monkeypatch.setitem(cli._DISPATCH, "validate", broken)
    with pytest.raises(ValueError, match="bug inside handler"):
        run("validate", str(FIXTURES / "pair2.gkd"))


def test_non_integer_unit_is_input_error():
    out, code = run("isotropy", str(FIXTURES / "pair2.gkd"), ["abc"])
    assert code == 2
    assert out.startswith("input error:")


@pytest.mark.parametrize("line", ["[field]", "[field] Q extra", "[field] Q GF 5"])
def test_malformed_field_line_is_input_error(tmp_path, line):
    text = (FIXTURES / "pair2.gkd").read_text(encoding="utf-8")
    assert "\n[field] Q\n" in text
    out, code = run("validate", write(tmp_path, text.replace("[field] Q", line, 1)))
    assert code == 2
    assert out.startswith("input error:")


@pytest.mark.parametrize("prime", [str(2 * 10**399), "1000000016000000063"])
def test_bad_prime_field_is_a_prompt_input_error(tmp_path, prime):
    """A 400-digit even p and the product 1000000007 * 1000000009 are
    refused at once, not by trial division."""
    text = (FIXTURES / "pair2.gkd").read_text(encoding="utf-8")
    path = write(tmp_path, text.replace("[field] Q", f"[field] GF {prime}", 1))
    start = time.perf_counter()
    out, code = run("validate", path)
    assert time.perf_counter() - start < 5
    assert code == 2
    assert out.startswith("input error:")


def test_largest_prime_below_two_to_the_64_validates(tmp_path):
    text = (FIXTURES / "pair2.gkd").read_text(encoding="utf-8")
    out, code = run("validate", write(tmp_path, text.replace("[field] Q", f"[field] GF {2**64 - 59}", 1)))
    assert code == 0, out


def test_validate_survives_every_truncated_line(tmp_path):
    """For every fixture, every line and every proper token prefix of it
    (the empty prefix deletes the line), validate exits 0, 1 or 2."""
    runs = 0
    for fixture in sorted(FIXTURES.glob("*.gkd")):
        lines = fixture.read_text(encoding="utf-8").split("\n")
        for no, line in enumerate(lines):
            tokens = line.split()
            for n in range(len(tokens)):
                text = "\n".join(lines[:no] + [" ".join(tokens[:n])] + lines[no + 1:])
                _, code = run("validate", write(tmp_path, text))
                assert code in (0, 1, 2), (fixture.name, no + 1, tokens[:n])
                runs += 1
    assert runs > 100


def test_unknown_suite():
    out, code = run("verify", str(FIXTURES / "pair2.gkd"), ["wobble"])
    assert code == 2


def test_missing_file():
    out, code = run("validate", "/nonexistent/path.gkd")
    assert code == 2


def test_reports_are_byte_deterministic():
    for fixture in sorted(FIXTURES.glob("*.gkd")):
        a, code_a = run("verify", str(fixture), ["all"])
        b, code_b = run("verify", str(fixture), ["all"])
        assert a == b
        assert code_a == code_b


def test_element_section_and_validate(tmp_path):
    g = pair_groupoid(2)
    text = format_problem(QQ, g, None)
    path = write(tmp_path, text + "[element] f\n1 2/3\n2 -1\n")
    out, code = run("validate", path)
    assert code == 0
    assert "element f support: 1 2" in out


def module_problem(tmp_path):
    """pair(2) over GF(3) with a module over B(0, 0) and one over B."""
    text = format_problem(GF(3), pair_groupoid(2), None)
    # the isotropy algebra at unit 0 is one dimensional: the scalar field
    text += "[module] triv 1 isotropy:0\n" + "1\n"
    # column module over B: action of arrow (i,j) maps e_j to e_i
    rows = []
    for a in range(4):
        i, j = divmod(a, 2)
        mat = [[0, 0], [0, 0]]
        mat[i][j] = 1
        rows.extend(" ".join(str(v) for v in r) for r in mat)
    text += "[module] col 2 B\n" + "\n".join(rows) + "\n"
    return write(tmp_path, text)


def test_module_commands(tmp_path):
    path = module_problem(tmp_path)
    out, code = run("induce", path, ["0", "triv"])
    assert code == 0
    assert "thm_8_4: PASS" in out

    out, code = run("restrict", path, ["0", "col"])
    assert code == 0
    assert "dim: 1" in out
    assert "thm_10_1: PASS" in out

    out, code = run("germs", path, ["col"])
    assert code == 0
    assert "prop_12_7: PASS" in out


def test_rational_module_axioms(tmp_path):
    """The column module of pair(2) over Q in the basis of P = [[2, 1/2],
    [1/3, 1]] has entries with denominators 11, 22 and 33: it passes
    module_axioms, and with 1 added at entry (1, 0) of its last matrix it
    fails first at the pair (0, 3)."""
    P = ((Fraction(2), Fraction(1, 2)), (Fraction(1, 3), Fraction(1)))
    P_inv = ((Fraction(6, 11), Fraction(-3, 11)), (Fraction(-2, 11), Fraction(12, 11)))
    assert mat_mul(P, P_inv, QQ) == identity_matrix(2, QQ)
    mats = []
    for a in range(4):
        i, j = divmod(a, 2)
        unit = tuple(tuple(Fraction(int((r, c) == (i, j))) for c in range(2)) for r in range(2))
        mats.append([list(row) for row in mat_mul(mat_mul(P, unit, QQ), P_inv, QQ)])
    assert {a.denominator for m in mats for row in m for a in row} == {11, 22, 33}
    text = (FIXTURES / "pair2.gkd").read_text(encoding="utf-8")

    def restrict(mats):
        rows = "\n".join(" ".join(str(a) for a in row) for m in mats for row in m)
        return run("restrict", write(tmp_path, text + "[module] col 2 B\n" + rows + "\n"),
                   ["0", "col"])

    out, code = restrict(mats)
    assert code == 0, out
    assert "module_axioms: PASS" in out
    mats[3][1][0] += 1
    out, code = restrict(mats)
    assert code == 1, out
    assert "module_axioms: FAIL structure-constants at (0, 3)" in out


def test_induce_and_restrict_build_once(tmp_path, monkeypatch):
    """induce builds the induced module once and restrict the restriction
    once; the dims in the reports come from the certificates."""
    from groupoidalg import induction

    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(induction, "induce", counted("induce", induction.induce))
    restriction = counted("restriction", induction.restriction)
    monkeypatch.setattr(induction, "restriction", restriction)
    monkeypatch.setattr(cli, "restriction", restriction)
    path = module_problem(tmp_path)
    out, code = run("induce", path, ["0", "triv"])
    assert code == 0
    assert out.endswith("-- induced module --\norbit: 0 3\nfree basis sections: 0:0 3:2\n"
                        "dim: 2\nthm_8_4: PASS dim=1\n")
    assert calls.count("induce") == 1
    calls.clear()
    out, code = run("restrict", path, ["0", "col"])
    assert code == 0
    assert out.endswith("-- restriction --\ndim: 1\n"
                        "thm_10_1: PASS induced_dim=2 image_dim=2 onto=yes\n")
    assert calls.count("restriction") == 1


def test_induce_prints_its_sections_before_a_roundtrip_failure(tmp_path, monkeypatch):
    """The orbit and free basis lines come from the bimodule, so they are
    printed even when the round-trip check then fails."""
    def broken(inclusion, x, V):
        raise TheoremViolation("embedding does not fill the restriction")

    monkeypatch.setattr(cli, "verify_res_ind_roundtrip", broken)
    out, code = run("induce", module_problem(tmp_path), ["0", "triv"])
    assert code == 1
    assert out.endswith("-- induced module --\norbit: 0 3\nfree basis sections: 0:0 3:2\n"
                        "internal_consistency: FAIL embedding does not fill the restriction\n")


def test_restrict_and_germs_reject_a_non_module(tmp_path):
    """All-ones action matrices break the structure constants: both commands
    report module_axioms FAIL and stop before computing anything."""
    text = (FIXTURES / "pair2.gkd").read_text(encoding="utf-8")
    text += "[module] z 2 B\n" + "1 1\n" * 8
    path = write(tmp_path, text)
    for command, args, section in [("restrict", ["0", "z"], "-- restriction --"),
                                   ("germs", ["z"], "-- germ spaces --")]:
        out, code = run(command, path, args)
        assert code == 1, out
        assert "module_axioms: FAIL structure-constants at (0, 0)" in out
        assert section not in out
        assert "internal_consistency" not in out


@pytest.mark.parametrize("field", [QQ, GF(2), GF(7)], ids=["Q", "GF2", "GF7"])
def test_restrict_rejects_a_unit_acting_as_a_proper_idempotent(tmp_path, field):
    """Zero actions on K^2, and pair(2)'s regular module plus a zero-action
    line, satisfy the module law, but the unit does not act as the identity:
    restrict reports module_axioms FAIL unitality and stops."""
    g = pair_groupoid(2)
    text = format_problem(field, g, None)
    for V in idempotent_unit_modules(presentation_of_B(g, Cocycle.trivial(g, field))):
        rows = "\n".join(" ".join(str(a) for a in row) for m in V.matrices for row in m)
        out, code = run("restrict", write(tmp_path, text + f"[module] v {V.dim} B\n{rows}\n"),
                        ["0", "v"])
        assert code == 1, out
        assert out.endswith("module_axioms: FAIL unitality at ()\n"), out


def test_module_input_errors_exit_two(tmp_path):
    """A module over the wrong algebra, or a non-unit or non-integer token,
    is bad input: exit 2, not a failed check or an uncaught exception."""
    text = format_problem(GF(3), pair_groupoid(2), None)
    text += "[module] triv 1 isotropy:0\n1\n[module] nowhere 1 isotropy:1\n1\n"
    text += "[module] col 2 B\n" + "0 0\n" * 8
    path = write(tmp_path, text)
    for command, args in [("induce", ["0", "col"]), ("germs", ["triv"]),
                          ("germs", ["nowhere"])]:
        out, code = run(command, path, args)
        assert code == 2, (command, args, out)
        assert out.startswith("input error:"), (command, args, out)
    out, code = run("validate", write(tmp_path, "[field] Q\n[units] 0 a\n", "bad.gkd"))
    assert (code, out) == (2, "input error: line 2: unit must be an integer, got 'a'\n")


def test_negative_module_dim_is_input_error(tmp_path):
    """A negative [module] dimension is refused at its header line."""
    text = (FIXTURES / "pair2.gkd").read_text(encoding="utf-8")
    line = text.count("\n") + 1
    path = write(tmp_path, text + "[module] z -1 B\n")
    for command, args in [("validate", []), ("restrict", ["0", "z"]), ("germs", ["z"])]:
        out, code = run(command, path, args)
        assert (code, out) == (
            2, f"input error: line {line}: module dim must be non-negative, got -1\n"
        ), command


def test_effros_hahn_and_q1215_commands():
    out, code = run("effros-hahn", str(FIXTURES / "gb3_gf2.gkd"))
    assert code == 0
    assert "thm_12_14_i: PASS" in out
    assert "thm_12_14_ii: PASS" in out

    out, code = run("q1215", str(FIXTURES / "gb3_gf2.gkd"))
    assert code == 0
    assert "q_12_15: PASS" in out
    assert "answer=YES" in out


def test_effros_hahn_checks_each_ideal_once(monkeypatch):
    """gb3_gf2 has 11 proper ideals, 3 of them primitive: one check each,
    none with a witness module (the check takes none)."""
    calls = []
    original = cli.effros_hahn_check

    def counted(inclusion, ideal):
        calls.append(ideal.basis)
        return original(inclusion, ideal)

    monkeypatch.setattr(cli, "effros_hahn_check", counted)
    out, code = run("effros-hahn", str(FIXTURES / "gb3_gf2.gkd"))
    assert code == 0 and "ideals=11" in out and "primitive=3" in out
    assert len(calls) == len(set(calls)) == 11


def test_verify_ideals_decomposes_the_regular_module_once(monkeypatch):
    """prop_12_12 decomposes the regular module B/0 and the zero ideal's
    Theorem 12.14 check decomposes it again: 12 decompositions on gb3_gf2,
    two of the zero ideal, and the second one places no induced ideal (each
    ideal ``induced_ideal`` places is kept on the inclusion).  The report is
    the one a fresh inclusion per decomposition gives."""
    calls = []
    decompose, place = ideals.ideal_decomposition, ideals._place_induced

    def counted(inclusion, I):
        calls.append([I.dim, 0])
        return decompose(inclusion, I)

    def place_counted(*args):
        calls[-1][1] += 1
        return place(*args)

    monkeypatch.setattr(cli, "ideal_decomposition", counted)
    monkeypatch.setattr(ideals, "ideal_decomposition", counted)
    monkeypatch.setattr(ideals, "_place_induced", place_counted)
    path = str(FIXTURES / "gb3_gf2.gkd")
    out, code = run("verify", path, ["ideals"])
    assert code == 0 and "thm_12_14_i: PASS ideals=11" in out
    assert len(calls) == 12 and [k for d, k in calls if d == 0] == [3, 0]
    # no induced ideal held from an earlier decomposition: the same report
    monkeypatch.setattr(ideals, "ideal_decomposition",
                        lambda inclusion, I: decompose(Inclusion(inclusion.groupoid, inclusion.cocycle), I))
    assert run("verify", path, ["ideals"]) == (out, code)


FIVE_FIXTURES = ("gb3_gf2", "gb3_sign", "pair2", "pair2_gf3", "v4quat")


def test_ideal_reports_build_no_quotient_by_an_ideal(monkeypatch):
    """effros-hahn, ideals and verify ideals build no quotient of the
    regular module and no germ space: thm_12_14_i reads the inducing ideals
    off each ideal, and thm_12_14_ii reads its unit off the decomposition
    of each maximal ideal, with no simple module built."""
    quotients, germs = [], []
    quotient, germ = ideals.quotient_module, ideals.germ_space

    def quotient_recorded(module, W, name=""):
        out = quotient(module, W, name)
        quotients.append((W, out[0]))
        return out

    def germ_recorded(inclusion, module, x):
        germs.append(module)
        return germ(inclusion, module, x)

    for module in (ideals, cli, modrep, induction):
        monkeypatch.setattr(module, "germ_space", germ_recorded)
    monkeypatch.setattr(ideals, "quotient_module", quotient_recorded)
    monkeypatch.setattr(modrep, "quotient_module", quotient_recorded)
    enumerated = 0
    for name in FIVE_FIXTURES:
        path = str(FIXTURES / f"{name}.gkd")
        for command, args in [("effros-hahn", []), ("ideals", []), ("verify", ["ideals"])]:
            quotients.clear()
            germs.clear()
            out, code = run(command, path, args)
            assert code == 0, (name, command)
            enumerated += "enumeration: skipped" not in out
            assert quotients == [], (name, command)
            assert germs == [], (name, command)
    assert enumerated > 0


def test_a_wrong_inducing_ideal_fails_theorem_12_14(monkeypatch):
    """induced_ideal returning B at the first unit of gb3_gf2: the zero
    ideal, seen only there, is no longer the intersection, and every ideal
    report fails as an internal consistency check."""
    original = ideals.induced_ideal
    path = str(FIXTURES / "gb3_gf2.gkd")
    first = parse(path).groupoid.units[0]

    def wrong(inclusion, x, I):
        return Subspace.full(inclusion.m, inclusion.field) if x == first else original(inclusion, x, I)

    monkeypatch.setattr(ideals, "induced_ideal", wrong)
    for command, args in [("effros-hahn", []), ("ideals", []), ("verify", ["ideals"])]:
        out, code = run(command, path, args)
        assert code == 1, command
        assert out.endswith("internal_consistency: FAIL the induced ideals do not intersect to I\n")


def test_thm_12_14_ii_fails_a_primitive_ideal_with_no_single_unit(monkeypatch):
    """A check that finds no single inducing unit fails thm_12_14_ii on the
    3 primitive ideals of gb3_gf2, and the report exits 1; thm_12_14_i,
    which does not read the unit, still passes."""
    original = cli.effros_hahn_check
    monkeypatch.setattr(cli, "effros_hahn_check",
                        lambda inclusion, ideal: dataclasses.replace(original(inclusion, ideal),
                                                                     single_unit=None))
    out, code = run("effros-hahn", str(FIXTURES / "gb3_gf2.gkd"))
    assert code == 1
    assert "thm_12_14_i: PASS ideals=11\n" in out
    assert "thm_12_14_ii: FAIL primitive=3\n" in out


def test_ideals_command_gf3():
    out, code = run("ideals", str(FIXTURES / "gb3_sign.gkd"))
    assert code == 0
    assert "prop_12_12: PASS" in out
    assert "ideal count:" in out


def test_ideals_command_skips_over_Q():
    out, code = run("ideals", str(FIXTURES / "pair2.gkd"))
    assert code == 0
    assert "skipped" in out


def test_algebra_command():
    out, code = run("algebra", str(FIXTURES / "v4quat.gkd"))
    assert code == 0
    assert "dim B: 4" in out
    assert "prop_4_6: PASS" in out
    assert "center dim: 1" in out


def test_main_entrypoint(capsys):
    code = main(["validate", str(FIXTURES / "pair2.gkd")])
    captured = capsys.readouterr()
    assert code == 0
    assert "groupoid_axioms: PASS" in captured.out


def test_main_reports_an_internal_error_with_exit_code_3(monkeypatch, capsys):
    """A handler's KeyError is a bug, told apart from a failed check (1) and
    bad input (2): main writes it to stderr, nothing to stdout, and returns 3."""
    def broken(problem, args, report):
        raise KeyError("internal")

    monkeypatch.setitem(cli._DISPATCH, "validate", broken)
    code = main(["validate", str(FIXTURES / "pair2.gkd")])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == "internal error: KeyError: 'internal'\n"


# -- prop_7_5: mu is the isomorphism Res_x M_x = B(x,x) ---------------------------


def bumped_restriction(inclusion, module, x):
    """The restriction with entry (0, 0) of its last action matrix bumped by one."""
    res = restriction(inclusion, module, x)
    f = res.module.field
    mats = [[list(row) for row in mat] for mat in res.module.matrices]
    mats[-1][0][0] = f.add(mats[-1][0][0], f.one())
    return Restriction(x, res.subspace, FdModule(res.module.algebra, mats, res.module.name))


def prop_7_5_lines(g, c):
    """The prop_7_5 line of verify bimodule, and the verdict of the isomorphism
    search it replaced: at every unit, Res_x M_x (through ``cli.restriction``)
    has dimension dim B(x,x) and find_module_isomorphism finds an
    isomorphism onto the regular module."""
    inc = Inclusion(g, c)
    report = cli.Report("verify bimodule")
    cli._verify_bimodule_suite(cli.ProblemFile(c.field, g, c, {}, {}), inc, report)
    found = True
    for x in g.units:
        bim = imprimitivity_bimodule(inc, x)
        res = cli.restriction(inc, cli.bimodule_as_left_module(inc, bim), x)
        reg = regular_module(bim.data.presentation)
        found = (found and res.module.dim == reg.dim
                 and find_module_isomorphism(res.module, reg) is not None)
    return report.lines[-1], f"prop_7_5: {'PASS' if found else 'FAIL'}"


def test_prop_7_5_agrees_with_the_isomorphism_search(monkeypatch):
    """The certificate and the search agree on every oracle-battery case:
    both pass, and both fail once the restriction has a bumped entry."""
    for name, g, c in oracle_battery():
        assert prop_7_5_lines(g, c) == ("prop_7_5: PASS",) * 2, name
    monkeypatch.setattr(cli, "restriction", bumped_restriction)
    for name, g, c in oracle_battery():
        assert prop_7_5_lines(g, c) == ("prop_7_5: FAIL",) * 2, name


def bimodule_with_mu(broken_mu):
    """imprimitivity_bimodule with mu replaced by ``broken_mu(mu)``."""
    def broken(inclusion, x):
        bim = imprimitivity_bimodule(inclusion, x)
        return SimpleNamespace(x=x, data=bim.data, left_action=bim.left_action,
                               quotient=bim.quotient, mu=broken_mu(bim.mu))
    return broken


@pytest.mark.parametrize("name,broken", [
    ("restriction", bumped_restriction),
    # not injective: no position, the zero column
    ("imprimitivity_bimodule", bimodule_with_mu(lambda mu: (None,) * len(mu))),
    # the other arrow out of x (d = 2), at unit 0 the class of 0 -> 3, outside Res_0 M_0
    ("imprimitivity_bimodule", bimodule_with_mu(lambda mu: tuple(1 - p for p in mu))),
])
def test_prop_7_5_fails_without_an_isomorphism(monkeypatch, name, broken):
    monkeypatch.setattr(cli, name, broken)
    out, code = run("verify", str(FIXTURES / "pair2.gkd"), ["bimodule"])
    assert code == 1
    assert out.endswith("-- bimodule --\ncor_6_13: PASS\nprop_7_5: FAIL\n")


def test_verify_certifies_each_arrow_once_and_searches_no_isomorphism(tmp_path, monkeypatch):
    """verify all on pair(6) over Q: one certify_normalizer call per arrow (36;
    re-certifying every product and star made 288), and the CLI makes no
    find_module_isomorphism call."""
    calls = []
    original = cli.certify_normalizer

    def counted(n, n_star):
        calls.append(n)
        return original(n, n_star)

    def search(m1, m2):
        raise AssertionError("find_module_isomorphism called")

    assert not hasattr(cli, "find_module_isomorphism")
    monkeypatch.setattr(cli, "certify_normalizer", counted)
    monkeypatch.setattr(modrep, "find_module_isomorphism", search)
    g = pair_groupoid(6)
    path = write(tmp_path, format_problem(QQ, g, Cocycle.trivial(g, QQ)))
    out, code = run("verify", path, ["all"])
    assert code == 0 and "prop_5_10: PASS" in out and "prop_7_5: PASS" in out
    assert len(calls) == g.n_arrows == 36


# -- sympy is loaded only to factor over Q ---------------------------------------


def fixture_with_modules(tmp_path, fixture):
    """The fixture with two modules at its first unit x appended: ``iso``, the
    regular module of B(x, x), and ``col``, the column module B delta_x (the
    left ideal on the arrows out of x), so that every command can run on it."""
    problem = parse(str(fixture))
    g, f = problem.groupoid, problem.field
    x = g.units[0]
    assert validate_cocycle(problem.cocycle) is None
    inc = Inclusion(g, problem.cocycle)
    iso = regular_module(inc.isotropy_data(x, x).presentation)
    out_of_x = [a for a in g.arrows() if g.src[a] == x]
    col = [dense_rows(m, len(out_of_x), f) for m in inc.B.left_mult_rows(out_of_x)]
    text = fixture.read_text(encoding="utf-8")
    for name, dim, token, mats in [("iso", iso.dim, f"isotropy:{x}", iso.matrices),
                                   ("col", len(out_of_x), "B", col)]:
        text += f"[module] {name} {dim} {token}\n"
        text += "".join(" ".join(f.format(v) for v in row) + "\n" for mat in mats for row in mat)
    return write(tmp_path, text, fixture.name), str(x)


GUARD_SCRIPT = """
import json, sys
import groupoidalg
from groupoidalg import cli
from groupoidalg.linalg import GF
GF(2**61 - 1)
codes = {}
for path, x in json.loads(sys.argv[1]):
    for command, args in [("validate", []), ("algebra", []), ("isotropy", [x]),
                          ("induce", [x, "iso"]), ("restrict", [x, "col"]), ("germs", ["col"]),
                          ("ideals", []), ("verify", ["all"]), ("effros-hahn", []), ("q1215", [])]:
        codes[f"{path} {command}"] = cli.run(command, path, args)[1]
print(json.dumps({"commands": sorted({key.split()[-1] for key in codes}),
                  "codes": codes, "sympy": "sympy" in sys.modules}))
"""


def test_sympy_is_not_imported_by_any_command_on_any_fixture(tmp_path):
    """A fresh interpreter imports the package and the CLI, makes
    GF(2**61 - 1) and runs all ten commands on all five fixtures, each with
    modules for induce, restrict and germs: every command exits 0 and sympy
    is never imported."""
    cases = [fixture_with_modules(tmp_path, fixture) for fixture in sorted(FIXTURES.glob("*.gkd"))]
    assert len(cases) == 5
    env = dict(os.environ)
    src = str(Path(groupoidalg.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", GUARD_SCRIPT, json.dumps(cases)],
                          capture_output=True, text=True, env=env, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["commands"] == sorted(cli.USAGE)
    assert {key: code for key, code in result["codes"].items() if code != 0} == {}
    assert len(result["codes"]) == 50
    assert result["sympy"] is False


def test_sympy_is_imported_only_inside_factor_over_Q():
    """Every import of sympy in the package, with the innermost function it
    sits in (None at module level)."""
    found = []
    for path in sorted(Path(groupoidalg.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        funcs = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
        for node in ast.walk(tree):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            if any(name.split(".")[0] == "sympy" for name in names):
                owners = [f.name for f in funcs if f.lineno <= node.lineno <= f.end_lineno]
                found.append((path.name, owners[-1] if owners else None))
    assert found == [("modrep.py", "_factor_over_Q")]
