"""Problem-file parsing, command execution, exit codes, determinism."""

import time
from pathlib import Path

import pytest

from groupoidalg import cli
from groupoidalg.cli import format_problem, main, parse, run
from groupoidalg.errors import ProblemFileError, TheoremViolation
from groupoidalg.groupoid import pair_groupoid
from groupoidalg.isotropy import Inclusion
from groupoidalg.linalg import GF, QQ
from groupoidalg.twist import Cocycle

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
    the primitive ones with their witness module."""
    calls = []
    original = cli.effros_hahn_check

    def counted(inclusion, ideal, witness=None):
        calls.append(witness is not None)
        return original(inclusion, ideal, witness)

    monkeypatch.setattr(cli, "effros_hahn_check", counted)
    out, code = run("effros-hahn", str(FIXTURES / "gb3_gf2.gkd"))
    assert code == 0 and "ideals=11" in out and "primitive=3" in out
    assert (len(calls), sum(calls)) == (11, 3)


def test_thm_12_14_refuses_a_primitive_ideal_outside_the_proper_ideals(monkeypatch):
    """A primitive ideal the ideal enumeration did not list is a TheoremViolation."""
    monkeypatch.setattr(cli, "enumerate_ideals", lambda inclusion, lattice: [])
    out, code = run("effros-hahn", str(FIXTURES / "gb3_gf2.gkd"))
    assert code == 1
    assert out.endswith("internal_consistency: FAIL "
                        "a primitive ideal is missing from the proper ideals\n")


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
