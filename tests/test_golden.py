"""Golden CLI reports: every fixture's reports must match the checked-in bytes.

The reports under ``tests/golden/`` are ``validate``, ``algebra``,
``verify all``, ``ideals``, ``effros-hahn``, ``q1215`` and ``isotropy <x>``
for every unit, on every fixture.  ``exit_codes.txt`` holds each report's
exit code.  To regenerate after an intended report change, run
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

from pathlib import Path

import pytest

from groupoidalg.cli import parse, run

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"
EXIT_CODES = GOLDEN / "exit_codes.txt"

COMMANDS = (
    ("validate",),
    ("algebra",),
    ("verify", "all"),
    ("ideals",),
    ("effros-hahn",),
    ("q1215",),
)


def golden_cases():
    """(report file name, fixture path, command words) for every golden report."""
    cases = []
    for fixture in sorted(FIXTURES.glob("*.gkd")):
        words = list(COMMANDS)
        words += [("isotropy", str(x)) for x in parse(str(fixture)).groupoid.units]
        for cmd in words:
            cases.append((f"{fixture.stem}.{'_'.join(cmd)}.txt", fixture, cmd))
    return cases


def _exit_codes():
    codes = {}
    for line in EXIT_CODES.read_text(encoding="utf-8").splitlines():
        name, code = line.split()
        codes[name] = int(code)
    return codes


CASES = golden_cases()


def test_golden_set_is_complete():
    assert len(CASES) == 41
    assert sorted(_exit_codes()) == sorted(name for name, _, _ in CASES)


@pytest.mark.parametrize("name,fixture,cmd", CASES, ids=[c[0] for c in CASES])
def test_report_matches_golden(name, fixture, cmd):
    text, code = run(cmd[0], str(fixture), cmd[1:])
    assert text == (GOLDEN / name).read_text(encoding="utf-8")
    assert code == _exit_codes()[name]


def regenerate():
    codes = []
    for name, fixture, cmd in CASES:
        text, code = run(cmd[0], str(fixture), cmd[1:])
        (GOLDEN / name).write_text(text, encoding="utf-8")
        codes.append(f"{name} {code}")
    EXIT_CODES.write_text("\n".join(codes) + "\n", encoding="utf-8")


if __name__ == "__main__":
    regenerate()
