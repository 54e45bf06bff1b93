"""Golden outputs: exit code and exact stdout of the CLI.

The cases are every README command, ``certify`` and ``linearize`` on every
bundled group example at small orders, ``forms`` on the bundled form examples,
three presentation files under ``tests/golden/`` that reach the
conjugation steps of the linearizer, and deeper word searches on families
whose generators repeat values (``repeated_letters.json`` has two equal
generators and one equal to another's inverse).  ``two_orbits.json`` pins
a^4 = 1 at conductor 12: its roots i and -i are one Galois orbit, and 1 and
-1 are two more, so ``certify`` both transfers and searches.  ``certify``
on g10, g14 and g18p at the defaults (N=32, L=8), on g14 at N=8 L=4 and on
g18p at N=16 L=4 pins deep search trees, with "not-found-up-to" pairs on g14
and g18p.
``roundtripM.json`` holds two
copies of f = H o (zeta_M z) o H^-1 at N=32 with H = h1 o h0, h0 = z (1 - z^p)^(-1/p)
and h1 = z/(1 - s z), so ``linearize`` conjugates through every order;
``roundtrip3_obstruction.json`` adds z^12 to the second copy, so the scan stops
at k = 11 and prints the partial conjugator.  ``forms pullback`` runs in every
chart of ex6.2 and in two charts of ex6.1, so the printed 1-form text is pinned;
``form2.json`` is a two-variable form.  ``forms first-integral`` reads the
holomorphic integral of ``integral.json`` and the numerator/denominator of
``quotient.json``, and ``ex4.3`` runs once without ``--p`` (p = 1).
``forms kupka`` on ex6.1 also runs at points with ``cyclo(2)`` and
``cyclo(6)`` coordinates (the latter with commas inside the brackets) and at
a rational point that is not singular.  The
stored files pin the output byte for byte, so a refactor that claims the same
behaviour must pass this unchanged.

After an intended output change, re-capture with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import contextlib
import io
import os
import re
import sys

import pytest

from germlin.cli import main
from germlin.registry import GROUP_EXAMPLES

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

README_COMMANDS = [
    "certify --example ex4.1 --order 32 --max-word-len 8",
    "linearize --example ex4.1",
    "certify --example ex4.3 --p 2",
    "forms cone --example ex6.2",
    "forms kupka --example ex6.1 --k 2 --point 0,1,-1,0",
    "forms first-integral --example ex6.2",
    "forms pullback --example ex6.2 --chart x",
]

FAMILIES = [ex for ex in GROUP_EXAMPLES if ex != "ex4.3"]

CASES = (
    README_COMMANDS
    + [f"certify --example {ex} --order 4 --max-word-len 1" for ex in FAMILIES]
    + [f"linearize --example {ex} --order 4" for ex in FAMILIES]
    + [f"certify --example ex4.3 --p {p} --order 8 --max-word-len 2" for p in range(2, 6)]
    + [f"linearize --example ex4.3 --p {p} --order 8" for p in range(2, 6)]
    + [f"forms integrable --example ex6.1 --k {k}" for k in range(2, 9)]
    + [f"forms first-integral --example ex6.1 --k {k}" for k in range(2, 9)]
    + [f"forms {sub} --example ex6.2" for sub in ("integrable", "kupka")]
    + [
        f"{cmd} {name}.json"
        for name in ("involution", "involution_pair", "rotation3")
        for cmd in ("certify", "linearize")
    ]
    + ["certify --example ex4.3 --p 3 --order 8 --max-word-len 2 --pretty"]
    + [
        "certify --example g12 --order 4 --max-word-len 2",
        "certify --example g18 --order 4 --max-word-len 2",
        "certify --example ex4.1 --order 16 --max-word-len 4",
        "certify --example ex4.1 --order 12 --max-word-len 3",
        "certify --example ex4.3 --order 48 --max-word-len 10 --p 2",
        "certify repeated_letters.json --max-word-len 4",
        "certify two_orbits.json --max-word-len 3",
        "certify --example g10",
        "certify --example g14 --order 8 --max-word-len 4",
        "certify --example g18p --order 16 --max-word-len 4",
        "certify --example g14",
        "certify --example g18p",
    ]
    + [
        f"linearize {name}.json"
        for name in ("roundtrip3", "roundtrip5", "roundtrip9", "roundtrip3_obstruction")
    ]
    + [f"forms pullback --example ex6.2 --chart {c}" for c in ("y", "z")]
    + [
        "forms pullback --example ex6.1 --k 2 --chart w",
        "forms pullback --example ex6.1 --k 3 --chart y",
        "forms cone --example ex6.1 --k 2",
        "forms kupka --example ex6.1 --k 3",
    ]
    + [f"forms {sub} form2.json" for sub in ("integrable", "cone")]
    + ["forms pullback form2.json --chart y"]
    + [f"forms first-integral {name}.json" for name in ("integral", "quotient")]
    + ["forms kupka quotient.json --point 0,0,0"]
    + [
        "forms kupka --example ex6.1 --k 2 --point 0,cyclo(2)[1],cyclo(2)[-1],0",
        "forms kupka --example ex6.1 --k 3 --point 1/2,-3,5/7,2",
        "forms kupka --example ex6.1 --k 2 --point 0,cyclo(6)[0,1],cyclo(6)[0,-1],0",
    ]
    + [
        "certify --example ex4.3 --order 8 --max-word-len 2",
        "linearize --example ex4.3 --order 8",
    ]
)


def _case_name(command: str) -> str:
    return re.sub(r"[^A-Za-z0-9.]+", "_", command).strip("_")


def _run(command: str) -> str:
    """Exit code line plus stdout, run from the golden directory."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN_DIR)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(command.split())
    finally:
        os.chdir(cwd)
    return f"exit {code}\n{out.getvalue()}"


def _golden_path(command: str) -> str:
    return os.path.join(GOLDEN_DIR, _case_name(command) + ".txt")


def test_case_names_are_distinct():
    assert len({_case_name(c) for c in CASES}) == len(CASES)


@pytest.mark.parametrize("command", CASES, ids=_case_name)
def test_golden_output(command):
    with open(_golden_path(command), encoding="utf-8", newline="") as fh:
        expected = fh.read()
    assert _run(command) == expected


if __name__ == "__main__":
    for command in CASES:
        with open(_golden_path(command), "w", encoding="utf-8", newline="") as fh:
            fh.write(_run(command))
    sys.stdout.write(f"captured {len(CASES)} cases in {GOLDEN_DIR}\n")
