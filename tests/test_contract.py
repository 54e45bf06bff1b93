"""The exit-code contract on mutated input files.

Each example takes one presentation or form file under ``tests/golden/`` and
mutates it once: it replaces a value anywhere in the JSON tree, deletes a
field or list entry, or inserts a token into an expression string.  Then it
runs ``certify`` and ``linearize`` (presentations, at ``--order 4`` and
``--max-word-len 1``) or every ``forms`` subcommand (forms; ``kupka`` with a
point of the file's dimension).  The contract: exit code 0, 1 or 2, never an
escaping exception, and an exit 2 prints exactly one line on stderr and
nothing on stdout.  The small order and word length keep every run short; the
defaults (order 32, words of 8 letters) make some mutated groups take seconds.
"""

import contextlib
import io
import json
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from germlin.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
FILES = {path.name: json.loads(path.read_text()) for path in sorted(GOLDEN.glob("*.json"))}
PRESENTATIONS = sorted(name for name, data in FILES.items() if "generators" in data)
FORMS = sorted(name for name, data in FILES.items() if "form" in data)
FORM_SUBCOMMANDS = ("integrable", "cone", "kupka", "first-integral", "pullback")

TOKENS = (
    " ", "0", "9", "+", "-", "*", "/", "^", "^2", "^-3", "^(1/2)", "(", ")",
    "pow(", ",", "1/2", "z", "a", "b", "x", "dx", "dy", "d", "*dz", "zeta",
    "1e5", ".", "=", "= 0", "[", "@", "é",
)

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 400)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=6)
    | st.sampled_from(["z", "", "a*z", "z/(1 - z)", "x*dy", "y*dx - x*dy", "x", "a^2 = 1"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(
        st.sampled_from(["conductor", "constraints", "var", "(1,2)", "x"]), inner, max_size=2
    ),
    max_leaves=5,
)


def _locations(value, path=()):
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _locations(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _locations(item, path + (index,))


def _get(value, path):
    for step in path:
        value = value[step]
    return value


def _set(value, path, new):
    if not path:
        return new
    _get(value, path[:-1])[path[-1]] = new
    return value


@st.composite
def mutated_files(draw, names):
    name = draw(st.sampled_from(names))
    data = json.loads(json.dumps(FILES[name]))  # a private deep copy
    locations = list(_locations(data))
    strings = [p for p in locations if isinstance(_get(data, p), str)]
    kind = draw(st.sampled_from(["insert", "delete", "replace"]))
    if kind == "insert" and strings:
        path = draw(st.sampled_from(strings))
        text = _get(data, path)
        at = draw(st.integers(0, len(text)))
        data = _set(data, path, text[:at] + draw(st.sampled_from(TOKENS)) + text[at:])
    elif kind == "delete" and len(locations) > 1:
        path = draw(st.sampled_from(locations[1:]))
        del _get(data, path[:-1])[path[-1]]
    else:
        data = _set(data, draw(st.sampled_from(locations)), draw(JSON_VALUES))
    return data


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _check(argv):
    code, out, err = _run(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code == 2:
        assert out == "" and err.count("\n") == 1 and err.endswith("\n"), (argv, err)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(data=mutated_files(PRESENTATIONS))
def test_mutated_presentation_files_keep_the_exit_code_contract(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("p") / "in.json"
    path.write_text(json.dumps(data))
    _check(["certify", str(path), "--order", "4", "--max-word-len", "1"])
    _check(["linearize", str(path), "--order", "4"])


@settings(derandomize=True, deadline=None, max_examples=400)
@given(data=mutated_files(FORMS))
def test_mutated_form_files_keep_the_exit_code_contract(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("f") / "in.json"
    path.write_text(json.dumps(data))
    variables = data.get("vars") if isinstance(data, dict) else None
    dimension = len(variables) if isinstance(variables, list) else 3
    for sub in FORM_SUBCOMMANDS:
        point = ["--point", ",".join(["1"] * dimension)] if sub == "kupka" else []
        _check(["forms", sub, str(path), *point])
