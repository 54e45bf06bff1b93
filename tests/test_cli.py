import dataclasses
import json
import os
import sys
import time

import pytest

from germlin.cli import _certify_document, main
from germlin.germs import Word
from germlin.group_cert import (
    ConjugacyResolution,
    certify,
    certify_roots,
    check_conjugacy_witness,
    load_presentation_file,
)
from germlin.registry import GROUP_EXAMPLES, build_group_example

from oracles import certify_document_by_dumps


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_certify_first_family(capsys):
    code, out, _ = run(
        capsys, "certify", "--example", "ex4.1", "--order", "16", "--max-word-len", "6"
    )
    assert code == 0
    data = json.loads(out)
    assert data["certified"] is True
    assert len(data["solutions"]) == 2
    rep = data["solutions"][0]["report"]
    assert rep["multiplier_order"] == 6
    assert rep["theorem_a_applicable"] is False
    assert rep["product_ok"] is True


def test_certify_radical_pair_refuted(capsys):
    code, out, _ = run(
        capsys, "certify", "--example", "ex4.3", "--p", "2", "--order", "12"
    )
    assert code == 1
    data = json.loads(out)
    rep = data["solutions"][0]["report"]
    assert rep["product_ok"] is True
    assert rep["conjugacy"]["(1,2)"]["status"] == "not-found-up-to"


def test_certify_negative_max_word_len(capsys):
    code, out, err = run(
        capsys, "certify", "--example", "ex4.1", "--order", "8", "--max-word-len", "-1"
    )
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "--max-word-len" in err


def test_certify_missing_file(capsys):
    code, _, err = run(capsys, "certify", "nonexistent.json")
    assert code == 2
    assert "nonexistent.json" in err


def test_certify_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"generators": ["z + q", "z"]}')
    code, _, err = run(capsys, "certify", str(bad))
    assert code == 2
    assert "generator 1" in err


@pytest.mark.parametrize(
    "spec, field",
    [
        ({"order": True, "generators": ["z", "z"]}, '"order"'),
        (
            {
                "field": {"conductor": "6", "constraints": ["a = 1/(1 - a)"]},
                "generators": ["z/a", "z"],
            },
            '"field.conductor"',
        ),
        ({"generators": ["z", "z"], "witnesses": [[1, 1]]}, '"witnesses"'),
    ],
)
def test_certify_malformed_field_types(tmp_path, capsys, spec, field):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(spec))
    code, out, err = run(capsys, "certify", str(bad))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and field in err


@pytest.mark.parametrize(
    "word", [[[1.7, "1"]], [[1, 0.5]], [[True, 1]], [[1, "1"]], [[1, 1, 1]], [1, 1], "f1"]
)
def test_certify_malformed_witness_letters(tmp_path, capsys, word):
    # letters used to be truncated by int(): [[1, 0.5]] became the empty word
    # and certified the pair "verified-by-witness"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"order": 4, "generators": ["z", "z"], "witnesses": {"(1,2)": word}}))
    code, out, err = run(capsys, "certify", str(bad))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "witness" in err


@pytest.mark.parametrize("command", ["certify", "linearize"])
def test_witness_word_naming_a_generator_out_of_range(tmp_path, capsys, command):
    # linearize reads no witness, and used to print this group's obstruction
    # (exit 1) past a word that names a fifth generator of four
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "order": 4,
                "generators": ["-z", "-z + z^2", "-z", "-z"],
                "witnesses": {"(1,2)": [[7, 1]]},
            }
        )
    )
    code, out, err = run(capsys, command, str(bad))
    assert code == 2 and out == ""
    assert err == "germlin: error: generator index 7 out of range 1..4\n"


def test_certify_integer_witness_letters(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"order": 4, "generators": ["z", "z"], "witnesses": {"(1,2)": [[1, 2]]}}))
    code, out, _ = run(capsys, "certify", str(good))
    assert code == 0
    conj = json.loads(out)["solutions"][0]["report"]["conjugacy"]["(1,2)"]
    assert conj == {"status": "verified-by-witness", "word": [[1, 1], [1, 1]]}


def test_linearize_rotation_file(tmp_path, capsys):
    path = tmp_path / "rot.json"
    path.write_text(json.dumps({"order": 16, "generators": ["-z", "-z"]}))
    code, out, _ = run(capsys, "linearize", str(path))
    assert code == 0
    data = json.loads(out)
    sol = data["solutions"][0]
    assert sol["result"]["outcome"] == "linearized"
    assert sol["group_order"] == 2


def test_linearize_obstruction(capsys):
    code, out, _ = run(capsys, "linearize", "--example", "ex4.1", "--order", "12")
    assert code == 1
    data = json.loads(out)
    for sol in data["solutions"]:
        steps = sol["result"]["steps"]
        assert sol["result"]["outcome"] == "obstruction"
        assert steps[-1]["k"] == 1
        assert steps[-1]["action"] == "obstruction"


def test_linearize_flat_inconsistent_file(tmp_path, capsys):
    path = tmp_path / "flat.json"
    path.write_text(
        json.dumps({"order": 12, "generators": ["z + z^2", "z - z^2"]})
    )
    code, out, _ = run(capsys, "linearize", str(path))
    assert code == 1
    data = json.loads(out)
    assert data["solutions"][0]["result"]["outcome"] == "flat_inconsistent"


def test_linearize_family_g12(capsys):
    code, out, _ = run(capsys, "linearize", "--example", "g12", "--order", "12")
    assert code == 1
    data = json.loads(out)
    for sol in data["solutions"]:
        assert sol["result"]["outcome"] == "obstruction"


def test_forms_cone(capsys):
    code, out, _ = run(capsys, "forms", "cone", "--example", "ex6.2")
    assert code == 0
    data = json.loads(out)
    assert data["dicritical"] is False
    assert data["cone"] == "2*x*y^2 + 2*x*z^2"


def test_forms_kupka(capsys):
    code, out, _ = run(
        capsys,
        "forms",
        "kupka",
        "--example",
        "ex6.1",
        "--k",
        "2",
        "--point",
        "0,1,-1,0",
    )
    assert code == 0
    assert json.loads(out)["kupka"] is True
    # commas inside the brackets of cyclo(n)[...] do not split coordinates
    point = ["0", "cyclo(6)[0,1]", "cyclo(6)[0,-1]", "0"]
    code, out, _ = run(capsys, "forms", "kupka", "--example", "ex6.1", "--k", "2",
                       "--point", ",".join(point))
    assert code == 0
    assert json.loads(out)["point"] == point and json.loads(out)["kupka"] is True
    for wrong in ("0,cyclo(6)[0,1],0", "0,cyclo(6)[0,1],cyclo(6)[0,-1],0,1"):
        code, out, err = run(capsys, "forms", "kupka", "--example", "ex6.1", "--point", wrong)
        assert code == 2 and out == ""
        assert err.splitlines() == ["germlin: error: --point needs 4 comma-separated coordinates"]


def test_point_conductors_and_zero_denominators_are_input_errors(capsys):
    from germlin.group_cert import MAX_CONDUCTOR

    ones = ",".join(["1"] * 96)
    # conductors are bounded before any field is built: one of 19 digits
    # would be factored by trial division, an lcm of 27720 builds a table
    # of 27720 powers of zeta
    for point, message in (
        ("cyclo(1000000000000000003)[1],0,0", f"conductors must be at most {MAX_CONDUCTOR}"),
        (f"cyclo(360)[{ones}],cyclo(7)[1,2,3,4,5,6],cyclo(11)[{','.join(['1'] * 10)}]",
         f"conductors must be at most {MAX_CONDUCTOR}"),
        ("1/0,0,0", "bad --point entry: Fraction(1, 0)"),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, "forms", "kupka", "--example", "ex6.2", "--point", point)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == "" and err.count("\n") == 1 and message in err, err
    # an lcm of exactly MAX_CONDUCTOR is accepted
    point = "cyclo(8)[0,1,0,0],cyclo(9)[0,0,0,1,0,0],cyclo(5)[1,0,0,0]"
    code, out, err = run(capsys, "forms", "kupka", "--example", "ex6.2", "--point", point)
    assert code in (0, 1) and err == "", err


def test_forms_first_integral(capsys):
    code, out, _ = run(capsys, "forms", "first-integral", "--example", "ex6.2")
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "holomorphic" and data["first_integral"] is True
    code, out, _ = run(
        capsys, "forms", "first-integral", "--example", "ex6.1", "--k", "3"
    )
    assert code == 0
    assert json.loads(out)["kind"] == "meromorphic"


def test_forms_pullback(capsys):
    code, out, _ = run(capsys, "forms", "pullback", "--example", "ex6.2", "--chart", "x")
    assert code == 0
    data = json.loads(out)
    assert data["exceptional_multiplicity"] == 2
    assert data["matches_tangent_cone"] is True
    assert data["restriction"] == "(2*y^2 + 2*z^2)*dx"


def test_forms_file_and_failures(tmp_path, capsys):
    good = tmp_path / "form.json"
    good.write_text(
        json.dumps(
            {
                "vars": ["x", "y", "z"],
                "form": "y*dx + x*z*dy + dz",
            }
        )
    )
    code, out, _ = run(capsys, "forms", "integrable", str(good))
    assert code == 1
    assert json.loads(out)["integrable"] is False

    exact = tmp_path / "exact.json"
    exact.write_text(
        json.dumps(
            {
                "vars": ["x", "y", "z"],
                "form": "y*dx + x*dy + 2*z*dz",
                "integral": "x*y + z^2",
            }
        )
    )
    code, out, _ = run(capsys, "forms", "first-integral", str(exact))
    assert code == 0
    assert json.loads(out)["first_integral"] is True

    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    code, _, err = run(capsys, "forms", "integrable", str(bad))
    assert code == 2 and "invalid JSON" in err

    code, _, err = run(capsys, "forms", "kupka", str(good))
    assert code == 2 and "--point" in err


@pytest.mark.parametrize(
    "spec, field",
    [
        ({"vars": ["x", "x"], "form": "x*dx"}, '"vars"'),
        ({"vars": "xy", "form": "x*dx"}, '"vars"'),
        ({"vars": ["x"], "form": "x*dx"}, '"vars"'),
        ({"vars": ["x", "y", "z", "w", "v"], "form": "x*dx"}, '"vars"'),
        ({"vars": ["x", 1], "form": "x*dx"}, '"vars"'),
        ({"vars": ["x", "y", "z"], "form": "y*dx + x*dy", "integral": 5}, '"integral"'),
        ({"vars": ["x", "y"], "form": "y*dx - x*dy", "numerator": ["x"], "denominator": "y"}, '"numerator"'),
        ({"vars": ["x", "y"], "form": "y*dx - x*dy", "numerator": "x", "denominator": None}, '"denominator"'),
        ({"vars": ["x", "y", "z", "w"], "form": "dx*(dy*dz*dw)"}, '"form"'),
        ({"vars": ["x", "y", "z", "w"], "form": "(dy*dz*dw)*dx"}, '"form"'),
    ],
)
def test_forms_malformed_field_types(tmp_path, capsys, spec, field):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(spec))
    code, out, err = run(capsys, "forms", "first-integral", str(bad))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and field in err


def test_deterministic_output(capsys):
    _, out1, _ = run(capsys, "certify", "--example", "ex4.3", "--p", "1", "--order", "10")
    _, out2, _ = run(capsys, "certify", "--example", "ex4.3", "--p", "1", "--order", "10")
    assert out1 == out2
    _, out3, _ = run(capsys, "forms", "cone", "--example", "ex6.2")
    _, out4, _ = run(capsys, "forms", "cone", "--example", "ex6.2")
    assert out3 == out4


def test_degenerate_expression_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps({"order": 8, "generators": ["z/(1 - 1)", "z"]}))
    code, _, err = run(capsys, "certify", str(path))
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "command, spec",
    [
        (["certify"], {"order": 8, "generators": ["(" * 3000 + "z" + ")" * 3000, "z"]}),
        (["certify"], {"order": 8, "generators": ["+".join(["z"] * 3000), "z"]}),
        (["forms", "integrable"], {"vars": ["x", "y", "z"], "form": "+".join(["x*dy"] * 3000)}),
    ],
    ids=["nested-generator", "flat-sum-generator", "flat-sum-form"],
)
def test_too_deep_input_is_an_input_error(tmp_path, capsys, command, spec):
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, *command, str(path))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "too deeply" in err


def test_pretty_output_matches_compact(capsys):
    _, compact, _ = run(capsys, "forms", "cone", "--example", "ex6.2")
    _, pretty, _ = run(capsys, "forms", "cone", "--example", "ex6.2", "--pretty")
    assert json.loads(compact) == json.loads(pretty)
    assert pretty.count("\n") > compact.count("\n")


def test_invalid_subcommand_exits_two():
    import pytest

    with pytest.raises(SystemExit) as exc:
        main(["forms", "nonsense", "--example", "ex6.2"])
    assert exc.value.code == 2


def test_unknown_example(capsys):
    code, _, err = run(capsys, "certify", "--example", "nope")
    assert code == 2 and "unknown example" in err
    code, _, err = run(capsys, "forms", "cone", "--example", "nope")
    assert code == 2 and "unknown example" in err


def test_forms_options_before_or_after_the_file(tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"vars": ["x", "y", "z"], "form": "y*dx + x*dy + 2*z*dz"}))
    for argv in (["kupka", "--point", "0,0,0"], ["cone", "--pretty"], ["pullback", "--chart", "y"]):
        code_a, out_a, _ = run(capsys, "forms", *argv, str(path))
        code_b, out_b, _ = run(capsys, "forms", argv[0], str(path), *argv[1:])
        assert out_a == out_b and code_a == code_b
        assert code_a in (0, 1) and out_a
    # an option given before the subcommand name still counts
    _, before, _ = run(capsys, "forms", "--example", "ex6.2", "--pretty", "cone")
    _, after, _ = run(capsys, "forms", "cone", "--example", "ex6.2", "--pretty")
    assert before == after
    with pytest.raises(SystemExit) as exc:
        main(["forms", "nonsense"])
    assert exc.value.code == 2


def test_forms_multi_letter_variables(tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"vars": ["x1", "x2"], "form": "x2*dx1 - x1*dx2"}))
    code, out, err = run(capsys, "forms", "integrable", str(path))
    assert code == 0 and err == ""
    assert json.loads(out)["vars"] == ["x1", "x2"]


def test_forms_pullback_chart_by_the_files_names(tmp_path, capsys):
    # form2 of tests/golden with the variable slots swapped: same chart-y result
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"vars": ["y", "x"], "form": "y*dx - x*dy + x^2*dy"}))
    code, out, _ = run(capsys, "forms", "pullback", str(path), "--chart", "y")
    data = json.loads(out)
    assert code == 0 and data["exceptional_multiplicity"] == 2
    assert sorted(data["reduced"].split(" + ")) == ["1*dx", "x^2*dy"]
    path.write_text(json.dumps({"vars": ["x1", "x2"], "form": "x2*dx1 - x1*dx2"}))
    code, out, _ = run(capsys, "forms", "pullback", str(path), "--chart", "x2")
    assert code == 0 and json.loads(out)["chart"] == "x2"


@pytest.mark.parametrize("names", [["x", "dx"], ["dy", "z", "y"]])
def test_forms_vars_clashing_with_a_differential(tmp_path, capsys, names):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"vars": names, "form": "x*dz" if "z" in names else "x*dx"}))
    code, out, err = run(capsys, "forms", "integrable", str(path))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and '"vars"' in err


@pytest.mark.parametrize("order", ["0", "-3"])
@pytest.mark.parametrize("command", ["certify", "linearize"])
def test_bad_order_is_one_message_for_examples_and_files(tmp_path, capsys, command, order):
    # a bundled example goes through the file loader, so both name the field
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"generators": ["z", "z"]}))
    for source in (["--example", "ex4.1"], [str(path)]):
        code, out, err = run(capsys, command, *source, "--order", order)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and '"order"' in err, err


def test_limits_are_input_errors(tmp_path, capsys):
    from germlin.cyclotomic import euler_phi
    from germlin.expressions import MAX_POWER_BITS, MAX_POWER_WORK
    from germlin.germs import MAX_WORD_LETTERS
    from germlin.group_cert import MAX_CONDUCTOR, MAX_ORDER, MAX_WORD_LEN
    from germlin.pforms import MAX_FORM_DEGREE
    from germlin.registry import MAX_EX61_K

    def fails(argv, spec, field):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(spec))
        code, out, err = run(capsys, *argv, str(path))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and field in err, err

    too_long = str(MAX_ORDER + 1)
    for source in (["--example", "ex4.1"], ["--example", "ex4.3"]):
        code, out, err = run(capsys, "certify", *source, "--order", too_long)
        assert code == 2 and out == "" and err.count("\n") == 1 and '"order"' in err
    fails(["linearize"], {"order": MAX_ORDER + 1, "generators": ["z", "z"]}, '"order"')
    # an unresolved search grows exponentially with the word length
    for length in (MAX_WORD_LEN + 1, 10**6):
        code, out, err = run(
            capsys, "certify", "--example", "ex4.1", "--max-word-len", str(length)
        )
        assert code == 2 and out == "" and err.count("\n") == 1 and "--max-word-len" in err
    fails(["certify", "--max-word-len", str(MAX_WORD_LEN + 1)], {"generators": ["z", "z"]},
          "--max-word-len")
    code, out, err = run(
        capsys, "certify", "--example", "ex4.1", "--order", "4", "--max-word-len", str(MAX_WORD_LEN)
    )
    assert code == 0 and err == "", err
    fails(["certify", "--order", too_long], {"generators": ["z", "z"]}, '"order"')
    fails(
        ["certify"],
        {"field": {"conductor": MAX_CONDUCTOR + 1, "constraints": ["a^2 = 1"]},
         "generators": ["z", "z"]},
        '"field.conductor"',
    )
    for word in ([[1, MAX_WORD_LETTERS + 1]], [[1, MAX_WORD_LETTERS], [2, -1]]):
        fails(
            ["certify"],
            {"order": 4, "generators": ["z", "z"], "witnesses": {"(1,2)": word}},
            "witness",
        )
    # form degrees are checked before each product and power is formed, and
    # deg P + deg Q - 1 for the meromorphic pair
    top = MAX_FORM_DEGREE
    pair = '"numerator" and "denominator"'
    for sub, spec, field in (
        ("integrable", {"form": f"(x + y + z + 1)^{top + 1}*dx"}, '"form"'),
        ("integrable", {"form": "(x + y + z + 1)^200*dx"}, '"form"'),
        ("cone", {"form": f"x^{top}*(y + 1)*dx"}, '"form"'),
        ("first-integral", {"form": "y*dx", "integral": f"y*x^{top}"}, '"integral"'),
        ("first-integral", {"form": "y*dx", "numerator": f"x^{top}", "denominator": "y^2"}, pair),
    ):
        fails(["forms", sub], spec, field)
    # a power b^e needs |e| times the bit length of b's coefficients (2 for 3)
    # within MAX_POWER_BITS, checked before it is formed, which the degree
    # limit cannot see for a constant; the same holds in group files
    at, above = MAX_POWER_BITS // 2, MAX_POWER_BITS // 2 + 1
    for e in (above, 30000000):
        fails(["forms", "integrable"], {"form": f"3^{e}*dx + y*dy"}, '"form"')
        fails(["forms", "integrable"], {"form": f"(3*x)^{e}*dx"}, '"form"')
        fails(["forms", "integrable"], {"form": f"(-3)^{e}*dx + y*dy"}, '"form"')
        fails(["certify"], {"generators": [f"z/3^{e}", "z"]}, "generator 1")
        fails(
            ["certify"],
            {"field": {"conductor": 4, "constraints": [f"a^4 = 3^{e}/3^{e}"]},
             "generators": ["z", "z"]},
            "power",
        )
    # the bound holds for a root of unity too, whose powers are exponent arithmetic
    fails(
        ["certify"],
        {"field": {"conductor": 3, "constraints": ["a^2 + a + 1 = 0"]},
         "generators": ["z*a^100000000000", "z"]},
        "generator 1",
    )
    fails(["forms", "integrable"], {"form": f"(3^{at}*x)^2*dx"}, '"form"')
    group_at = {"order": 4, "generators": [f"z/3^{at}", "z/(1 - z)"],
                "field": {"conductor": 4, "constraints": [f"a^4 = 3^{at}/3^{at}"]}}
    path = tmp_path / "at.json"
    path.write_text(json.dumps(group_at))
    code, out, err = run(capsys, "certify", "--max-word-len", "1", str(path))
    assert code in (0, 1) and err == "", err
    for spec in (
        {"form": f"(x + y + z + 1)^{top}*dx"},
        {"form": f"x^{top - 1}*(y + 1)*dx"},
        {"form": "y*dx", "numerator": f"x^{top}", "denominator": "y"},
        {"form": f"3^{at}*dx + y*dy"},
    ):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(spec))
        sub = "first-integral" if "numerator" in spec else "integrable"
        code, out, err = run(capsys, "forms", sub, str(path))
        assert code in (0, 1) and err == "", err
    # |e| times the bits times the size of the base, the numbers that grow,
    # within MAX_POWER_WORK: N for a rational series of order N, phi(n) for
    # a scalar of Q(zeta_n); both are below MAX_POWER_BITS
    series_at = MAX_POWER_WORK // MAX_ORDER  # 1 + z has 1-bit coefficients
    scalar_at = MAX_POWER_WORK // euler_phi(MAX_CONDUCTOR)  # so has a
    assert max(series_at, scalar_at) < MAX_POWER_BITS
    def series(e):
        return {"order": MAX_ORDER, "generators": [f"z*(1 + z)^{e}", "z"]}

    def scalar(e):
        return {"field": {"conductor": MAX_CONDUCTOR, "constraints": [f"a^{e} = a^{e}"]},
                "order": 4, "generators": ["z", "z"]}

    for spec, at, field in ((series, series_at, "generator 1"), (scalar, scalar_at, "power")):
        fails(["linearize"], spec(at + 1), field)
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(spec(at)))
        code, out, err = run(capsys, "linearize", str(path))
        assert code in (0, 1) and err == "", err
    # the degree of ex6.1 bounds the powers of the point that kupka evaluates
    for k in (MAX_EX61_K + 1, 10**6):
        code, out, err = run(capsys, "forms", "kupka", "--example", "ex6.1", "--k", str(k),
                             "--point", "2,3,5,7")
        assert code == 2 and out == "" and err.count("\n") == 1 and "k <=" in err, err
    for sub in ("integrable", "kupka"):
        code, out, err = run(capsys, "forms", sub, "--example", "ex6.1", "--k", str(MAX_EX61_K))
        assert code == 0 and err == "", err
    # a conductor below 1 is refused, by name, before any field is built
    for point in ("cyclo(0)[],0,0,0", "0,cyclo(6)[0,1],cyclo(00)[],0"):
        code, out, err = run(capsys, "forms", "kupka", "--example", "ex6.1", "--point", point)
        assert code == 2 and out == "" and err.splitlines() == [
            "germlin: error: the --point conductors must be at least 1, got 0"
        ], err
    # the scalar must be a name an expression can use: z is the series
    # variable, so a scalar z never reaches a generator
    for var, constraint in (("z", "z^4 = 1"), ("", "1 = 1"), ("a b", "1 = 1")):
        fails(
            ["certify"],
            {"field": {"conductor": 4, "constraints": [constraint], "var": var},
             "generators": ["z/(1 - z)", "z"]},
            '"field.var"',
        )


def test_power_limit_reads_each_reduced_coefficient(tmp_path, capsys):
    # the bits of x/2^2000 + y/3^1500 are those of 3^1500 (2378), not of the
    # common denominator 2^2000 * 3^1500 that its integer form holds, with
    # which ^4 would already be above the limit
    path = tmp_path / "f.json"
    for e, want in ((4, 0), (6, 0), (7, 2)):
        path.write_text(json.dumps({"form": f"(x/2^2000 + y/3^1500)^{e}*dx + y*dy"}))
        code, out, err = run(capsys, "forms", "integrable", str(path))
        assert code == want, err
        if want:
            assert out == "" and err.count("\n") == 1 and "2378-bit coefficients" in err
        else:
            assert err == "" and json.loads(out)["integrable"] is True


@pytest.mark.parametrize(
    "constraint, generator, message",
    [
        # fails at the root -1 alone, an orbit of its own
        ("a^4 = 1", "z/(a+1)",
         "generator 1 ('z/(a+1)'): series division needs a divisor with nonzero constant term"),
        ("a^4 = b", "a*z", "unknown scalar name 'b'"),
    ],
)
def test_root_errors_keep_their_message(tmp_path, capsys, constraint, generator, message):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(
        {"field": {"conductor": 4, "constraints": [constraint]}, "generators": [generator, "z"]}
    ))
    assert run(capsys, "certify", str(path)) == (2, "", f"germlin: error: {message}\n")


def test_linearize_unequal_multipliers_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"generators": ["2*z", "z/2"]}))
    assert run(capsys, "linearize", str(path)) == (
        2, "", f"germlin: error: {path}: generators have unequal multipliers; certify first\n"
    )


@pytest.mark.parametrize(
    "argv, option",
    [
        (["certify", "--example", "ex4.1", "--p", "5"], "--p"),
        (["linearize", "--example", "g10", "--p", "2"], "--p"),
        (["certify", "FILE", "--p", "2"], "--p"),
        (["forms", "integrable", "FILE", "--k", "7"], "--k"),
        (["forms", "integrable", "FILE", "--params", "1,2,3,4,5,6"], "--params"),
        (["forms", "--k", "3", "cone", "--example", "ex6.2"], "--k"),
        (["forms", "kupka", "--example", "ex6.2", "--params", "1,2,3,4,5,6"], "--params"),
    ],
)
def test_options_the_input_would_ignore_are_input_errors(tmp_path, capsys, argv, option):
    # --p belongs to ex4.3 and --k/--params to ex6.1; elsewhere they did nothing
    path = tmp_path / "in.json"
    if argv[0] == "forms":
        path.write_text(json.dumps({"form": "y*dx + x*dy", "integral": "x*y"}))
    else:
        path.write_text(json.dumps({"generators": ["z", "z"]}))
    argv = [str(path) if a == "FILE" else a for a in argv]
    code, out, err = run(capsys, *argv, *(["--order", "4"] if argv[0] != "forms" else []))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and option in err and "applies only" in err, err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["certify", "--example", "ex4.1", "--order", "abc"], "invalid int value: 'abc'"),
        (["linearize", "--example", "ex4.1", "--max-word-len", "3"], "unrecognized arguments"),
        (["forms", "integrable", "--example", "ex6.2", "--k", "x"], "invalid int value: 'x'"),
        ([], "the following arguments are required: command"),
        (["forms", "--example", "ex6.2"], "the following arguments are required: subcommand"),
    ],
)
def test_malformed_options_are_one_line_input_errors(capsys, argv, message):
    # a bad int, an unknown option and a missing (sub)command: exit 2 with
    # one stderr line and no usage block
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert out.err.count("\n") == 1, out.err
    assert out.err.startswith("germlin: error: ") and message in out.err


@pytest.mark.parametrize("argv", [["-h"], ["certify", "-h"], ["forms", "cone", "--help"]])
def test_help_still_prints_usage_and_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    assert exc.value.code == 0 and out.err == ""
    assert out.out.startswith("usage: germlin")


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="the interpreter does not limit int-to-string conversion",
)
@pytest.mark.parametrize(
    "argv, spec",
    [
        (["forms", "cone"], {"form": "3^8192*3^8192*dx + y*dy"}),
        (["certify", "--order", "4", "--max-word-len", "1"],
         {"generators": ["3^8000*3^8000*z", "z"]}),
    ],
)
def test_numbers_past_the_digit_limit_are_one_line_input_errors(tmp_path, capsys, argv, spec):
    # each power is within MAX_POWER_BITS, but their product prints to more
    # decimal digits than the interpreter converts; the message is germlin's
    path = tmp_path / "big.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, *argv, str(path))
    limit = sys.get_int_max_str_digits()
    assert code == 2 and out == ""
    assert err == f"germlin: error: a number to print has more than {limit} decimal digits\n"
    if argv[0] == "forms":  # the verdict alone prints no coefficient
        code, out, err = run(capsys, "forms", "integrable", str(path))
        assert code == 0 and err == "" and json.loads(out)["integrable"] is True


def test_zero_denominator_in_a_rational_exponent_names_its_input(tmp_path, capsys):
    spec = {"generators": ["z", "z/pow(1 + z, 1/0)"]}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(spec))
    assert run(capsys, "certify", str(path)) == (
        2,
        "",
        "germlin: error: generator 2 ('z/pow(1 + z, 1/0)'): zero denominator "
        "in the exponent of pow in 'z/pow(1 + z, 1/0)'\n",
    )
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"vars": ["x", "y"], "form": "pow(1 + x, -1/0)*dx"}))
    assert run(capsys, "forms", "integrable", str(path)) == (
        2,
        "",
        f'germlin: error: {path}: field "form": zero denominator '
        "in the exponent of pow in 'pow(1 + x, -1/0)*dx'\n",
    )


def test_forms_pullback_builds_the_chart_pullback_once(monkeypatch, capsys):
    from germlin import cli, pforms

    calls = []
    pullback = pforms.blowup_chart_pullback

    def counting(*args):
        calls.append(args)
        return pullback(*args)

    monkeypatch.setattr(cli, "blowup_chart_pullback", counting)
    monkeypatch.setattr(pforms, "blowup_chart_pullback", counting)
    code, out, _ = run(capsys, "forms", "pullback", "--example", "ex6.1", "--k", "8")
    assert code == 0 and json.loads(out)["matches_tangent_cone"] is True
    assert len(calls) == 1


def test_ex61_at_the_largest_k_keeps_its_output(capsys):
    # ex6.1 at k = 64 builds products of total degree about 200, well inside
    # the packed monomial keys of pforms; verdicts and text stay as they are
    x65 = "x^65 + 1/63*x^2*y^63 + 1/63*x^2*z^63 + 1/63*x^2*w^63 - 1/65*y^65 - 1/65*z^65 - 1/65*w^65"
    reduced = "(-y^64 + y^62)*dy + (-z^64 + z^62)*dz + (-w^64 + w^62)*dw"
    head = '"input":"ex6.1","vars":["x","y","z","w"]'
    want = {
        "first-integral": '{"command":"forms first-integral",' + head + ',"kind":"meromorphic",'
        f'"numerator":"{x65}","denominator":"x^65","first_integral":true}}',
        "integrable": '{"command":"forms integrable",' + head + ',"integrable":true}',
        "pullback": '{"command":"forms pullback",' + head + ',"chart":"x",'
        f'"exceptional_multiplicity":66,"reduced":"{reduced}","restriction":"{reduced}",'
        '"matches_tangent_cone":true}',
    }
    for sub, text in want.items():
        code, out, err = run(capsys, "forms", sub, "--example", "ex6.1", "--k", "64")
        assert (code, out, err) == (0, text + "\n", ""), sub


def test_kupka_bounds_the_powers_of_the_point_before_forming_any(capsys):
    from germlin.expressions import MAX_POWER_WORK
    from germlin.registry import MAX_EX61_K

    # ex6.1 at k has total degree k + 1: a b-bit rational coordinate passes
    # while (k + 1) * b <= MAX_POWER_WORK
    bits = MAX_POWER_WORK // (MAX_EX61_K + 1)
    for b, codes in ((bits, (0, 1)), (bits + 1, (2,))):
        point = f"{2 ** (b - 1)},1,-1,0"
        code, out, err = run(capsys, "forms", "kupka", "--example", "ex6.1",
                             "--k", str(MAX_EX61_K), "--point", point)
        assert code in codes, err
    assert out == "" and err.count("\n") == 1 and "point coordinate" in err
    assert str(MAX_POWER_WORK) in err
    # 96 coordinates of 245 digits at conductor 360 once ran 96 s and exit 1
    entry = ",".join(["9" * 245] * 96)
    start = time.perf_counter()
    code, out, err = run(capsys, "forms", "kupka", "--example", "ex6.1", "--k", str(MAX_EX61_K),
                         "--point", f"0,cyclo(360)[{entry}],1,0")
    assert code == 2 and out == "" and err.count("\n") == 1 and "96 numbers" in err, err
    assert time.perf_counter() - start < 5


# -- the certify document against json.dumps of the reports ---------------------------

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def _assert_certify_prints_dumps(capsys, argv, source, loaded, max_len):
    """certify prints, compact and with --pretty, json.dumps of the payload
    of the reports of ``loaded``, and exits by their certified flag."""
    reports = certify_roots(loaded, max_len)
    for pretty in (False, True):
        code, out, err = run(capsys, *argv, *(["--pretty"] if pretty else []))
        text, certified = certify_document_by_dumps(source, loaded, reports, max_len, pretty)
        assert (code, out, err) == (0 if certified else 1, text + "\n", "")


def _assert_writer_prints_dumps(source, loaded, reports, max_len):
    for indent, pretty in ((None, False), (2, True)):
        expected = certify_document_by_dumps(source, loaded, reports, max_len, pretty)
        assert _certify_document(source, loaded, reports, max_len, indent) == expected


@pytest.mark.parametrize("max_len", [1, 2])
@pytest.mark.parametrize("N", [2, 4, 8])
@pytest.mark.parametrize("example", GROUP_EXAMPLES)
def test_certify_document_is_dumps_of_the_reports_on_registry(capsys, example, N, max_len):
    argv = ["certify", "--example", example, "--order", str(N), "--max-word-len", str(max_len)]
    loaded = build_group_example(example, order=N)
    _assert_certify_prints_dumps(capsys, argv, example, loaded, max_len)


@pytest.mark.parametrize(
    "name, max_len",
    [("two_orbits", 3), ("repeated_letters", 4), ("involution_triple", 6), ("roundtrip3", 8)],
)
def test_certify_document_is_dumps_of_the_reports_on_files(capsys, monkeypatch, name, max_len):
    monkeypatch.chdir(GOLDEN_DIR)
    path = f"{name}.json"
    loaded = load_presentation_file(path)
    argv = ["certify", path, "--max-word-len", str(max_len)]
    _assert_certify_prints_dumps(capsys, argv, path, loaded, max_len)


def test_certify_document_where_witnessed_and_searched_pairs_share_a_class_pair(
    tmp_path, capsys
):
    # f, f, c = g f g^-1 and g = -z: g^-1 conjugates f to c, so the witness
    # verifies (1, 3), and (2, 3), of the same class pair (f, c), is searched
    spec = {
        "order": 8,
        "generators": ["z/(1 - z)", "z/(1 - z)", "z/(1 + z)", "-z"],
        "witnesses": {"(1,3)": [[4, -1]]},
    }
    path = tmp_path / "shared.json"
    path.write_text(json.dumps(spec))
    loaded = load_presentation_file(str(path))
    conjugacy = certify_roots(loaded, 2)[0].conjugacy
    assert conjugacy[(1, 3)].status == "verified-by-witness"
    assert conjugacy[(2, 3)].status == "found-by-search"
    _assert_certify_prints_dumps(capsys, ["certify", str(path), "--max-word-len", "2"],
                                 str(path), loaded, 2)


def test_certify_document_after_a_transferred_word_fails_its_check():
    # ex4.1 at N = 8: the second root is the Galois image of the first.  A
    # first-root report whose word for (1, 6) fails its check on the image
    # makes the image search that class pair again, so the image's text
    # differs from the first root's, with the same plan and the same pattern
    # of shared resolutions, and must not be reused
    loaded = build_group_example("ex4.1", order=8)
    assert loaded[1].image_of == 0
    first = certify_roots(loaded, 2)[0]
    found = first.conjugacy[(1, 6)]
    bogus = ConjugacyResolution("found-by-search", Word.from_list([[5, 1], [1, 1]]))
    assert not check_conjugacy_witness(loaded[1].presentation, 1, 6, bogus.word)
    conjugacy = {pair: bogus if r is found else r for pair, r in first.conjugacy.items()}
    first = dataclasses.replace(first, conjugacy=conjugacy)
    image = certify(loaded[1].presentation, 2, transferred=first)
    assert image._plan is first._plan and image.conjugacy[(1, 6)] == found
    _assert_writer_prints_dumps("ex4.1", loaded, [first, image], 2)


def test_certify_document_of_edited_reports_sorts_their_pairs():
    loaded = build_group_example("g18p", order=4)
    reports = certify_roots(loaded, 1)
    # a pair taken out and put back moves to the end of the dict
    edited = reports[2].conjugacy
    edited[(1, 2)] = edited.pop((1, 2))
    edited[(3, 4)] = ConjugacyResolution("not-found-up-to", max_len=1)
    # the same pairs in reverse order, and a report with no pair at all
    reports[3].conjugacy = dict(reversed(list(reports[3].conjugacy.items())))
    reports[4].conjugacy = {}
    _assert_writer_prints_dumps("g18p", loaded, reports, 1)


def test_certify_document_quotes_the_input_path_as_json_does(tmp_path, capsys):
    spec = {"order": 6, "generators": ["z/(1 - z)", "z/(1 + z)"]}
    # a quote and then the six characters \u0000 end the second name: its
    # text holds that of the string of those six characters, "\\u0000", but
    # not the placeholder that stands for a report's conjugacy value
    for name in ['a "quoted\\ name é.json', 'b "\\u0000']:
        path = tmp_path / name
        path.write_text(json.dumps(spec))
        loaded = load_presentation_file(str(path))
        _assert_certify_prints_dumps(capsys, ["certify", str(path)], str(path), loaded, 8)
    # a scalar named conjugacy is a scalars key that reads "conjugacy"
    var = "conjugacy"
    spec = {
        "order": 6,
        "field": {"conductor": 6, "var": var, "constraints": [f"{var} = 1/(1 - {var})"]},
        "generators": [f"z/{var}", f"z/({var} + z)", f"z/({var} - {var}^5*z)"],
    }
    path = tmp_path / "conjugacy.json"
    path.write_text(json.dumps(spec))
    loaded = load_presentation_file(str(path))
    assert len(loaded) == 2 and all(list(item.scalars) == [var] for item in loaded)
    _assert_certify_prints_dumps(capsys, ["certify", str(path)], str(path), loaded, 8)
