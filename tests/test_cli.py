import json

import pytest

from germlin.cli import main


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
    from germlin.germs import MAX_WORD_LETTERS
    from germlin.group_cert import MAX_CONDUCTOR, MAX_ORDER

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
