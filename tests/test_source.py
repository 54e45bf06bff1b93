"""Source hygiene checks on ``src/germlin``."""

import ast
import importlib
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "germlin"
README = SRC.parent.parent / "README.md"


def _defined_names(stmt):
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = []
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _referenced_names(stmt):
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_no_unused_imports():
    # __init__.py imports names to re-export them
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    # "import a.b" binds a
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert unused == [], "imported names the module never uses"


def test_no_unused_private_module_names():
    # one entry per top-level statement of every module: (where, defines, uses)
    statements = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for stmt in tree.body:
            statements.append(
                (f"{path.name}:{stmt.lineno}", _defined_names(stmt), _referenced_names(stmt))
            )
    unused = []
    for where, defines, _ in statements:
        for name in defines:
            if not name.startswith("_") or name.startswith("__"):
                continue
            if not any(
                name in uses for other, _, uses in statements if other != where
            ):
                unused.append(f"{where} {name}")
    assert unused == [], "private names used nowhere but in their definition"


def _limits_table_constants():
    """The constant column of the README table headed | limit | value | constant |."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("| limit | value | constant |")
    constants = set()
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        constants.add(line.rstrip(" |").rsplit("|", 1)[1].strip().strip("`"))
    return constants


def test_every_limit_is_in_the_readme_table():
    limits = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        limits += [
            f"{path.stem}.{name}"
            for stmt in tree.body
            for name in _defined_names(stmt)
            if name.startswith("MAX_")
        ]
    assert {"group_cert.MAX_ORDER", "pforms.MAX_FORM_DEGREE"} <= set(limits)
    missing = sorted(set(limits) - _limits_table_constants())
    assert missing == [], "MAX_* constants missing from the README limits table"


def test_module_references_in_docstrings_resolve():
    # a double-backquoted ``module.name`` whose module is a germlin module
    # names an attribute that module has
    modules = {path.stem for path in SRC.glob("*.py")} - {"__init__"}
    checked, missing = set(), []
    for path in sorted(SRC.glob("*.py")):
        for module, name in re.findall(r"``(\w+)\.(\w+)``", path.read_text(encoding="utf-8")):
            if module in modules:
                checked.add(f"{module}.{name}")
                if not hasattr(importlib.import_module(f"germlin.{module}"), name):
                    missing.append(f"{path.name}: {module}.{name}")
    assert "jets._weighted_sum" in checked
    assert missing == [], "docstring references to names the module does not have"


def test_rows_cross_module_boundaries_only_as_jet_row():
    # the conversions between a coefficient list and a row belong to jets.py;
    # every other module reads and builds jets through Jet.row and the API
    names = ("_sparse_row", "_row_coeffs")
    used = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found = {name for stmt in tree.body for name in _referenced_names(stmt)}
        used += [f"{path.name} {name}" for name in names if name in found]
    assert sorted(used) == ["jets.py _row_coeffs", "jets.py _sparse_row"]


def test_every_all_name_is_bound():
    # a stale __all__ entry does not break "import germlin.x", only "from
    # germlin.x import *", so deleting a name can leave one behind
    checked, unbound = [], []
    for path in sorted(SRC.glob("*.py")):
        dotted = "germlin" if path.stem == "__init__" else f"germlin.{path.stem}"
        module = importlib.import_module(dotted)
        for name in getattr(module, "__all__", ()):
            checked.append(f"{path.stem}.{name}")
            if not hasattr(module, name):
                unbound.append(f"{path.name}: {name}")
    assert "jets.Jet" in checked
    assert unbound == [], "__all__ names that the module does not bind"


def test_report_layout_is_spelled_only_in_group_cert():
    # the keys of a report's JSON object are written out in one module; the
    # certify command encodes that object and never lays it out again
    keys = ("multipliers_all_equal", "theorem_a_applicable", "prime_power")
    spelled = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                words = re.findall(r"\w+", node.value)
                spelled |= {(path.name, key) for key in keys if key in words}
    assert spelled == {("group_cert.py", key) for key in keys}
