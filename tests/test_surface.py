"""Every function, class and method of ``src/ebusopt`` has a caller.

A name counts as reached when code in ``src/`` or ``perfbench/`` refers to
it outside its own definition: a function or class as a name, an attribute
or an import, a method or property of a class only as an attribute
(``obj.name``), so a local variable or a parameter of the same name does
not reach it.  Matching is by name only, so a method shares its reach with
every other attribute of that name.  Names reached only from tests or
through click stay on ``ALLOWED`` with the reason they are kept; an entry
whose name is gone or is now reached is stale.
"""

import ast
import pathlib
from collections import defaultdict

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ebusopt"

_CLICK = "a click command of the ebusopt CLI"

ALLOWED = {
    "chargemodel.compose_steps_check":
        "acceptance criterion 5 (iterated vs direct increment)",
    "chargemodel.spline_charge_curve":
        "acceptance criterion 4 (the spline baseline)",
    "chargemodel.detect_spline_oscillation":
        "acceptance criterion 4 (the spline baseline oscillates)",
    "chargemodel.OscillationWitness.conclusive":
        "acceptance criterion 4 reads the oscillation witness through it",
    "chargemodel.propagate_course":
        "acceptance criterion 6 (course propagation, exact and PWL)",
    "cli.cmd_generate_worst_case": _CLICK,
    "cli.cmd_generate_synthetic": _CLICK,
    "cli.cmd_solve": _CLICK,
    "cli.cmd_sweep": _CLICK,
    "cli.cmd_compare_estimators": _CLICK,
}


def _definitions():
    """(key, name, member, path, first line, last line) per function, class
    and method, ``member`` true inside a class; dunder methods are called
    implicitly and are left out."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem

        def visit(body, prefix, member):
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    name = node.name
                    if not (name.startswith("__") and name.endswith("__")):
                        out.append((f"{prefix}.{name}", name, member, path,
                                    node.lineno, node.end_lineno))
                    if isinstance(node, ast.ClassDef):
                        visit(node.body, f"{prefix}.{name}", True)

        visit(ast.parse(path.read_text()).body, module, False)
    return out


def _references():
    """``(names, attributes)``: name -> [(path, line)] of every use in
    ``src/`` and ``perfbench/``, and of the uses as an attribute alone."""
    names, attributes = defaultdict(list), defaultdict(list)
    for base in ("src", "perfbench"):
        for path in sorted((ROOT / base).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names[node.id].append((path, node.lineno))
                elif isinstance(node, ast.Attribute):
                    names[node.attr].append((path, node.lineno))
                    attributes[node.attr].append((path, node.lineno))
                elif isinstance(node, ast.alias):
                    names[node.name.rsplit(".", 1)[-1]].append(
                        (path, node.lineno))
    return names, attributes


def _unreached() -> set:
    names, attributes = _references()
    return {key for key, name, member, path, lo, hi in _definitions()
            if all(p == path and lo <= line <= hi for p, line in
                   (attributes if member else names).get(name, []))}


def test_every_name_is_reached_or_allowed():
    extra = sorted(_unreached() - set(ALLOWED))
    assert not extra, (
        f"no caller in src/ or perfbench/: {extra}; delete them, or add "
        f"them to ALLOWED with the reason they are kept")


def test_allowlist_is_not_stale():
    defined = {key for key, *_ in _definitions()}
    unreached = _unreached()
    gone = sorted(set(ALLOWED) - defined)
    reached = sorted(set(ALLOWED) & defined - unreached)
    assert not gone, f"ALLOWED names that no longer exist: {gone}"
    assert not reached, f"ALLOWED names that now have a caller: {reached}"

