"""Properties of the library source itself."""

from __future__ import annotations

import ast
import builtins
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hyperc"


def test_no_assert_statements():
    """`python -O` strips assert statements, so no invariant may rely on one."""
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _names_used(tree: ast.Module) -> set[str]:
    """Every name a module reads, including those inside string annotations."""
    annotations = [
        node.annotation if isinstance(node, (ast.arg, ast.AnnAssign)) else node.returns
        for node in ast.walk(tree)
        if isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    quoted = [
        ast.parse(node.value, mode="eval")
        for annotation in annotations
        if annotation is not None
        for node in ast.walk(annotation)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    ]
    return {node.id for root in (tree, *quoted) for node in ast.walk(root) if isinstance(node, ast.Name)}


def test_no_unused_imports():
    """A name imported and never read is left over from a deletion."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = _names_used(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


def test_no_dataclasses_import():
    """Values sit on `errors.Value`; `dataclasses` would pull `inspect` into every
    call.  The walk reaches imports inside functions, which a run of one verb may miss."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Import) and any(alias.name.split(".")[0] == "dataclasses" for alias in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dataclasses"
    ]
    assert found == []


#: The attribute protocol's own refusals: a module `__getattr__` and the immutable value base.
_BUILTIN_RAISES_ALLOWED = {
    ("__init__.py", "__getattr__", "AttributeError"),
    ("errors.py", "Value.__setattr__", "AttributeError"),
    ("errors.py", "Value.__delattr__", "AttributeError"),
}


def _raises(node: ast.AST, scope: str = ""):
    """(enclosing qualified name, raised class name) of every `raise Name(...)` or `raise Name`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _raises(child, f"{scope}.{child.name}".lstrip("."))
            continue
        if isinstance(child, ast.Raise) and child.exc is not None:
            exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
            if isinstance(exc, ast.Name):
                yield child.lineno, scope, exc.id
        yield from _raises(child, scope)


def test_no_builtin_exception_raised():
    """Every refusal is a `HypercError`, so the CLI's one `except HypercError`
    turns any of them into exit 2; only the attribute protocol raises a builtin."""
    found = [
        f"{path.name}:{lineno} {scope} raises {name}"
        for path in sorted(SRC.glob("*.py"))
        for lineno, scope, name in _raises(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(getattr(builtins, name, None), type)
        and issubclass(getattr(builtins, name), BaseException)
        and (path.name, scope, name) not in _BUILTIN_RAISES_ALLOWED
    ]
    assert found == []



_LIMIT_MODEL = ("operation", "measured", "bound", "knob")


def _is_text(node: ast.expr) -> bool:
    return isinstance(node, ast.JoinedStr) or isinstance(node, ast.Constant) and isinstance(node.value, str)


def test_limit_errors_pass_the_four_model_arguments():
    """Every limit error is built from (operation, measured, bound, knob), so only
    `errors.LimitExceeded` words its message: no call passes a preformatted text,
    a splat, a text bound or a formatted knob."""
    calls = [
        (path.name, node)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("LimitExceeded", "UniverseTooLarge")
    ]
    assert len(calls) >= 11
    found = []
    for name, node in calls:
        model = dict(zip(_LIMIT_MODEL, node.args)) | {k.arg: k.value for k in node.keywords}
        if (
            len(node.args) + len(node.keywords) != len(_LIMIT_MODEL)
            or set(model) != set(_LIMIT_MODEL)
            or any(isinstance(arg, ast.Starred) for arg in node.args)
            or _is_text(model["bound"])
            or isinstance(model["knob"], ast.JoinedStr)
        ):
            found.append(f"{name}:{node.lineno}")
    assert found == []


#: Where a `Value` subclass's public, checking constructor may be called, as
#: (module, enclosing qualified name, class), "*" for any: where outside input
#: enters (documents, the oracle's own draws and the two public builders), and
#: the two classes whose constructors check nothing.  Every other value the
#: library builds takes its class's trusted door, `_trusted`.
_PUBLIC_CONSTRUCTORS_ALLOWED = {
    ("jsonio.py", "*", "*"),
    ("oracle.py", "*", "*"),
    ("contracts.py", "from_s", "InterfaceHypercontract"),
    ("behavioral.py", "Component.from_behaviors", "Component"),
    ("*", "*", "Incompatible"),
    ("*", "*", "ConvexityReport"),
}


def _value_classes(trees: dict[str, ast.Module]) -> set[str]:
    """The names of the classes that derive from `Value`, directly or through another."""
    bases = {
        node.name: {getattr(base, "id", None) or getattr(base, "attr", None) for base in node.bases}
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }
    values = {"Value"}
    while grown := {name for name, parents in bases.items() if parents & values} - values:
        values |= grown
    return values - {"Value"}


def _constructor_calls(node: ast.AST, values: set[str], scope: str = "", owner: str = ""):
    """(line, enclosing qualified name, class) of every call of a value class by
    name, as an attribute, or as `cls` inside a method of a value class."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = child.name if isinstance(child, ast.ClassDef) else owner
            yield from _constructor_calls(child, values, f"{scope}.{child.name}".lstrip("."), inner)
            continue
        if isinstance(child, ast.Call):
            func = child.func
            name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
            if name == "cls":
                name = owner
            if name in values:
                yield child.lineno, scope, name
        yield from _constructor_calls(child, values, scope, owner)


def _allowed_by(module: str, scope: str, name: str) -> set[tuple[str, str, str]]:
    return {
        rule
        for rule in _PUBLIC_CONSTRUCTORS_ALLOWED
        if all(pattern in ("*", value) for pattern, value in zip(rule, (module, scope, name)))
    }


def test_public_constructors_only_where_outside_input_enters():
    """Validation once: a result the library builds skips the checks its operands
    already passed.  The allowed sites are listed exactly: each is used."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in SRC.glob("*.py")}
    values = _value_classes(trees)
    assert {"RegularLanguage", "IoSignature", "InterfaceAutomaton", "Component", "AgContract"} <= values
    sample = ast.parse("class Box(Value):\n    @classmethod\n    def of(cls):\n        return cls(1)\n\nx = m.Box(2)\n")
    assert list(_constructor_calls(sample, {"Box"})) == [(4, "Box.of", "Box"), (6, "", "Box")]
    calls = [
        (module, line, scope, name)
        for module, tree in sorted(trees.items())
        for line, scope, name in _constructor_calls(tree, values)
    ]
    found = [
        f"{module}:{line} {scope or '<module>'} calls {name}(...)"
        for module, line, scope, name in calls
        if not _allowed_by(module, scope, name)
    ]
    assert found == []
    used = set().union(*(_allowed_by(module, scope, name) for module, _, scope, name in calls))
    assert used == _PUBLIC_CONSTRUCTORS_ALLOWED
