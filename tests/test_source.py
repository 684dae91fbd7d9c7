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


#: list methods that change a list in place.
_LIST_MUTATORS = {"append", "extend", "insert", "pop", "remove", "clear", "sort", "reverse", "__setitem__",
                  "__delitem__", "__iadd__", "__imul__"}


def _table_mutations(tree: ast.Module) -> list[int]:
    """Lines that change the shared state-number table in place.  The table is
    `_NUMBERS`, any attribute of that name, a call of `_numbers`, and every name
    bound from one of those or beside `_NUMBERS` in one assignment."""
    aliases = {"_NUMBERS"}

    def is_table(node: ast.AST) -> bool:
        if isinstance(node, ast.Call):
            func = node.func
            return getattr(func, "id", None) == "_numbers" or getattr(func, "attr", None) == "_numbers"
        return isinstance(node, ast.Name) and node.id in aliases or isinstance(node, ast.Attribute) and node.attr == "_NUMBERS"

    grew = True
    while grew:
        before = len(aliases)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.NamedExpr)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                if node.value is not None and is_table(node.value) or any(is_table(t) for t in targets):
                    aliases.update(t.id for t in targets if isinstance(t, ast.Name))
        grew = len(aliases) > before
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in _LIST_MUTATORS and is_table(node.func.value)
            or isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)) and is_table(node.value)
            or isinstance(node, ast.AugAssign) and is_table(node.target)
        ):
            found.append(node.lineno)
    return sorted(found)


def test_shared_number_table_is_never_changed_in_place():
    """Readers index the table they took without a lock, which holds only while
    growth rebinds `_NUMBERS` to a new list and no list is ever changed."""
    sample = ast.parse(
        "numbers = _NUMBERS\nnumbers.append(1)\n_NUMBERS[0] = 0\nrows = lang._NUMBERS\nrows += [1]\n"
        "del _numbers(3)[0]\nlang._NUMBERS.extend(x)\nnumbers = _NUMBERS = numbers + [1]\nother = [1]\nother.append(2)\n"
    )
    assert _table_mutations(sample) == [2, 3, 5, 6, 7]
    found = [
        f"{path.name}:{lineno}"
        for path in sorted(SRC.glob("*.py"))
        for lineno in _table_mutations(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    ]
    assert found == []
