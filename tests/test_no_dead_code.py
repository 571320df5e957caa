"""Every public name of ``kssnet`` has a caller in the program itself.

Each module under ``src/kssnet`` is parsed with ``ast``.  Its public
module-level functions and classes, and the public methods of those classes,
must each be named in code under ``src/``, ``bench/`` or ``tools/``: by an
``ast.Name``, an ``ast.Attribute`` or an import.  Tests do not count, nor do
docstrings and comments, which are not code, nor the imports of an
``__init__.py``, which would only re-export the name.

Matching is by name alone.  A method that shares its name with a used one
(a ``zero_grad`` beside ``KssModel.zero_grad``, say) passes although
nothing calls it, so such methods are found and deleted by hand.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "kssnet"
CALLER_DIRS = ("src", "bench", "tools")

# Public names that may have no caller in the program, each with its reason.
ALLOWED = {
    "synthetic.true_conditionals": "test oracle: the analytic conditionals of the planted "
                                   "co-occurrence process",
}


def public_definitions(path: Path) -> list[str]:
    """``module.name`` and ``module.Class.method`` of every public definition in ``path``."""
    out = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        out.append(f"{path.stem}.{node.name}")
        if isinstance(node, ast.ClassDef):
            out += [f"{path.stem}.{node.name}.{item.name}" for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    return out


def referenced_names() -> set[str]:
    """Every name used in code under the caller directories, ``__init__.py`` files aside."""
    names = set()
    for directory in CALLER_DIRS:
        for path in (ROOT / directory).rglob("*.py"):
            if path.name == "__init__.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_every_public_name_has_a_caller():
    used = referenced_names()
    dead = [name for path in sorted(PACKAGE.glob("*.py")) for name in public_definitions(path)
            if name.rsplit(".", 1)[-1] not in used and name not in ALLOWED]
    assert not dead, "public names nothing calls: " + ", ".join(dead)


def test_every_allowed_name_exists():
    defined = {name for path in PACKAGE.glob("*.py") for name in public_definitions(path)}
    assert set(ALLOWED) <= defined
