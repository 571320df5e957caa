"""Every public name of ``kssnet`` has a caller in the program itself, and
every defaulted parameter is set by one.

Each module under ``src/kssnet`` is parsed with ``ast``.  Its public
module-level functions and classes, and the public methods of those classes,
must each be named in code under ``src/``, ``bench/`` or ``tools/``: by an
``ast.Name``, an ``ast.Attribute`` or an import.  Tests do not count, nor do
docstrings and comments, which are not code, nor the imports of an
``__init__.py``, which would only re-export the name.

Matching is by name alone.  A method that shares its name with a used one
(a ``zero_grad`` beside ``KssModel.zero_grad``, say) passes although
nothing calls it, so such methods are found and deleted by hand.

A name that is called can still carry a parameter that only tests set, or
none at all; that parameter is then one value spelled as a knob.  Three
kinds of defaulted parameter are checked: those of public functions, those
of public methods of public classes (``__init__`` included, whose callee is
the class name), and the fields of public dataclasses that have a default
and are not ``init=False``.  A parameter counts as set if a call under the
same directories to its callee's name, as an ``ast.Name`` or an
``ast.Attribute``, passes it by keyword or passes enough positional
arguments to reach it.  A call with a ``**mapping`` argument counts as
passing every parameter whose name is a string constant in the calling
module: that is how the toy run's key table in ``cli`` reaches
``make_dataset``, ``GraphPipelineConfig``, ``KssModel`` and ``TrainConfig``.
``ALLOWED_PARAMS`` lists the parameters that may stay unset, each with its
reason; an entry that a caller sets, or that names no checked parameter,
fails the test.

A parameter that every call passes, always as the same constant expression
(a literal, or a tuple or arithmetic of literals, compared as
``ast.unparse`` spells it), is one value too and fails.  This rule covers
every named parameter, required or defaulted, of every module-level
function and of every method of a module-level class (dataclass fields
included), public or private.  A call with a ``*args`` or ``**mapping``
argument may pass anything, so it keeps its callee's parameters out of this
rule.
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

# Defaulted parameters that no call in the program sets, each with its reason.
ALLOWED_PARAMS = {
    "cli.main.argv": "tests drive the command line through main(argv); the entry point "
                     "reads sys.argv",
    "model.KssModel.slope": "the dyadic label-permutation test needs slope 1/4 to stay "
                            "bitwise exact",
}


def _modules():
    return [(path, ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted(PACKAGE.glob("*.py"))]


def public_definitions(path: Path, tree: ast.Module) -> list[str]:
    """``module.name`` and ``module.Class.method`` of every public definition in ``path``."""
    out = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        out.append(f"{path.stem}.{node.name}")
        if isinstance(node, ast.ClassDef):
            out += [f"{path.stem}.{node.name}.{item.name}" for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    return out


def _caller_trees():
    for directory in CALLER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def referenced_names() -> set[str]:
    """Every name used in code under the caller directories, ``__init__.py`` files aside."""
    names = set()
    for path, tree in _caller_trees():
        if path.name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
    return names


def _args(fn: ast.FunctionDef, implicit: int):
    """``(name, positional index or None, has a default)`` of each named parameter of ``fn``.

    A call passes the first positional argument to parameter ``implicit``:
    1 for a method, whose ``self`` the call does not pass.
    """
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    out = [(arg.arg, i - implicit, i >= first) for i, arg in enumerate(positional)
           if i >= implicit]
    out += [(arg.arg, None, default is not None)
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)]
    return out


def _init_false(keywords) -> bool:
    return any(kw.arg == "init" and isinstance(kw.value, ast.Constant) and kw.value.value is False
               for kw in keywords)


def _dataclass_fields(cls: ast.ClassDef):
    """``(name, positional index, has a default)`` of each field of ``cls``'s ``__init__``.

    Empty unless ``cls`` is a dataclass that generates its ``__init__``.
    """
    decorators = [dec for dec in cls.decorator_list
                  if getattr(dec.func if isinstance(dec, ast.Call) else dec, "id", None)
                  == "dataclass"]
    if not decorators or isinstance(decorators[0], ast.Call) and _init_false(decorators[0].keywords):
        return []
    fields = [item for item in cls.body
              if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
              and not (isinstance(item.value, ast.Call) and _init_false(item.value.keywords))]
    return [(item.target.id, i, item.value is not None) for i, item in enumerate(fields)]


def parameters(private: bool) -> list[tuple[str, str, str, int | None, bool]]:
    """``(qualified name, callee, parameter, positional index, has a default)`` of each parameter.

    The parameters of module-level functions and of the methods of
    module-level classes, ``__init__`` included; of public names only
    unless ``private``.
    """
    out = []
    for path, tree in _modules():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or \
                    node.name.startswith("_") and not private:
                continue
            qual = f"{path.stem}.{node.name}"
            if isinstance(node, ast.FunctionDef):
                out += [(f"{qual}.{name}", node.name, name, *rest)
                        for name, *rest in _args(node, 0)]
                continue
            out += [(f"{qual}.{name}", node.name, name, *rest)
                    for name, *rest in _dataclass_fields(node)]
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                if item.name == "__init__":
                    out += [(f"{qual}.{name}", node.name, name, *rest)
                            for name, *rest in _args(item, 1)]
                elif private or not item.name.startswith("_"):
                    out += [(f"{qual}.{item.name}.{name}", item.name, name, *rest)
                            for name, *rest in _args(item, 1)]
    return out


def defaulted_parameters() -> list[tuple[str, str, str, int | None]]:
    """``(qualified name, callee, parameter, positional index)`` of every public defaulted one."""
    return [(qual, callee, name, pos)
            for qual, callee, name, pos, default in parameters(private=False) if default]


def passed_arguments() -> dict[str, list[tuple[float, set[str], ast.Call]]]:
    """Callee name -> ``(positional count, keyword names, call)`` of every call to it."""
    calls: dict[str, list[tuple[float, set[str], ast.Call]]] = {}
    for _, tree in _caller_trees():
        constants = {node.value for node in ast.walk(tree)
                     if isinstance(node, ast.Constant) and isinstance(node.value, str)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is None:
                continue
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            keywords = {kw.arg for kw in node.keywords if kw.arg is not None}
            if any(kw.arg is None for kw in node.keywords):
                keywords |= constants
            calls.setdefault(name, []).append(
                (float("inf") if starred else len(node.args), keywords, node))
    return calls


_CONSTANT_NODES = (ast.Constant, ast.Tuple, ast.List, ast.UnaryOp, ast.BinOp,
                   ast.unaryop, ast.operator, ast.expr_context)


def one_constant(calls, name: str, pos: int | None) -> str | None:
    """The constant expression every call in ``calls`` passes to the parameter, if one.

    None when there is no call, when a call passes nothing there, passes an
    expression that is not constant or has a ``*args`` or ``**mapping``
    argument, or when two calls pass different constants.
    """
    passed = set()
    for _, _, call in calls:
        if any(isinstance(arg, ast.Starred) for arg in call.args) or \
                any(kw.arg is None for kw in call.keywords):
            return None
        values = [kw.value for kw in call.keywords if kw.arg == name]
        if not values and pos is not None and len(call.args) > pos:
            values = [call.args[pos]]
        if not values or not all(isinstance(node, _CONSTANT_NODES)
                                 for node in ast.walk(values[0])):
            return None
        passed.add(ast.unparse(values[0]))
    return passed.pop() if len(passed) == 1 else None


def test_every_public_name_has_a_caller():
    used = referenced_names()
    dead = [name for path, tree in _modules() for name in public_definitions(path, tree)
            if name.rsplit(".", 1)[-1] not in used and name not in ALLOWED]
    assert not dead, "public names nothing calls: " + ", ".join(dead)


def test_every_defaulted_parameter_is_set_by_a_caller():
    calls = passed_arguments()
    unset = [qual for qual, callee, name, pos in defaulted_parameters()
             if not any(name in keywords or (pos is not None and count > pos)
                        for count, keywords, _ in calls.get(callee, ()))]
    stray = [qual for qual in unset if qual not in ALLOWED_PARAMS]
    assert not stray, (f"{len(unset)} defaulted parameters no caller sets, {len(stray)} of "
                       "them not in ALLOWED_PARAMS: " + ", ".join(unset))
    stale = sorted(set(ALLOWED_PARAMS) - set(unset))
    assert not stale, "ALLOWED_PARAMS entries that a caller sets or that do not exist: " + \
        ", ".join(stale)


def test_no_defaulted_parameter_is_one_constant():
    # required parameters and private functions included; see the module docstring
    calls = passed_arguments()
    fixed = [f"{qual} = {value}" for qual, callee, name, pos, _ in parameters(private=True)
             if (value := one_constant(calls.get(callee, ()), name, pos)) is not None]
    assert not fixed, "parameters every call passes as one constant: " + ", ".join(fixed)


def test_every_allowed_name_exists():
    defined = {name for path, tree in _modules() for name in public_definitions(path, tree)}
    assert set(ALLOWED) <= defined
