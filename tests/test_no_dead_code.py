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
``ast.unparse`` spells it) or always as the same module-level constant, is
one value too and fails.  A module-level constant is a name assigned once,
at module level under ``src/kssnet``, to a constant expression, and never
rebound (``workers._size``, rebound under ``global``, is none).  A call
reads one by its name, by an import of it or as an attribute of a ``kssnet``
module it imports with ``from``, and it compares as ``module.name``.  This
rule covers every named parameter, required or defaulted, of every
module-level function and of every method of a module-level class (dataclass
fields included), public or private.  A call with a ``*args`` or
``**mapping`` argument may pass anything, so it keeps its callee's
parameters out of this rule.
"""

import ast
from collections import Counter
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


_CONSTANT_NODES = (ast.Constant, ast.Tuple, ast.List, ast.UnaryOp, ast.BinOp,
                   ast.unaryop, ast.operator, ast.expr_context)


def _is_constant(node: ast.AST) -> bool:
    return all(isinstance(child, _CONSTANT_NODES) for child in ast.walk(node))


def _module_level_binds(statements) -> Counter:
    """How often each name is stored to by ``statements``, function and class bodies aside."""
    todo, binds = list(statements), Counter()
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            binds[node.id] += 1
        elif not isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))
    return binds


def _assignment(stmt: ast.stmt):
    """``(name, value)`` of a statement ``name = value`` or ``name: T = value``, else None."""
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        target, value = stmt.targets[0], stmt.value
    elif isinstance(stmt, ast.AnnAssign):
        target, value = stmt.target, stmt.value
    else:
        return None
    return (target.id, value) if isinstance(target, ast.Name) and value is not None else None


def module_constants() -> dict[str, set[str]]:
    """Module name -> the names of its module-level constants (see the module docstring)."""
    out = {}
    for path, tree in _modules():
        binds = _module_level_binds(tree.body)
        rebound = {name for node in ast.walk(tree) if isinstance(node, ast.Global)
                   for name in node.names}
        assignments = [found for stmt in tree.body if (found := _assignment(stmt))]
        out[path.stem] = {name for name, value in assignments
                          if _is_constant(value) and binds[name] == 1 and name not in rebound}
    return out


def visible_constants(path: Path, tree: ast.Module, constants) -> dict[str, str]:
    """``ast.unparse`` spelling -> ``module.name`` of each module-level constant ``tree`` reads.

    Its own, if it is a ``kssnet`` module; those it imports from one; and
    ``alias.name`` for each ``kssnet`` module it imports as ``alias`` with
    ``from``, the one spelling the program uses.
    """
    own = constants.get(path.stem, ()) if path.parent == PACKAGE else ()
    seen = {name: f"{path.stem}.{name}" for name in own}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "kssnet"
                                                 or (node.module or "").startswith("kssnet.")):
            source = (node.module or "").removeprefix("kssnet").lstrip(".")
            for alias in node.names:
                local = alias.asname or alias.name
                if alias.name in constants.get(source, ()):
                    seen[local] = f"{source}.{alias.name}"
                elif not source:  # a module, as in ``from . import autodiff as ad``
                    seen.update({f"{local}.{name}": f"{alias.name}.{name}"
                                 for name in constants.get(alias.name, ())})
    return seen


def passed_arguments() -> dict[str, list[tuple[float, set[str], ast.Call, dict[str, str]]]]:
    """Callee name -> ``(positional count, keyword names, call, constants)`` of every call to it.

    ``constants`` is :func:`visible_constants` of the calling module.
    """
    calls: dict[str, list[tuple[float, set[str], ast.Call, dict[str, str]]]] = {}
    constants = module_constants()
    for path, tree in _caller_trees():
        seen = visible_constants(path, tree, constants)
        strings = {node.value for node in ast.walk(tree)
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
                keywords |= strings
            calls.setdefault(name, []).append(
                (float("inf") if starred else len(node.args), keywords, node, seen))
    return calls


def one_constant(calls, name: str, pos: int | None) -> str | None:
    """The constant every call in ``calls`` passes to the parameter, if one.

    That is a constant expression as ``ast.unparse`` spells it, or a
    module-level constant as ``module.name``.  None when there is no call,
    when a call passes nothing there, passes anything else or has a
    ``*args`` or ``**mapping`` argument, or when two calls pass different
    constants.
    """
    passed = set()
    for _, _, call, seen in calls:
        if any(isinstance(arg, ast.Starred) for arg in call.args) or \
                any(kw.arg is None for kw in call.keywords):
            return None
        values = [kw.value for kw in call.keywords if kw.arg == name]
        if not values and pos is not None and len(call.args) > pos:
            values = [call.args[pos]]
        if not values:
            return None
        spelled = ast.unparse(values[0])
        if spelled in seen:
            passed.add(seen[spelled])
        elif _is_constant(values[0]):
            passed.add(spelled)
        else:
            return None
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
                        for count, keywords, *_ in calls.get(callee, ()))]
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


def test_module_constants_are_assigned_once_and_never_rebound():
    constants = module_constants()
    assert {"_SLOPE", "_K", "_POOL_BLOCK_ELEMS"} <= constants["autodiff"]
    assert "_size" not in constants["workers"]  # rebound under ``global``
    assert "_DTYPES" not in constants["model"]  # a dict, not a constant expression
