"""Every name a levyap module exports in ``__all__`` resolves, every
exported function or class, and every public method, property and
classmethod of an exported class, is used by levyap code, every
defaulted parameter of those functions and methods but one is passed by
some call in levyap or the scripts, every record field and every
module-level name of levyap is read somewhere, no levyap module imports
``dataclasses``, and only ``levyap.config`` names the grid rule
``grid_steps``."""

import ast
import importlib
import inspect
import math
import pkgutil
import types
from collections import Counter, defaultdict
from pathlib import Path

import pytest

import levyap

MODULES = sorted(info.name for info in pkgutil.iter_modules(levyap.__path__))


def test_every_module_is_found():
    assert {"cli", "coefficients", "solver"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_export_list_resolves(name):
    module = importlib.import_module(f"levyap.{name}")
    exported = getattr(module, "__all__", None)
    assert exported, f"levyap.{name} has no __all__"
    assert len(set(exported)) == len(exported), f"levyap.{name}.__all__ repeats a name"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"levyap.{name}.__all__ names what it lacks: {missing}"


def imported_modules(source: str) -> set[str]:
    """The modules that the import statements of ``source`` name."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return names


def test_no_module_imports_dataclasses():
    """Records are namedtuples or plain classes: ``import dataclasses``
    loads ``inspect`` and its helpers, and its class builds cost start-up
    time on every run."""
    sources = sorted(Path(levyap.__file__).parent.glob("*.py"))
    assert len(sources) == len(MODULES) + 1  # and __init__.py
    importers = [
        path.name
        for path in sources
        if any(
            name == "dataclasses" or name.startswith("dataclasses.")
            for name in imported_modules(path.read_text(encoding="utf-8"))
        )
    ]
    assert importers == []


def named(source) -> set[str]:
    """Every identifier ``source`` (a text or a syntax tree) names:
    variables, attributes, imports and definitions."""
    names = set()
    for node in ast.walk(ast.parse(source) if isinstance(source, str) else source):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update({node.name, node.asname})
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


def test_only_config_reads_times_as_grid_steps():
    """Times become whole grid steps once, in ``validate_config``; the
    sampler, the solver and the scan take the steps the run carries."""
    sources = sorted(Path(levyap.__file__).parent.glob("*.py"))
    users = [path.stem for path in sources if "grid_steps" in named(path.read_text("utf-8"))]
    assert users == ["config"]


def accessed(tree) -> Counter:
    """How often each attribute name is accessed (``x.name``) in ``tree``."""
    return Counter(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))


def public_members(cls) -> list[str]:
    """The public methods, properties, classmethods and staticmethods that
    the body of ``cls`` defines."""
    kinds = (types.FunctionType, property, classmethod, staticmethod)
    return [
        name
        for name, member in vars(cls).items()
        if not name.startswith("_") and isinstance(member, kinds)
    ]


def test_every_export_is_used():
    """Each function or class a module exports is named by levyap code
    outside its own definition, and each public method, property and
    classmethod of an exported class is accessed as an attribute outside
    its own definition: the library is what the commands run."""
    root = Path(levyap.__file__).parent
    trees = {path.stem: ast.parse(path.read_text("utf-8")) for path in root.glob("*.py")}
    statements = [
        (stem, node, named(node)) for stem, tree in trees.items() for node in tree.body
    ]
    access = sum((accessed(tree) for tree in trees.values()), Counter())
    unused = set()
    for name in MODULES:
        module = importlib.import_module(f"levyap.{name}")
        for attr in module.__all__:
            obj = getattr(module, attr)
            if not callable(obj):
                continue
            if not any(
                attr in names
                for stem, node, names in statements
                if not (stem == name and getattr(node, "name", None) == attr)
            ):
                unused.add((name, attr))
            members = public_members(obj) if isinstance(obj, type) else []
            if not members:
                continue
            body = next(n for n in trees[name].body if getattr(n, "name", None) == attr).body
            # a def, or an assignment such as ``grid = NoiseSample.grid``
            defs = {n.name: n for n in body if isinstance(n, ast.FunctionDef)}
            defs.update((t.id, n) for n in body if isinstance(n, ast.Assign) for t in n.targets)
            for member in members:
                if access[member] == accessed(defs[member])[member]:
                    unused.add((name, f"{attr}.{member}"))
    assert unused == set()


def passed_arguments(paths):
    """For each name called in the files ``paths`` (``f(...)`` or
    ``x.f(...)``), the keywords its calls pass and the most positional
    arguments one call passes: two dicts.  ``**`` passes every keyword
    (None) and ``*`` any number of positions."""
    keywords, positions = defaultdict(set), defaultdict(int)
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            keywords[name].update(k.arg for k in node.keywords)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            positions[name] = max(positions[name], math.inf if starred else len(node.args))
    return keywords, positions


def defaulted_parameters(func, skip: int):
    """(name, position) of each parameter of ``func`` with a default,
    the position counted after the first ``skip`` parameters (self or
    cls) and None for a keyword-only one."""
    params = list(inspect.signature(func).parameters.values())[skip:]
    for i, p in enumerate(params):
        if p.default is not inspect.Parameter.empty:
            positional = p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
            yield p.name, i if positional else None


def exported_callables():
    """(label, name, function, skip) for each exported function and each
    public method, classmethod and staticmethod of an exported class;
    ``skip`` counts the parameter that binding fills (self or cls)."""
    for name in MODULES:
        module = importlib.import_module(f"levyap.{name}")
        for attr in module.__all__:
            obj = getattr(module, attr)
            if isinstance(obj, types.FunctionType):
                yield f"{name}.{attr}", attr, obj, 0
            elif isinstance(obj, type):
                for m in public_members(obj):
                    member, label = vars(obj)[m], f"{name}.{attr}.{m}"
                    if isinstance(member, staticmethod):
                        yield label, m, member.__func__, 0
                    elif isinstance(member, classmethod):
                        yield label, m, member.__func__, 1
                    elif isinstance(member, types.FunctionType):
                        yield label, m, member, 1


# defaulted parameters (as "module.function: parameter") that only the
# tests pass, each with the reason it stays
TEST_ONLY_PARAMETERS = {
    # the witness (test function, box and Lipschitz constant) that
    # certifies beta, which ROADMAP plans to write into apscan_report.json
    "apdist.bl_distance: return_witness",
}


def test_every_defaulted_parameter_is_passed():
    """Each parameter with a default of an exported function, or of a
    public method, classmethod or staticmethod of an exported class, is
    passed by keyword or by position by some call in levyap or the
    scripts, but for the listed few: a default that only the tests
    override is a knob that no command turns."""
    root = Path(__file__).parents[1]
    paths = [*Path(levyap.__file__).parent.glob("*.py"), *(root / "scripts").glob("*.py")]
    keywords, positions = passed_arguments(paths)
    unpassed = []
    for label, fname, func, skip in exported_callables():
        for param, position in defaulted_parameters(func, skip):
            if not (
                {param, None} & keywords[fname]
                or (position is not None and positions[fname] > position)
            ):
                unpassed.append(f"{label}: {param}")
    assert set(unpassed) == TEST_ONLY_PARAMETERS


def project_trees() -> dict[Path, ast.Module]:
    """The syntax tree of each module of levyap, the scripts and the tests."""
    root = Path(__file__).parents[1]
    dirs = (Path(levyap.__file__).parent, root / "scripts", root / "tests")
    paths = [path for d in dirs for path in sorted(d.glob("*.py"))]
    return {path: ast.parse(path.read_text("utf-8")) for path in paths}


def test_every_record_field_is_read():
    """Each attribute that levyap code stores on ``self``, and each field
    of a ``namedtuple("Name", "a b ...")`` whose fields are a string
    literal, is read as an attribute (``x.field``) somewhere in levyap,
    the scripts or the tests: a field that nothing reads is state kept
    for no one.  The config section records are out of scope: their
    fields come from the key tables, not a literal, and the echo reads
    them field by field (``config._write_fields``)."""
    trees = project_trees()
    package = Path(levyap.__file__).parent
    fields = set()
    for path, tree in trees.items():
        if path.parent != package:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                fields.update(
                    (f"{path.stem}.{node.name}", n.attr)
                    for n in ast.walk(node)
                    if isinstance(n, ast.Attribute)
                    and isinstance(n.ctx, ast.Store)
                    and isinstance(n.value, ast.Name)
                    and n.value.id == "self"
                )
            elif (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "namedtuple"
                and isinstance(node.args[1], ast.Constant)
            ):
                record = f"{path.stem}.{node.args[0].value}"
                fields.update((record, field) for field in node.args[1].value.split())
    read = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    assert len(fields) > 100
    assert sorted(f"{record}.{field}" for record, field in fields if field not in read) == []


def bound_names(stmt) -> list[str]:
    """The names a module's top-level statement binds: a def, a class,
    the targets of an assignment, an import (``from __future__`` aside),
    and those of the statements of an ``if``."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    if isinstance(stmt, ast.Import):
        return [(alias.asname or alias.name).split(".")[0] for alias in stmt.names]
    if isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
        return [alias.asname or alias.name for alias in stmt.names]
    if isinstance(stmt, ast.If):
        return [name for s in stmt.body + stmt.orelse for name in bound_names(s)]
    return []


def test_every_module_name_is_read():
    """Each name that a levyap module binds at its top level, a dunder
    name aside, is read (``name`` or ``x.name``) by a top-level
    statement of levyap, the scripts or the tests other than the one
    that binds it: a helper, a constant or an import that nothing reads
    is dead code."""
    trees = project_trees()
    package = Path(levyap.__file__).parent
    readers = defaultdict(list)
    for tree in trees.values():
        for stmt in tree.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    readers[node.id].append(stmt)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    readers[node.attr].append(stmt)
    bound, unread = 0, []
    for path, tree in trees.items():
        if path.parent != package:
            continue
        for stmt in tree.body:
            for name in bound_names(stmt):
                if name.startswith("__") and name.endswith("__"):
                    continue
                bound += 1
                if all(reader is stmt for reader in readers[name]):
                    unread.append(f"{path.stem}.{name}")
    assert bound > 300
    assert unread == []
