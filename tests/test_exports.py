"""Every name a levyap module exports in ``__all__`` resolves, every
exported function or class, and every public method, property and
classmethod of an exported class, is used by levyap code, every
defaulted parameter of those functions and methods but one is passed by
some call in levyap or the scripts, no levyap module imports
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
            defs = {n.name: n for n in body if isinstance(n, ast.FunctionDef)}
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
