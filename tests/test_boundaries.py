"""Module boundaries: imports point down one layer order, no private names cross modules, only
jsonio reads or writes JSON, no module-level import goes unused, and no public name serves only
the tests."""

import ast
import pathlib

import flexshop

SRC = pathlib.Path(flexshop.__file__).resolve().parent
TESTS = pathlib.Path(__file__).resolve().parent
BENCH = TESTS.parent / "bench"


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_module_imports_a_private_name_from_a_sibling():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("flexshop"):
                continue  # the standard library
            offenders += [f"{path.name}:{node.lineno} imports {alias.name} from "
                          f"{'.' * node.level}{node.module or ''}"
                          for alias in node.names if is_private(alias.name)]
    assert offenders == []


def test_only_jsonio_imports_json():
    importers = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module or ""]
            else:
                continue
            if any(module.split(".")[0] == "json" for module in modules):
                importers.add(path.name)
    assert importers == {"jsonio.py"}


# The layer order: rng, model, timing, generator, jsonio, milp, gantt, solvers, cli. The row check
# in milp is an independent witness of the placement code in timing, so it must not load it.
IMPORTS = {
    "__init__": set(), "rng": set(), "model": set(),
    "timing": {"model"}, "generator": {"model", "rng"}, "jsonio": {"model"}, "milp": {"model"},
    "gantt": {"model"}, "solvers": {"model", "timing"},
    "cli": {"__init__", "gantt", "generator", "jsonio", "milp", "model", "solvers", "timing"},
}


def sibling_imports(tree: ast.Module) -> set[str]:
    """The modules named by every ``from .x import`` in a module; ``from . import x`` names ``__init__``."""
    return {node.module or "__init__" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level}


def test_imports_point_down_the_layer_order():
    graph = {path.stem: sibling_imports(ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(SRC.glob("*.py"))}
    assert graph == IMPORTS


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Names bound by the module-level imports, with their line numbers."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def test_every_module_level_import_is_used():
    unused = []
    for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.parent.name}/{path.name}:{line} imports {name}, which is never used"
                   for name, line in imported_names(tree).items() if name not in used]
    assert unused == []


def public_definitions(tree: ast.Module) -> list[str]:
    """The public names a module's top-level functions, classes and assignments define."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
    return [name for name in names if not name.startswith("_")]


def referenced_names(tree: ast.Module) -> set[str]:
    """Every name a module reads, as a bare name, an attribute or an imported name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_public_name_serves_the_package_or_the_benchmark():
    # a public name only the tests read belongs in the tests; a name its own module reads counts as used
    sources = sorted(SRC.glob("*.py"))
    used = set().union(*(referenced_names(ast.parse(path.read_text(encoding="utf-8")))
                         for path in sources + sorted(BENCH.glob("*.py"))))
    unused = [f"{path.name}: {name}" for path in sources
              for name in public_definitions(ast.parse(path.read_text(encoding="utf-8"))) if name not in used]
    assert unused == []
