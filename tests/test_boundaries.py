"""Module boundaries: no private names cross modules, only jsonio reads or writes JSON, and no
module-level import goes unused."""

import ast
import pathlib

import flexshop

SRC = pathlib.Path(flexshop.__file__).resolve().parent
TESTS = pathlib.Path(__file__).resolve().parent


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


def test_every_exported_name_resolves():
    missing = [name for name in flexshop.__all__ if not hasattr(flexshop, name)]
    assert missing == []
    assert len(set(flexshop.__all__)) == len(flexshop.__all__)


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
        if path == SRC / "__init__.py":
            continue  # its imports are the package's exports
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.parent.name}/{path.name}:{line} imports {name}, which is never used"
                   for name, line in imported_names(tree).items() if name not in used]
    assert unused == []
