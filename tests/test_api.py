"""Public API that no pipeline step, CLI command, demo or benchmark uses
should be wired in or deleted: every public function, and every public
method or property of a public class, must be referenced by name somewhere
outside its own definition and the package ``__init__``.  And no module,
test or demo imports a name it never uses."""

import ast
import inspect
from pathlib import Path

import gkzcurve

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "demos", "bench")


def _referenced_names() -> set[str]:
    """Names loaded (``f``) or taken as attributes (``G.f``) in the Python
    files of CALLER_DIRS, the package ``__init__`` excluded.  A ``def``
    binds its name without loading it, and a string never counts."""
    init = ROOT / "src" / "gkzcurve" / "__init__.py"
    names = set()
    for d in CALLER_DIRS:
        for path in (ROOT / d).rglob("*.py"):
            if path == init:
                continue
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


def test_every_public_function_has_a_caller():
    public = [name for name in gkzcurve.__all__
              if inspect.isfunction(getattr(gkzcurve, name))]
    assert public
    unused = sorted(set(public) - _referenced_names())
    assert unused == [], f"public functions with no caller: {unused}"


METHOD_KINDS = (property, classmethod, staticmethod)


def test_every_public_method_has_a_caller():
    public = [
        f"{cls.__name__}.{attr}"
        for cls in (getattr(gkzcurve, name) for name in gkzcurve.__all__)
        if inspect.isclass(cls)
        for attr, value in vars(cls).items()
        if not attr.startswith("_")
        and (inspect.isfunction(value) or isinstance(value, METHOD_KINDS))
    ]
    assert "WeylOperator.from_lattice" in public
    names = _referenced_names()
    unused = sorted(m for m in public if m.split(".")[1] not in names)
    assert unused == [], f"public methods with no caller: {unused}"


IMPORT_SCAN_DIRS = ("src/gkzcurve", "tests", "demos")


def _unused_imports(path: Path) -> list[str]:
    """Names a file imports but never loads: ``import a.b`` binds ``a``,
    ``import a as b`` and ``from m import a as b`` bind ``b``."""
    tree = ast.parse(path.read_text(), str(path))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) \
                and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in sorted(bound.items()) if name not in loaded]


def test_no_unused_imports():
    # the package __init__ imports names to re-export them
    paths = [path for d in IMPORT_SCAN_DIRS for path in sorted((ROOT / d).glob("*.py"))
             if path.name != "__init__.py"]
    assert len(paths) > 20
    unused = [entry for path in paths for entry in _unused_imports(path)]
    assert unused == [], f"imported but never used: {unused}"
