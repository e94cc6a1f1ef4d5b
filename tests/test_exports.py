"""The public surface is consistent: every exported name exists, the package
root re-exports exactly the library modules' ``__all__``, and every public
name is used by the program, not only by the tests."""

import ast
import importlib
import pathlib
import types

import fastchain

PACKAGE = pathlib.Path(fastchain.__file__).parent
ROOT = pathlib.Path(__file__).resolve().parents[1]
LIBRARY = sorted(p.stem for p in PACKAGE.glob("*.py")
                 if not p.stem.startswith("_") and p.stem != "cli")


def test_exports_exist_and_package_imports_are_exported():
    stale = []
    for path in sorted(PACKAGE.glob("*.py")):
        name = "fastchain" if path.stem == "__init__" else f"fastchain.{path.stem}"
        module = importlib.import_module(name)
        stale += [f"{name}.{attr}" for attr in getattr(module, "__all__", ())
                  if not hasattr(module, attr)]
    assert not stale, stale
    exported = set()
    for name in LIBRARY:
        exported |= set(importlib.import_module(f"fastchain.{name}").__all__)
    root = {name for name, value in vars(fastchain).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert root == exported, (sorted(root - exported), sorted(exported - root))


def loaded_outside_tests() -> set:
    """Every name read and attribute accessed in the library (its package
    root aside), in demos/ and in perfbench/, and every name those two
    import from fastchain."""
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    scripts = [*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    names = set()
    for path in files + scripts:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif (isinstance(node, ast.ImportFrom) and path in scripts
                  and (node.module or "").startswith("fastchain")):
                names.update(alias.name for alias in node.names)
    return names


def test_every_public_name_is_used_outside_the_tests():
    """A name in a library module's ``__all__`` or a public method of a class
    in the package that only the tests call belongs in the tests."""
    used = loaded_outside_tests()
    unused = [name for module in LIBRARY
              for name in importlib.import_module(f"fastchain.{module}").__all__
              if name not in used]
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if isinstance(cls, ast.ClassDef):
                unused += [f"{path.stem}.{cls.name}.{f.name}" for f in cls.body
                           if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")
                           and f.name not in used]
    assert not unused, unused
