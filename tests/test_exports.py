"""The public surface is consistent: every exported name exists, and the
package root imports only names its source modules export."""

import ast
import importlib
import pathlib

import fastchain

PACKAGE = pathlib.Path(fastchain.__file__).parent


def test_exports_exist_and_package_imports_are_exported():
    stale = []
    for path in sorted(PACKAGE.glob("*.py")):
        name = "fastchain" if path.stem == "__init__" else f"fastchain.{path.stem}"
        module = importlib.import_module(name)
        stale += [f"{name}.{attr}" for attr in getattr(module, "__all__", ())
                  if not hasattr(module, attr)]
    for node in ast.parse((PACKAGE / "__init__.py").read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            exported = importlib.import_module(f"fastchain.{node.module}").__all__
            stale += [f"{node.module}.{a.name} (not in __all__)" for a in node.names
                      if a.name not in exported]
    assert not stale, stale
