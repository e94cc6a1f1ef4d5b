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


def literal(node):
    """The value of a literal expression node, or ``node`` itself, which
    equals no other value."""
    try:
        return ast.literal_eval(node)
    except ValueError:
        return node


def same(a, b) -> bool:
    return type(a) is type(b) and a == b


def defaulted_parameters() -> list:
    """(callee name, parameter, position or None, default) of every
    defaulted parameter of a function in a library module's ``__all__`` and
    of a public method of a class in those lists; a method's positions count
    after ``self`` or ``cls``, and a keyword-only parameter has none."""
    out = []
    for module in LIBRARY:
        public = set(importlib.import_module(f"fastchain.{module}").__all__)
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        functions = []
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name in public:
                functions.append((node, 0))
            elif isinstance(node, ast.ClassDef) and node.name in public:
                functions += [(f, 0 if any(getattr(d, "id", None) == "staticmethod"
                                          for d in f.decorator_list) else 1)
                              for f in node.body
                              if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")]
        for f, skip in functions:
            positional = [*f.args.posonlyargs, *f.args.args][skip:]
            defaulted = positional[len(positional) - len(f.args.defaults):]
            out += [(f.name, a.arg, positional.index(a), literal(d))
                    for a, d in zip(defaulted, f.args.defaults)]
            out += [(f.name, a.arg, None, literal(d))
                    for a, d in zip(f.args.kwonlyargs, f.args.kw_defaults) if d is not None]
    return out


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    """A defaulted parameter of the public surface that only the tests set
    is a knob the program never turns: some call in the library (its
    package root aside), in demos/ or in perfbench/, matched by the callee's
    name, passes it, by keyword or by position, a value other than its
    default written as a literal."""
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += [*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    passed = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                passed += [(callee, k.arg, literal(k.value)) for k in node.keywords if k.arg]
                passed += [(callee, k, literal(a)) for k, a in enumerate(node.args)]
    unset = [f"{name}.{arg}" for name, arg, pos, default in defaulted_parameters()
             if not any(callee == name and key in (arg, pos) and not same(value, default)
                        for callee, key, value in passed)]
    assert not unset, unset
