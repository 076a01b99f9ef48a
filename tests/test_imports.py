"""The package needs numpy alone at run time; scipy is a test oracle only."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import fexpsmc

PACKAGE_DIR = Path(fexpsmc.__file__).parent
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "fexpsmc"}


def test_importing_the_package_and_cli_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE_DIR.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys, fexpsmc, fexpsmc.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def _imported_top_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_package_imports_only_stdlib_numpy_and_itself():
    # every import statement counts, a function-level one included, so a
    # lazy import of a third-party module cannot slip back in
    bad = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        bad += [f"{path.name}:{line} imports {name}"
                for line, name in _imported_top_names(tree) if name not in ALLOWED]
    assert not bad, "\n".join(bad)


def test_every_all_entry_resolves():
    # a name deleted from a module but left in its __all__ fails here
    missing = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        name = "fexpsmc" if path.stem == "__init__" else f"fexpsmc.{path.stem}"
        module = importlib.import_module(name)
        missing += [f"{name}.{entry}" for entry in getattr(module, "__all__", ())
                    if not hasattr(module, entry)]
    assert not missing, missing


#: submodule __all__ entries kept although neither the package namespace
#: nor the package's own code uses them, each with its reason
PUBLIC_ONLY = {
    "model.sample_prior": "the single-theta prior draw for users; the samplers draw populations",
}


def _all_entries(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def _uses(tree, name, skip=()):
    """Loads of ``name`` as a bare name or an attribute, outside the subtrees
    ``skip``; strings (docstrings, __all__) are not uses."""
    skipped = {id(n) for node in skip for n in ast.walk(node)}
    return sum(1 for n in ast.walk(tree) if id(n) not in skipped and (
        (isinstance(n, ast.Name) and n.id == name and isinstance(n.ctx, ast.Load))
        or (isinstance(n, ast.Attribute) and n.attr == name)))


def test_every_public_name_is_exported_or_used_by_the_package():
    # a submodule's public name the package neither exports nor calls is a
    # test-only seam: delete it, or allow it in PUBLIC_ONLY with its reason
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE_DIR.glob("*.py"))}
    exported = set(_all_entries(trees["__init__"]))
    unused = []
    for stem, tree in trees.items():
        if stem == "__init__":
            continue
        for name in _all_entries(tree):
            if name in exported:
                continue
            # its own body (a recursive call, a class naming itself) is no use
            home = [n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))
                    and n.name == name]
            if not sum(_uses(t, name, home if s == stem else ()) for s, t in trees.items()):
                unused.append(f"{stem}.{name}")
    assert sorted(set(unused) - set(PUBLIC_ONLY)) == []
    assert sorted(set(PUBLIC_ONLY) - set(unused)) == [], "stale PUBLIC_ONLY entries"
