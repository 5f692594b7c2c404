"""The public names the demos and README import exist, without running them,
the library runs on numpy alone, and its modules hold no unused import and
no private helper that nothing reads."""
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dilsamp

ROOT = Path(__file__).resolve().parent.parent
README_BLOCK = re.compile(r"^```python\n(.*?)^```", re.DOTALL | re.MULTILINE)


def _sources():
    for path in sorted((ROOT / "demos").glob("*.py")):
        yield path.name, path.read_text()
    blocks = README_BLOCK.findall((ROOT / "README.md").read_text())
    for i, block in enumerate(blocks):
        yield f"README.md python block {i + 1}", block


SOURCES = list(_sources())


def test_there_is_something_to_check():
    assert any(name.startswith("README") for name, _ in SOURCES)
    assert any(name.endswith(".py") for name, _ in SOURCES)


@pytest.mark.parametrize("name,source", SOURCES, ids=[n for n, _ in SOURCES])
def test_imports_from_dilsamp_are_exported(name, source):
    imported = [
        alias.name
        for node in ast.walk(ast.parse(source, filename=name))
        if isinstance(node, ast.ImportFrom) and node.module == "dilsamp"
        for alias in node.names
    ]
    assert imported, f"{name} imports nothing from dilsamp"
    missing = sorted(set(imported) - set(dilsamp.__all__))
    assert not missing, f"{name} imports names missing from dilsamp.__all__: {missing}"


def test_the_expand_wrapper_is_gone():
    # lattice_support, coefficients and evaluate are the calls; nothing
    # called the wrapper or its result type
    assert not {"expand", "ExpansionResult"} & (set(dilsamp.__all__) | set(dir(dilsamp)))


def test_every_exported_name_resolves():
    assert len(set(dilsamp.__all__)) == len(dilsamp.__all__)
    assert [n for n in dilsamp.__all__ if not hasattr(dilsamp, n)] == []


def test_library_loads_no_scipy():
    # import plus a 3-d ball average, in a fresh interpreter
    code = (
        "import sys, dilsamp\n"
        "dilsamp.ball_average(dilsamp.gaussian(3), [0.0, 0.0, 0.0], 0.5)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"



def _modules():
    for path in sorted((ROOT / "src" / "dilsamp").glob("*.py")):
        yield path.name, ast.parse(path.read_text(), filename=str(path))


MODULES = dict(_modules())
# __init__.py imports to re-export
CHECKED = sorted(set(MODULES) - {"__init__.py"})


def _read(tree):
    """The names a module reads as bare names."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("name", CHECKED)
def test_no_unused_imports(name):
    tree = MODULES[name]
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in tree.body
        if isinstance(node, ast.Import)
        or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
        for alias in node.names
    }
    assert sorted(imported - _read(tree)) == [], f"{name} imports names it never reads"


def test_no_dead_private_helpers():
    # a private module-level function or class is read somewhere in the
    # package: as a name, an attribute or an imported name
    read = set()
    for tree in MODULES.values():
        read |= _read(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    dead = [
        f"{name}: {node.name}"
        for name in CHECKED
        for node in MODULES[name].body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and node.name not in read
    ]
    assert dead == []
