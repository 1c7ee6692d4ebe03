import ast
from pathlib import Path

import pytest

import fblsec

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_public_names_resolve_and_are_listed_once():
    names = fblsec.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(fblsec, name)]
    assert missing == []


def _fblsec_imports(tree):
    """(module, name) of every name the parsed file imports from fblsec or
    one of its modules, and the bare fblsec modules it imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and (
                node.module == "fblsec" or node.module.startswith("fblsec.")):
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("fblsec."):
                    yield alias.name, None


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    """Every name a demo imports from fblsec exists; the demo is parsed, not
    run."""
    imports = list(_fblsec_imports(ast.parse(path.read_text(), str(path))))
    assert imports, f"{path.name} imports nothing from fblsec"
    missing = []
    for module, name in imports:
        mod = __import__(module, fromlist=["_"])
        if name is not None and not hasattr(mod, name):
            missing.append(f"{module}.{name}")
    assert missing == []
