"""README's Python API example, checked against the package without running it."""

import ast
import importlib
import inspect
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks(text):
    return re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)


def api_faults(source):
    """What ``source`` reads of collisionlab that the package lacks: a module
    attribute, an imported name, or a keyword that is not a parameter of the
    function or class it is passed to.  Only collisionlab modules, names
    imported from them and their attributes are resolved."""
    bound, faults = {}, []
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "collisionlab":
                    bound[alias.asname or alias.name] = importlib.import_module(alias.name)
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "collisionlab":
            module = importlib.import_module(node.module)
            for alias in node.names:
                if hasattr(module, alias.name):
                    bound[alias.asname or alias.name] = getattr(module, alias.name)
                else:
                    faults.append(f"{node.module}.{alias.name}")

    def resolve(expr):
        if isinstance(expr, ast.Name):
            return bound.get(expr.id)
        if isinstance(expr, ast.Attribute) and inspect.ismodule(owner := resolve(expr.value)):
            if not hasattr(owner, expr.attr):
                faults.append(f"{owner.__name__}.{expr.attr}")
                return None
            return getattr(owner, expr.attr)
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            resolve(node)
        elif isinstance(node, ast.Call) and (func := resolve(node.func)) is not None:
            params = inspect.signature(func).parameters
            takes_any = any(p.kind is p.VAR_KEYWORD for p in params.values())
            faults += [f"{func.__qualname__}({kw.arg}=)" for kw in node.keywords
                       if kw.arg is not None and kw.arg not in params and not takes_any]
    return sorted(set(faults))


def test_readme_python_api_exists():
    blocks = python_blocks(README.read_text())
    assert blocks
    for block in blocks:
        assert api_faults(block) == []


def test_readme_guard_finds_faults():
    source = ("import collisionlab as cl\n"
              "from collisionlab.models import CombLattice, Nothing\n"
              "cl.build_network(3, [], weights=1)\n"
              "cl.absent_function()\n"
              "cl.collision_growth(CombLattice(R=3), None, [1], 8, seed=1, certificate=None)\n"
              "other.anything(at_all=1)\n")
    assert api_faults(source) == [
        "CombLattice(R=)",
        "build_network(weights=)",
        "collision_growth(certificate=)",
        "collisionlab.absent_function",
        "collisionlab.models.Nothing",
    ]
