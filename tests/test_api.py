"""Every function the benchmark traces still exists under its traced name,
and every public name has a user outside the tests.

`bench/spans.py` wraps synckit functions by (module, attribute path) and
reports a missing one as absent, so a refactor that renames or deletes a
traced function would silently drop its per-layer metrics.  This loads
that file by path, reads its target list, and looks each target up the
way the tracer does.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "bench" / "spans.py"


def _targets() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(mod, path) for mod, path, _ in module.TARGETS]


TARGETS = _targets()


def test_target_list_is_not_empty():
    assert len(TARGETS) > 20


@pytest.mark.parametrize("module, path", TARGETS, ids=[f"{m}.{p}" for m, p in TARGETS])
def test_traced_name_exists(module, path):
    owner = importlib.import_module(f"synckit.{module}")
    *owner_path, attr = path.split(".")
    for part in owner_path:
        owner = getattr(owner, part)
    # the tracer looks in the owner's own namespace, not in inherited ones
    assert attr in vars(owner), f"synckit.{module}.{path} is gone"
    assert callable(vars(owner)[attr]) or hasattr(vars(owner)[attr], "func")


def _names_used(path: Path) -> set[str]:
    """Names a file reads or imports: AST names, attributes and import aliases."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.update((node.name, node.asname or node.name))
    return used


def test_every_export_has_a_user_outside_the_tests():
    """Public API that only the tests use belongs in tests/oracles.py."""
    package = ROOT / "src" / "synckit"
    init = ast.parse((package / "__init__.py").read_text(encoding="utf-8"))
    exported = {
        alias.asname or alias.name
        for node in init.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    files = [f for f in package.glob("*.py") if f.name != "__init__.py"]
    files += [*(ROOT / "scripts").glob("*.py"), *(ROOT / "bench").glob("*.py")]
    used = set().union(*map(_names_used, files))
    used.update(part for _, path in TARGETS for part in path.split("."))
    assert sorted(exported - used) == []


def _functions_naming(path: Path, name: str) -> list[str]:
    """The top-level functions of a file whose bodies read the given name."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        node.name for node in tree.body if isinstance(node, ast.FunctionDef)
        and any(isinstance(n, ast.Name) and n.id == name for n in ast.walk(node))
    ]


def test_one_keying_round_computes_every_signature():
    """Balance, exo-balance, cir, certificates and lattice splits share one
    keying round, and no production path sums a row through row_color_sum."""
    package = ROOT / "src" / "synckit"
    synchrony = package / "synchrony.py"
    assert len(_functions_naming(synchrony, "_signature")) == 1, _functions_naming(
        synchrony, "_signature")
    defined = {node.name for node in ast.walk(ast.parse(synchrony.read_text(encoding="utf-8")))
               if isinstance(node, ast.FunctionDef)}
    assert "_round" not in defined
    # network.py defines it; __init__.py only re-exports the public name
    callers = [f.name for f in package.glob("*.py")
               if f.name not in ("network.py", "__init__.py") and "row_color_sum" in _names_used(f)]
    assert callers == []
