"""Every function the benchmark traces still exists under its traced name.

`bench/spans.py` wraps synckit functions by (module, attribute path) and
reports a missing one as absent, so a refactor that renames or deletes a
traced function would silently drop its per-layer metrics.  This loads
that file by path, reads its target list, and looks each target up the
way the tracer does.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


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
