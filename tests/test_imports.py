"""The library imports only the standard library and itself, and reads
no environment variable but XDG_CACHE_HOME.

pyproject.toml declares `dependencies = []`, and numpy is a test-only
dependency; this keeps both true for every module under src/synckit.
The library's settings are parameters and command-line flags; the one
variable read is the standard one that places the network load cache,
which changes no output.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "synckit"


def _imported_roots(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_library_imports_only_stdlib_and_itself(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    foreign = {
        root for root in _imported_roots(tree)
        if root != "synckit" and root not in sys.stdlib_module_names
    }
    assert not foreign, f"{path.name} imports {sorted(foreign)}"


_ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def _cache_home_reads(tree: ast.Module):
    """The `os.environ` nodes of `os.environ.get("XDG_CACHE_HOME", ...)` calls."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get" and isinstance(node.func.value, ast.Attribute)
                and node.func.value.attr == "environ" and node.args
                and isinstance(node.args[0], ast.Constant)
                and node.args[0].value == "XDG_CACHE_HOME"):
            yield node.func.value


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_library_reads_no_environment(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    # network.py's load cache alone may read where the user's cache lives
    allowed = list(_cache_home_reads(tree)) if path.name == "network.py" else []
    reads = [
        node.lineno for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr in _ENVIRONMENT
            and not any(node is a for a in allowed))
        or (isinstance(node, ast.ImportFrom) and node.module == "os"
            and any(alias.name in _ENVIRONMENT for alias in node.names))
    ]
    assert not reads, f"{path.name} reads the environment at lines {reads}"


def test_cli_import_loads_no_module_for_the_load_cache():
    """zlib, which names and fingerprints cache entries, loads on the first
    load_network call, not with the CLI (run without site, which may load it)."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "import synckit.cli; print(sorted({'zlib', 'hashlib', 'tempfile'} & set(sys.modules)))"
    )
    done = subprocess.run([sys.executable, "-I", "-S", "-c", code, str(SRC.parent)],
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_library_does_not_import_dataclasses(path):
    # dataclasses loads inspect, ast, dis and tokenize and builds each class
    # with exec: most of the CLI's import time
    tree = ast.parse(path.read_text(), filename=str(path))
    assert "dataclasses" not in set(_imported_roots(tree)), f"{path.name} imports dataclasses"


# dataclasses and inspect would double the CLI's import time; the process
# modules would only serve the trial workers, which fork with os alone;
# graphlib would only sort the condensation, which Tarjan's search orders;
# argparse and its gettext load only for help and usage errors
_HEAVY = {"dataclasses", "inspect", "multiprocessing", "concurrent", "pickle", "subprocess",
          "graphlib", "argparse", "gettext"}


def test_cli_import_loads_no_heavy_module():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import synckit.cli; "
        f"print(sorted({_HEAVY!r} & set(sys.modules)))"
    )
    done = subprocess.run([sys.executable, "-I", "-c", code, str(SRC.parent)],
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]"
