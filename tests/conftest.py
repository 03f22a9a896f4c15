import os
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from synckit.network import Network, load_network

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

sys.path.insert(0, str(Path(__file__).resolve().parent))

FIXTURE_NAMES = [
    "triangle",
    "chain4",
    "two_roots",
    "twin_cycles_hub",
    "driven_chain",
    "cancel_fan",
    "two_sources_pair",
    "zero_sum_triangle",
    "cancel_cycle",
    "edge_pair",
    "chorded_cycle",
]


_XDG = "XDG_CACHE_HOME"


def pytest_configure(config):
    """Point the network load cache at a temporary directory for the whole
    session, before collection loads any network; subprocesses inherit it,
    so no test writes into the user's home."""
    config.synckit_cache = (os.environ.get(_XDG), tempfile.mkdtemp(prefix="synckit-cache-"))
    os.environ[_XDG] = config.synckit_cache[1]


def pytest_unconfigure(config):
    previous, folder = config.synckit_cache
    if previous is None:
        os.environ.pop(_XDG, None)
    else:
        os.environ[_XDG] = previous
    shutil.rmtree(folder, ignore_errors=True)


def fixture_path(name: str) -> Path:
    return FIXTURES / f"{name}.json"


def fixture_net(name: str) -> Network:
    return load_network(str(fixture_path(name)))


@pytest.fixture
def triangle() -> Network:
    return fixture_net("triangle")


@pytest.fixture
def chain4() -> Network:
    return fixture_net("chain4")


@pytest.fixture
def two_roots() -> Network:
    return fixture_net("two_roots")


@pytest.fixture(params=FIXTURE_NAMES)
def any_fixture(request) -> Network:
    return fixture_net(request.param)
