import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).parent
sys.path.insert(0, str(HERE))

from flipwidth.graphs import Graph


def atlas_graphs(max_n, min_n=1):
    """All unlabeled graphs with min_n <= n <= max_n, via the networkx atlas."""
    from networkx.generators.atlas import graph_atlas_g
    out = []
    for nxg in graph_atlas_g():
        n = nxg.number_of_nodes()
        if n < min_n or n > max_n:
            continue
        out.append(Graph(n, [(u, v) for u, v in nxg.edges()]))
    return out


def random_graphs(count, max_n, seed, min_n=2):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(min_n, max_n)
        p = rng.choice([0.2, 0.35, 0.5, 0.65, 0.8])
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < p]
        out.append(Graph(n, edges))
    return out


def pytest_collection_modifyitems(config, items):
    """A leaked file, pipe or process fails the tests in this directory: its
    ResourceWarning is an error, also when it is raised while the leaked
    object is collected, where pytest reports it as an unraisable
    exception."""
    for item in items:
        if HERE in Path(item.fspath).parents:
            item.add_marker(pytest.mark.filterwarnings("error::ResourceWarning"))
            item.add_marker(pytest.mark.filterwarnings(
                "error:(?s).*ResourceWarning:pytest.PytestUnraisableExceptionWarning"))


@pytest.fixture(scope="session")
def atlas5():
    return atlas_graphs(5)


@pytest.fixture(scope="session")
def atlas4():
    return atlas_graphs(4)


@pytest.fixture(scope="session")
def atlas6():
    return atlas_graphs(6)
