"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import textwrap

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.graph import from_edges, generators
from repro.graph.csr import CSRGraph


@pytest.fixture
def make_tree(tmp_path, monkeypatch):
    """``make_tree({relpath: source, ...})`` -> tree root (cwd).

    Writes a throwaway source tree under ``tmp_path`` and chdirs into
    it: module names come from the ``__init__.py`` chain, and display
    paths are cwd-relative.
    """

    def build(files):
        for rel, source in files.items():
            path = tmp_path / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(source))
        monkeypatch.chdir(tmp_path)
        return tmp_path

    return build


@pytest.fixture
def triangle() -> CSRGraph:
    """3-cycle: 0 -> 1 -> 2 -> 0."""
    return from_edges([(0, 1), (1, 2), (2, 0)], name="triangle")


@pytest.fixture
def diamond() -> CSRGraph:
    """0 -> {1, 2} -> 3 (plus 3 -> 0 making it strongly connected)."""
    return from_edges(
        [(0, 1), (0, 2), (1, 3), (2, 3), (3, 0)], name="diamond"
    )


@pytest.fixture
def two_components() -> CSRGraph:
    """Two disjoint directed triangles (6 nodes)."""
    return from_edges(
        [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)],
        name="two-triangles",
    )


@pytest.fixture
def small_social() -> CSRGraph:
    """A small but non-trivial social analogue (deterministic)."""
    return generators.social_graph(
        120, edges_per_node=5, seed=42, name="small-social"
    )


@pytest.fixture
def small_web() -> CSRGraph:
    """A small but non-trivial web analogue (deterministic)."""
    return generators.web_graph(
        200, pages_per_host=20, out_degree=6, seed=42, name="small-web"
    )


def edge_list_strategy(
    max_nodes: int = 12, max_edges: int = 40
) -> st.SearchStrategy:
    """Random (num_nodes, edge list) pairs for property tests."""
    return st.integers(min_value=1, max_value=max_nodes).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(
                    st.integers(0, n - 1), st.integers(0, n - 1)
                ),
                max_size=max_edges,
            ),
        )
    )


def graph_strategy(
    max_nodes: int = 12, max_edges: int = 40
) -> st.SearchStrategy:
    """Random small CSR graphs for property tests."""
    return edge_list_strategy(max_nodes, max_edges).map(
        lambda pair: from_edges(pair[1], num_nodes=pair[0])
    )


def assert_valid_permutation(perm: np.ndarray, num_nodes: int) -> None:
    """Assert ``perm`` is a permutation of ``range(num_nodes)``."""
    assert perm.shape == (num_nodes,)
    assert sorted(int(p) for p in perm) == list(range(num_nodes))
