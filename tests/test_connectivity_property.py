"""Property-based tests: dynamic connectivity vs. a trivial oracle.

Hypothesis drives random insert/delete sequences and checks HDT and the
clusterer's ComponentLabels (the naive BFS-relabelling structure)
against recomputing components from scratch.
"""

from __future__ import annotations

from typing import List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.connectivity import ComponentLabels, HDTConnectivity
from repro.graph import AdjacencyGraph

# An operation is (vertex_a, vertex_b); interpretation depends on current
# state: insert if the edge is absent, delete if present.
_ops = st.lists(
    st.tuples(st.integers(0, 14), st.integers(0, 14)).filter(lambda p: p[0] != p[1]),
    min_size=1,
    max_size=120,
)


def _components_oracle(edges: set, vertices: set) -> List[Tuple[int, ...]]:
    g = AdjacencyGraph()
    for v in vertices:
        g.add_vertex(v)
    for u, v in edges:
        g.add_edge(u, v)
    return sorted(tuple(sorted(c)) for c in g.connected_components())


@settings(max_examples=60, deadline=None)
@given(ops=_ops, backend_seed=st.integers(0, 2**20))
def test_hdt_matches_recomputed_components(ops, backend_seed):
    conn = HDTConnectivity(seed=backend_seed)
    edges: set = set()
    vertices: set = set()
    for a, b in ops:
        e = (min(a, b), max(a, b))
        vertices.update(e)
        if e in edges:
            conn.delete_edge(*e)
            edges.discard(e)
        else:
            conn.insert_edge(*e)
            edges.add(e)
        expected = _components_oracle(edges, vertices)
        actual = sorted(tuple(sorted(c)) for c in conn.components())
        assert actual == expected


@settings(max_examples=60, deadline=None)
@given(ops=_ops)
def test_naive_matches_recomputed_components(ops):
    conn = ComponentLabels()
    edges: set = set()
    vertices: set = set()
    for a, b in ops:
        e = (min(a, b), max(a, b))
        vertices.update(e)
        if e in edges:
            conn.delete_edge(*e)
            edges.discard(e)
        else:
            conn.insert_edge(*e)
            edges.add(e)
    assert (
        sorted(tuple(sorted(c)) for c in conn.components())
        == _components_oracle(edges, vertices)
    )


@settings(max_examples=40, deadline=None)
@given(ops=_ops, seed=st.integers(0, 2**20))
def test_split_and_merge_return_values_agree(ops, seed):
    """HDT and naive must agree on *whether* each op merged/split."""
    hdt = HDTConnectivity(seed=seed)
    naive = ComponentLabels()
    edges: set = set()
    for a, b in ops:
        e = (min(a, b), max(a, b))
        if e in edges:
            assert hdt.delete_edge(*e) == naive.delete_edge(*e)
            edges.discard(e)
        else:
            assert hdt.insert_edge(*e) == naive.insert_edge(*e)
            edges.add(e)
        assert hdt.num_components == naive.num_components
