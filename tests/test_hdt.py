"""Unit tests for HDT fully-dynamic connectivity."""

import random

import pytest

from repro.connectivity import ComponentLabels, HDTConnectivity


@pytest.fixture(params=["hdt", "naive"])
def conn(request):
    """Run the shared interface tests against both implementations
    ("naive" is the BFS-relabelling ComponentLabels)."""
    if request.param == "hdt":
        return HDTConnectivity(seed=1)
    return ComponentLabels()


class TestInterface:
    def test_insert_merges(self, conn):
        assert conn.insert_edge(1, 2)
        assert conn.connected(1, 2)
        assert conn.num_components == 1

    def test_insert_within_component(self, conn):
        conn.insert_edge(1, 2)
        conn.insert_edge(2, 3)
        assert not conn.insert_edge(1, 3)  # cycle edge: no merge
        assert conn.num_components == 1

    def test_duplicate_insert_raises(self, conn):
        conn.insert_edge(1, 2)
        with pytest.raises(ValueError):
            conn.insert_edge(2, 1)

    def test_delete_tree_edge_with_replacement(self, conn):
        conn.insert_edge(1, 2)
        conn.insert_edge(2, 3)
        conn.insert_edge(1, 3)
        assert not conn.delete_edge(1, 2)  # replacement exists
        assert conn.connected(1, 2)

    def test_delete_splits(self, conn):
        conn.insert_edge(1, 2)
        conn.insert_edge(2, 3)
        assert conn.delete_edge(1, 2)
        assert not conn.connected(1, 2)
        assert conn.num_components == 2

    def test_delete_absent_raises(self, conn):
        conn.insert_edge(1, 2)
        with pytest.raises(KeyError):
            conn.delete_edge(1, 3)

    def test_vertex_registration(self, conn):
        assert conn.add_vertex(7)
        assert not conn.add_vertex(7)
        assert conn.num_components == 1
        assert conn.component_size(7) == 1

    def test_unknown_vertices(self, conn):
        assert conn.connected("a", "a")
        assert not conn.connected("a", "b")
        assert conn.component_size("a") == 1
        assert conn.component_members("a") == {"a"}

    def test_components_listing(self, conn):
        conn.insert_edge(1, 2)
        conn.insert_edge(3, 4)
        conn.add_vertex(5)
        components = sorted(map(sorted, conn.components()))
        assert components == [[1, 2], [3, 4], [5]]

    def test_has_edge(self, conn):
        conn.insert_edge(1, 2)
        assert conn.has_edge(2, 1)
        assert not conn.has_edge(1, 3)
        conn.delete_edge(1, 2)
        assert not conn.has_edge(1, 2)

    def test_remove_isolated_vertex(self, conn):
        conn.add_vertex(1)
        conn.insert_edge(2, 3)
        assert conn.remove_vertex_if_isolated(1)
        assert not conn.remove_vertex_if_isolated(2)
        assert conn.num_components == 1


class TestHDTSpecifics:
    def test_levels_grow_under_churn(self):
        hdt = HDTConnectivity(seed=2)
        rng = random.Random(0)
        edges = set()
        for _ in range(3000):
            u, v = rng.sample(range(30), 2)
            e = (min(u, v), max(u, v))
            if e in edges:
                hdt.delete_edge(*e)
                edges.discard(e)
            else:
                hdt.insert_edge(*e)
                edges.add(e)
        assert hdt.num_levels >= 2  # promotions actually happened
        assert hdt.num_edges == len(edges)

    def test_edge_level_and_tree_flags(self):
        hdt = HDTConnectivity(seed=3)
        hdt.insert_edge(1, 2)
        hdt.insert_edge(2, 3)
        hdt.insert_edge(1, 3)
        assert hdt.edge_level(1, 2) == 0
        tree_count = sum(
            hdt.is_tree_edge(u, v) for u, v in [(1, 2), (2, 3), (1, 3)]
        )
        assert tree_count == 2  # spanning tree of a triangle

    def test_component_id(self):
        hdt = HDTConnectivity(seed=4)
        hdt.insert_edge(1, 2)
        hdt.add_vertex(9)
        assert hdt.component_id(1) == hdt.component_id(2)
        assert hdt.component_id(1) != hdt.component_id(9)

    def test_replacement_found_across_levels(self):
        # Build two cliques joined by two bridges; delete one bridge —
        # the other must be found as replacement, possibly after
        # promotions.
        hdt = HDTConnectivity(seed=5)
        for base in (0, 10):
            group = list(range(base, base + 5))
            for i, u in enumerate(group):
                for v in group[i + 1 :]:
                    hdt.insert_edge(u, v)
        hdt.insert_edge(4, 10)
        hdt.insert_edge(0, 14)
        assert not hdt.delete_edge(4, 10)
        assert hdt.connected(0, 12)
        assert hdt.delete_edge(0, 14)
        assert not hdt.connected(0, 12)


class TestRandomizedCrossValidation:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_hdt_equals_naive(self, seed):
        rng = random.Random(seed)
        hdt = HDTConnectivity(seed=seed)
        naive = ComponentLabels()
        nodes = list(range(35))
        for v in nodes:
            hdt.add_vertex(v)
            naive.add_vertex(v)
        edges = set()
        for step in range(2500):
            u, v = rng.sample(nodes, 2)
            e = (min(u, v), max(u, v))
            if e in edges and rng.random() < 0.55:
                assert hdt.delete_edge(*e) == naive.delete_edge(*e)
                edges.discard(e)
            elif e not in edges:
                assert hdt.insert_edge(*e) == naive.insert_edge(*e)
                edges.add(e)
            a, b = rng.sample(nodes, 2)
            assert hdt.connected(a, b) == naive.connected(a, b)
            assert hdt.num_components == naive.num_components
            c = rng.choice(nodes)
            assert hdt.component_size(c) == naive.component_size(c)
        hdt_components = sorted(tuple(sorted(s)) for s in hdt.components())
        naive_components = sorted(tuple(sorted(s)) for s in naive.components())
        assert hdt_components == naive_components
