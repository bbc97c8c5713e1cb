"""Unit tests for the offline baseline algorithms."""

import pytest

from repro.baselines import (
    BASELINES,
    PeriodicRecomputeClusterer,
    connected_components,
    label_propagation,
    louvain,
    make_multilevel,
    make_spectral,
    mcl,
    multilevel_partition,
    spectral_clustering,
)
from repro.graph import AdjacencyGraph
from repro.quality import Partition, modularity, nmi
from repro.streams import add_edge, delete_edge


class TestLouvain:
    def test_separated_triangles(self):
        graph = AdjacencyGraph([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        partition = louvain(graph, seed=0)
        assert partition.same_cluster(0, 2)
        assert not partition.same_cluster(0, 3)

    def test_karate_modularity(self, karate_graph):
        graph, _ = karate_graph
        partition = louvain(graph, seed=1)
        assert modularity(graph, partition) > 0.35

    def test_recovers_planted_structure(self, sbm_small):
        graph = AdjacencyGraph(sbm_small.edges)
        partition = louvain(graph, seed=2)
        assert nmi(partition, sbm_small.truth) > 0.9

    def test_covers_isolated_vertices(self):
        graph = AdjacencyGraph([(1, 2)])
        graph.add_vertex(99)
        partition = louvain(graph)
        assert 99 in partition

    def test_empty_graph(self):
        assert louvain(AdjacencyGraph()).num_clusters == 0

    def test_deterministic_per_seed(self, karate_graph):
        graph, _ = karate_graph
        assert louvain(graph, seed=5) == louvain(graph, seed=5)


class TestLabelPropagation:
    def test_separated_cliques(self, barbell_graph):
        graph, _ = barbell_graph
        partition = label_propagation(graph, seed=0)
        assert partition.same_cluster(0, 4)  # inside the left clique

    def test_recovers_planted_structure(self, sbm_small):
        graph = AdjacencyGraph(sbm_small.edges)
        partition = label_propagation(graph, seed=1)
        assert nmi(partition, sbm_small.truth) > 0.8

    def test_isolated_vertices_keep_own_label(self):
        graph = AdjacencyGraph([(1, 2)])
        graph.add_vertex(9)
        partition = label_propagation(graph)
        assert partition.members(partition.label_of(9)) == {9}


class TestSpectral:
    def test_two_triangles_split(self, triangle_graph):
        graph, truth = triangle_graph
        partition = spectral_clustering(graph, 2, seed=0)
        assert partition == truth

    def test_recovers_planted_structure(self, sbm_small):
        graph = AdjacencyGraph(sbm_small.edges)
        partition = spectral_clustering(graph, 4, seed=1)
        assert nmi(partition, sbm_small.truth) > 0.9

    def test_isolated_vertices_singletons(self):
        graph = AdjacencyGraph([(1, 2), (2, 3)])
        graph.add_vertex(50)
        partition = spectral_clustering(graph, 2, seed=0)
        assert partition.members(partition.label_of(50)) == {50}

    def test_k_validation(self, triangle_graph):
        graph, _ = triangle_graph
        with pytest.raises(ValueError):
            spectral_clustering(graph, 0)

    def test_tiny_graph_dense_path(self):
        graph = AdjacencyGraph([(1, 2), (2, 3)])
        partition = spectral_clustering(graph, 2, seed=0)
        assert partition.num_vertices == 3


class TestMultilevel:
    def test_produces_k_parts(self, sbm_small):
        graph = AdjacencyGraph(sbm_small.edges)
        partition = multilevel_partition(graph, 4, seed=0)
        assert partition.num_clusters == 4

    def test_balance(self, sbm_small):
        graph = AdjacencyGraph(sbm_small.edges)
        partition = multilevel_partition(graph, 4, seed=0, imbalance=1.1)
        assert partition.max_cluster_size <= 1.1 * 200 / 4 + 1

    def test_cuts_align_with_communities(self, sbm_small):
        graph = AdjacencyGraph(sbm_small.edges)
        partition = multilevel_partition(graph, 4, seed=0)
        assert nmi(partition, sbm_small.truth) > 0.7

    def test_k_greater_than_n(self):
        graph = AdjacencyGraph([(1, 2)])
        partition = multilevel_partition(graph, 10)
        assert partition.num_clusters == 2  # singletons

    def test_empty_graph(self):
        assert multilevel_partition(AdjacencyGraph(), 3).num_clusters == 0

    def test_imbalance_validation(self, triangle_graph):
        graph, _ = triangle_graph
        with pytest.raises(ValueError):
            multilevel_partition(graph, 2, imbalance=0.5)


class TestMCL:
    def test_two_triangles_split(self, triangle_graph):
        graph, truth = triangle_graph
        partition = mcl(graph)
        assert partition == truth

    def test_recovers_planted_structure(self, sbm_small):
        graph = AdjacencyGraph(sbm_small.edges)
        partition = mcl(graph)
        assert nmi(partition, sbm_small.truth) > 0.85

    def test_higher_inflation_more_clusters(self, karate_graph):
        graph, _ = karate_graph
        coarse = mcl(graph, inflation=1.4)
        fine = mcl(graph, inflation=3.0)
        assert fine.num_clusters >= coarse.num_clusters

    def test_empty_graph(self):
        assert mcl(AdjacencyGraph()).num_clusters == 0

    def test_validation(self, triangle_graph):
        graph, _ = triangle_graph
        with pytest.raises(ValueError):
            mcl(graph, inflation=1.0)
        with pytest.raises(ValueError):
            mcl(graph, expansion=1)


class TestComponents:
    def test_connected_components(self):
        graph = AdjacencyGraph([(1, 2), (3, 4)])
        graph.add_vertex(9)
        partition = connected_components(graph)
        assert partition.num_clusters == 3


class TestRecompute:
    def test_recomputes_on_interval(self):
        wrapper = PeriodicRecomputeClusterer(connected_components, interval=3)
        for i in range(7):
            wrapper.apply(add_edge(i, i + 1))
        assert wrapper.recomputations == 2
        assert wrapper.events == 7

    def test_stale_between_recomputes(self):
        wrapper = PeriodicRecomputeClusterer(connected_components, interval=10)
        wrapper.apply(add_edge(1, 2))
        assert wrapper.same_cluster(1, 2)  # forced first snapshot
        wrapper.apply(delete_edge(1, 2))
        assert wrapper.same_cluster(1, 2)  # stale view
        wrapper.recompute()
        assert not wrapper.same_cluster(1, 2)

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            PeriodicRecomputeClusterer(connected_components, interval=0)

    def test_factories(self, triangle_graph):
        graph, truth = triangle_graph
        assert make_spectral(2, seed=0)(graph) == truth
        assert make_multilevel(2, seed=0)(graph).num_clusters == 2

    def test_baseline_registry(self, triangle_graph):
        graph, _ = triangle_graph
        for name, algorithm in BASELINES.items():
            partition = algorithm(graph)
            assert isinstance(partition, Partition), name
            assert partition.num_vertices == graph.num_vertices, name
