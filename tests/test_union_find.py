"""Unit tests for UnionFind."""

from repro.connectivity import UnionFind


class TestUnionFind:
    def test_basic_union_and_find(self):
        uf = UnionFind()
        assert uf.union(1, 2)
        assert uf.connected(1, 2)
        assert not uf.union(2, 1)

    def test_lazy_element_creation(self):
        uf = UnionFind()
        assert uf.find(7) == 7
        assert uf.num_elements == 1

    def test_num_sets_tracking(self):
        uf = UnionFind(range(5))
        assert uf.num_sets == 5
        uf.union(0, 1)
        uf.union(2, 3)
        uf.union(1, 3)
        assert uf.num_sets == 2

    def test_set_size(self):
        uf = UnionFind()
        uf.union(1, 2)
        uf.union(2, 3)
        assert uf.set_size(1) == 3
        assert uf.set_size(99) == 1

    def test_groups(self):
        uf = UnionFind(range(4))
        uf.union(0, 1)
        groups = sorted(map(sorted, uf.groups()))
        assert groups == [[0, 1], [2], [3]]

    def test_matches_reference_on_random_ops(self, rng):
        uf = UnionFind()
        reference = {i: {i} for i in range(30)}
        for _ in range(200):
            a, b = rng.randrange(30), rng.randrange(30)
            uf.union(a, b)
            if reference[a] is not reference[b]:
                merged = reference[a] | reference[b]
                for member in merged:
                    reference[member] = merged
            x, y = rng.randrange(30), rng.randrange(30)
            assert uf.connected(x, y) == (reference[x] is reference[y])

