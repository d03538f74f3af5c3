"""Tests for source featurization."""

import numpy as np
import pytest

from repro.core import TreeFeaturizer

SOURCE = """
#include <iostream>
using namespace std;
int main() {
    int n; cin >> n;
    long long s = 0;
    for (int i = 0; i < n; i++) s += i;
    cout << s << endl;
    return 0;
}
"""


class TestFeaturizer:
    def test_basic_shapes(self):
        feats = TreeFeaturizer()(SOURCE)
        n = feats.num_nodes
        assert feats.node_ids.shape == (n,)
        assert feats.adjacency.shape == (n, n)
        assert len(feats.categories) == n
        assert feats.schedule.num_nodes == n

    def test_root_is_node_zero(self):
        feats = TreeFeaturizer()(SOURCE)
        assert feats.root == 0
        assert feats.kinds[0] == "root"

    def test_ids_within_vocab(self):
        featurizer = TreeFeaturizer()
        feats = featurizer(SOURCE)
        assert feats.node_ids.max() < len(featurizer.vocab)
        assert feats.node_ids.min() >= 0

    def test_cache_returns_same_object(self):
        featurizer = TreeFeaturizer()
        assert featurizer(SOURCE) is featurizer(SOURCE)

    def test_cache_disabled(self):
        featurizer = TreeFeaturizer(cache_size=0)
        a = featurizer("int main() { return 1; }")
        b = featurizer("int main() { return 1; }")
        assert a is not b  # nothing cached
        assert a.num_nodes == b.num_nodes

    def test_cache_eviction(self):
        featurizer = TreeFeaturizer(cache_size=2)
        a = featurizer("int main() { return 1; }")
        featurizer("int main() { return 2; }")
        featurizer("int main() { return 3; }")
        assert featurizer("int main() { return 1; }") is not a

    def test_cache_keys_on_text_not_hash(self):
        """Two sources whose hashes collide must not share one entry."""

        class Colliding(str):
            def __hash__(self):
                return 1

        featurizer = TreeFeaturizer()
        small = featurizer(Colliding("int main() { return 0; }"))
        big = featurizer(Colliding(SOURCE))
        assert big is not small
        assert big.num_nodes == TreeFeaturizer()(SOURCE).num_nodes
        assert featurizer(Colliding("int main() { return 0; }")) is small

    def test_different_sources_different_trees(self):
        featurizer = TreeFeaturizer()
        a = featurizer("int main() { return 0; }")
        b = featurizer("int main() { for (;;) break; return 0; }")
        assert a.num_nodes != b.num_nodes

    def test_unparseable_raises(self):
        with pytest.raises(Exception):
            TreeFeaturizer()("not C++ at all ###")

    def test_adjacency_symmetric_normalized(self):
        feats = TreeFeaturizer()(SOURCE)
        np.testing.assert_allclose(feats.adjacency, feats.adjacency.T)
        assert np.linalg.eigvalsh(feats.adjacency).max() <= 1.0 + 1e-9
