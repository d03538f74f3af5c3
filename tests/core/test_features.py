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


def _loop_adjacency(num_nodes, edges):
    """The eager per-edge loop the featurizer ran on every tree before
    the adjacency became lazy: the reference the lazy matrix must equal
    bit for bit."""
    adj = np.eye(num_nodes)
    for a, b in edges:
        adj[a, b] = 1.0
        adj[b, a] = 1.0
    deg = adj.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(deg)
    return adj * inv_sqrt[:, None] * inv_sqrt[None, :]


def _statements(count):
    """A ``main`` of ``count`` statements: ~6 AST nodes each."""
    return ("int main() {\n    int n; cin >> n;\n    long long s = 0;\n"
            + "".join(f"    s += {j} * n;\n" for j in range(count))
            + "    cout << s;\n    return 0;\n}\n")


@pytest.fixture
def adjacency_calls(monkeypatch):
    """Count every dense adjacency the featurized trees build."""
    from repro.core import features

    calls = []
    build = features.normalized_adjacency

    def counting(num_nodes, edges):
        calls.append(num_nodes)
        return build(num_nodes, edges)

    monkeypatch.setattr(features, "normalized_adjacency", counting)
    return calls


class TestLazyAdjacency:
    """Only the GCN reads the dense N×N adjacency, so a featurized tree
    builds it on first read, not when it is featurized."""

    def test_built_on_first_read_and_kept(self, adjacency_calls):
        feats = TreeFeaturizer()(SOURCE)
        assert adjacency_calls == []
        first = feats.adjacency
        assert feats.adjacency is first
        assert adjacency_calls == [feats.num_nodes]

    def test_equals_the_eager_matrix(self, corpus_c):
        from repro.lang.parser import parse
        from repro.lang.simplify import flatten, simplify

        featurizer = TreeFeaturizer()
        for source in [SOURCE] + [s.source for s in corpus_c[:8]]:
            flat = flatten(simplify(parse(source)))
            np.testing.assert_array_equal(
                featurizer(source).adjacency,
                _loop_adjacency(flat.num_nodes, flat.edges))

    def test_large_source_featurizes_far_below_n_squared(self):
        import tracemalloc

        featurizer = TreeFeaturizer(cache_size=0)    # as the router runs it
        featurizer(_statements(1))                   # imports, warm caches
        source = _statements(1000)
        tracemalloc.start()
        try:
            feats = featurizer(source)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        n = feats.num_nodes
        assert n > 6000
        # The eager N×N float64 matrix alone was n² × 8 = 276 MiB here
        # (829 MiB peak with its temporaries); the tree itself is ~2 MiB.
        assert peak * 16 < n * n * 8, f"peak {peak / 2**20:.1f} MiB"

    def test_tree_lstm_train_eval_and_serve_never_build_it(
            self, corpus_c, adjacency_calls):
        from repro.core import build_model
        from repro.data import sample_pairs
        from repro.engine import Engine, TrainConfig
        from repro.serve import PredictionService

        pairs = sample_pairs(corpus_c, 12, np.random.default_rng(0))
        model = build_model(embedding_dim=8, hidden_size=8, seed=1)
        engine = Engine(model, TrainConfig(epochs=1, batch_size=6))
        engine.fit(pairs)
        engine.evaluate_accuracy(pairs)
        with PredictionService(model, threaded=False) as service:
            service.compare(corpus_c[0].source, corpus_c[1].source)
        assert adjacency_calls == []

    def test_gcn_trains_bitwise_as_on_the_eager_matrix(
            self, corpus_c, monkeypatch):
        from repro.core import build_model, features
        from repro.data import sample_pairs
        from repro.engine import Engine, TrainConfig

        pairs = sample_pairs(corpus_c, 12, np.random.default_rng(0))

        def train():
            model = build_model(encoder_kind="gcn", embedding_dim=8,
                                hidden_size=8, seed=1)
            Engine(model, TrainConfig(epochs=2, batch_size=6)).fit(pairs)
            return model.state_dict()

        lazy = train()
        monkeypatch.setattr(features, "normalized_adjacency",
                            _loop_adjacency)
        eager = train()
        assert lazy.keys() == eager.keys()
        for name in lazy:
            np.testing.assert_array_equal(lazy[name], eager[name])
