"""Tests for encoders, classifier, and the assembled ComparativeModel."""

import dataclasses

import numpy as np
import pytest

from repro.core import (
    ENCODER_KINDS, ComparativeModel, GcnEncoder, LstmEncoder, PairClassifier,
    TreeFeaturizer, TreeLstmEncoder, build_model, model_from_config,
)

from ..helpers import backend_tolerance

FAST = "int main() { int n; cin >> n; cout << n * (n + 1) / 2; return 0; }"
SLOW = """
int main() {
    int n; cin >> n;
    long long s = 0;
    for (int i = 1; i <= n; i++)
        for (int j = 1; j <= i; j++)
            if (j == i) s += i;
    cout << s;
    return 0;
}
"""


@pytest.fixture(scope="module")
def featurizer():
    return TreeFeaturizer()


class TestEncoders:
    def test_treelstm_output_shape(self, featurizer):
        enc = TreeLstmEncoder(len(featurizer.vocab), embedding_dim=8,
                              hidden_size=12)
        z = enc(featurizer(FAST))
        assert z.shape == (12,)

    def test_gcn_output_shape(self, featurizer):
        enc = GcnEncoder(len(featurizer.vocab), embedding_dim=8,
                         hidden_size=10, num_layers=2)
        z = enc(featurizer(FAST))
        assert z.shape == (10,)

    def test_different_trees_different_vectors(self, featurizer):
        enc = TreeLstmEncoder(len(featurizer.vocab), embedding_dim=8,
                              hidden_size=8)
        z1 = enc(featurizer(FAST)).data
        z2 = enc(featurizer(SLOW)).data
        assert not np.allclose(z1, z2)

    def test_node_states_cover_all_nodes(self, featurizer):
        enc = TreeLstmEncoder(len(featurizer.vocab), embedding_dim=8,
                              hidden_size=8)
        feats = featurizer(FAST)
        states = enc.node_states(feats)
        assert states.shape == (feats.num_nodes, 8)

    @pytest.mark.parametrize("direction", ["uni", "bi", "alternating"])
    def test_treelstm_entry_points_match_lookup_reference(self, featurizer,
                                                          direction):
        """forward, encode_batch and node_states all take the table
        path; each matches lookup-then-stack on the node rows."""
        enc = TreeLstmEncoder(len(featurizer.vocab), embedding_dim=8,
                              hidden_size=6, num_layers=2,
                              direction=direction)
        fast, slow = featurizer(FAST), featurizer(SLOW)
        tol = backend_tolerance(1e-8)

        def lookup(feats):
            return enc.embedding(feats.node_ids)

        np.testing.assert_allclose(
            enc(slow).data, enc.stack.encode(lookup(slow), slow.schedule).data,
            rtol=0, atol=tol)
        np.testing.assert_allclose(
            enc.node_states(slow).data,
            enc.stack(lookup(slow), slow.schedule).data, rtol=0, atol=tol)
        batch = enc.encode_batch([fast, slow])
        for row, feats in enumerate((fast, slow)):
            ref = enc.stack.encode(lookup(feats), feats.schedule)
            np.testing.assert_allclose(batch.data[row], ref.data,
                                       rtol=0, atol=tol)

    def test_treelstm_rejects_out_of_range_node_ids(self, featurizer):
        """The table path keeps the embedding's range check: numpy
        fancy indexing would wrap a negative id silently."""
        enc = TreeLstmEncoder(len(featurizer.vocab), embedding_dim=8,
                              hidden_size=6)
        good = featurizer(FAST)
        for bad_id in (-1, len(featurizer.vocab)):
            ids = good.node_ids.copy()
            ids[1] = bad_id
            bad = dataclasses.replace(good, node_ids=ids)
            with pytest.raises(IndexError):
                enc(bad)
            with pytest.raises(IndexError):
                enc.encode_batch([good, bad])
            with pytest.raises(IndexError):
                enc.node_states(bad)

    def test_lstm_output_shape(self, featurizer):
        enc = LstmEncoder(len(featurizer.vocab), embedding_dim=8,
                          hidden_size=9)
        z = enc(featurizer(FAST))
        assert z.shape == (9,)

    def test_lstm_encode_batch_matches_single(self, featurizer):
        enc = LstmEncoder(len(featurizer.vocab), embedding_dim=8,
                          hidden_size=8)
        feats = [featurizer(FAST), featurizer(SLOW)]
        batched = enc.encode_batch(feats).data
        for row, f in zip(batched, feats):
            np.testing.assert_allclose(row, enc(f).data, atol=backend_tolerance(1e-12))


class TestClassifier:
    def test_logit_scalar(self):
        from repro.nn import Tensor

        clf = PairClassifier(latent_size=6)
        logit = clf.logit(Tensor(np.ones(6)), Tensor(np.zeros(6)))
        assert logit.shape == ()
        prob = clf.probability(Tensor(np.ones(6)), Tensor(np.zeros(6)))
        assert 0.0 < float(prob.data) < 1.0

    def test_hidden_layer_variant(self):
        from repro.nn import Tensor

        clf = PairClassifier(latent_size=4, hidden=8)
        logit = clf.logit(Tensor(np.ones(4)), Tensor(np.ones(4)))
        assert logit.shape == ()

    def test_order_sensitivity(self):
        """The classifier must distinguish (i, j) from (j, i)."""
        from repro.nn import Tensor

        rng = np.random.default_rng(0)
        clf = PairClassifier(latent_size=5, rng=rng)
        a, b = Tensor(rng.normal(size=5)), Tensor(rng.normal(size=5))
        assert float(clf.logit(a, b).data) != pytest.approx(
            float(clf.logit(b, a).data))


class TestComparativeModel:
    def test_build_model_variants(self):
        for kind in ENCODER_KINDS:
            model = build_model(encoder_kind=kind, embedding_dim=8,
                                hidden_size=8)
            assert isinstance(model, ComparativeModel)
            prob = model.predict_probability(FAST, SLOW)
            assert 0.0 < prob < 1.0

    def test_model_from_config_rebuilds_architecture(self):
        model = build_model(encoder_kind="gcn", embedding_dim=8,
                            hidden_size=8, seed=5)
        clone = model_from_config(model.config)
        clone.load_state_dict(model.state_dict())
        assert clone.predict_probability(FAST, SLOW) == pytest.approx(
            model.predict_probability(FAST, SLOW))

    def test_model_from_config_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown model config"):
            model_from_config({"encoder_kind": "treelstm", "bogus": 1})

    def test_build_model_rejects_unknown(self):
        with pytest.raises(ValueError):
            build_model(encoder_kind="transformer")

    def test_lstm_rejects_inapplicable_knobs(self):
        """Knobs the sequential encoder cannot honour must not be
        silently recorded in the checkpointed config."""
        with pytest.raises(ValueError, match="single-layer"):
            build_model(encoder_kind="lstm", num_layers=2)
        with pytest.raises(ValueError, match="tree-LSTM knob"):
            build_model(encoder_kind="lstm", direction="topdown")

    def test_predict_label_threshold(self):
        model = build_model(embedding_dim=8, hidden_size=8)
        prob = model.predict_probability(FAST, SLOW)
        assert model.predict_label(FAST, SLOW, threshold=prob - 0.01) == 1
        assert model.predict_label(FAST, SLOW, threshold=prob + 0.01) == 0

    def test_embed_returns_vector(self):
        model = build_model(embedding_dim=8, hidden_size=8)
        vec = model.embed(FAST)
        assert vec.shape == (8,)

    def test_embed_batch_deduplicates_repeats(self, monkeypatch):
        """A repeated source must be encoded once and fanned back out."""
        model = build_model(embedding_dim=8, hidden_size=8)
        seen_batches = []
        original = model.encoder.encode_batch

        def spy(feats):
            seen_batches.append(len(feats))
            return original(feats)

        monkeypatch.setattr(model.encoder, "encode_batch", spy)
        out = model.embed_batch([FAST, SLOW, FAST, FAST, SLOW])
        assert sum(seen_batches) == 2  # only the unique trees
        assert out.shape == (5, 8)
        np.testing.assert_array_equal(out[0], out[2])
        np.testing.assert_array_equal(out[0], out[3])
        np.testing.assert_array_equal(out[1], out[4])
        np.testing.assert_allclose(out[0], model.embed(FAST), atol=backend_tolerance(1e-12))

    def test_embed_batch_dedup_respects_batch_size(self):
        model = build_model(embedding_dim=8, hidden_size=8)
        sources = [FAST, SLOW] * 3
        np.testing.assert_allclose(
            model.embed_batch(sources, batch_size=1),
            model.embed_batch(sources, batch_size=64), atol=backend_tolerance(1e-12))

    def test_probability_complementary_when_swapped_after_training(self):
        # Untrained models need not satisfy this; just check both orders
        # produce valid probabilities.
        model = build_model(embedding_dim=8, hidden_size=8)
        p_ab = model.predict_probability(FAST, SLOW)
        p_ba = model.predict_probability(SLOW, FAST)
        assert 0.0 < p_ab < 1.0 and 0.0 < p_ba < 1.0

    def test_state_dict_roundtrip(self):
        model = build_model(embedding_dim=8, hidden_size=8, seed=1)
        clone = build_model(embedding_dim=8, hidden_size=8, seed=2)
        assert clone.predict_probability(FAST, SLOW) != pytest.approx(
            model.predict_probability(FAST, SLOW))
        clone.load_state_dict(model.state_dict())
        assert clone.predict_probability(FAST, SLOW) == pytest.approx(
            model.predict_probability(FAST, SLOW))
