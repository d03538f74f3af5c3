"""Round-trip tests for the npz state serializer and its metadata header."""

import numpy as np
import pytest

from repro.nn.serialize import (
    METADATA_KEY, load_state, load_state_with_meta, save_state,
)


def _state():
    return {"w": np.arange(6.0).reshape(2, 3), "b": np.zeros(2)}


class TestSuffixNormalization:
    def test_suffixless_path_round_trips(self, tmp_path):
        """Regression: np.savez appends .npz, load must follow suit."""
        path = tmp_path / "model"  # no suffix
        save_state(_state(), path)
        loaded = load_state(path)
        np.testing.assert_array_equal(loaded["w"], _state()["w"])

    def test_explicit_npz_path_round_trips(self, tmp_path):
        path = tmp_path / "model.npz"
        save_state(_state(), path)
        assert path.exists()
        np.testing.assert_array_equal(load_state(path)["b"], np.zeros(2))

    def test_mixed_suffix_spellings_agree(self, tmp_path):
        """Saving without the suffix and loading with it (and vice versa)
        must address the same file."""
        save_state(_state(), tmp_path / "a")
        np.testing.assert_array_equal(
            load_state(tmp_path / "a.npz")["w"], _state()["w"])
        save_state(_state(), tmp_path / "b.npz")
        np.testing.assert_array_equal(
            load_state(tmp_path / "b")["w"], _state()["w"])

    def test_dotted_stem_is_not_mangled(self, tmp_path):
        path = tmp_path / "model.v1"
        save_state(_state(), path)
        assert (tmp_path / "model.v1.npz").exists()
        assert load_state(path)["w"].shape == (2, 3)


class TestMetadataHeader:
    def test_meta_round_trip(self, tmp_path):
        meta = {"version": 1, "encoder": "treelstm", "dims": [16, 16]}
        save_state(_state(), tmp_path / "m.npz", meta=meta)
        state, loaded_meta = load_state_with_meta(tmp_path / "m.npz")
        assert loaded_meta == meta
        assert set(state) == {"w", "b"}

    def test_plain_load_drops_meta(self, tmp_path):
        save_state(_state(), tmp_path / "m.npz", meta={"v": 1})
        assert set(load_state(tmp_path / "m.npz")) == {"w", "b"}

    def test_archive_without_meta_reports_none(self, tmp_path):
        save_state(_state(), tmp_path / "m.npz")
        _, meta = load_state_with_meta(tmp_path / "m.npz")
        assert meta is None

    def test_reserved_key_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="reserved"):
            save_state({METADATA_KEY: np.zeros(1)}, tmp_path / "m.npz")

    def test_unicode_meta(self, tmp_path):
        meta = {"note": "λ=120, ±0.5 — ünïcode"}
        save_state(_state(), tmp_path / "m.npz", meta=meta)
        _, loaded = load_state_with_meta(tmp_path / "m.npz")
        assert loaded == meta
