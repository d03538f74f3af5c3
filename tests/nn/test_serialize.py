"""Round-trip tests for the npz state serializer and its metadata header."""

import numpy as np
import pytest

from repro.nn.serialize import METADATA_KEY, load_state_with_meta, save_state


def _state():
    return {"w": np.arange(6.0).reshape(2, 3), "b": np.zeros(2)}


def _save(path):
    return save_state(_state(), path, meta={"v": 1})


def _load(path):
    state, _ = load_state_with_meta(path)
    return state


class TestSuffixNormalization:
    def test_suffixless_path_round_trips(self, tmp_path):
        """Regression: np.savez appends .npz, load must follow suit."""
        path = tmp_path / "model"  # no suffix
        _save(path)
        loaded = _load(path)
        np.testing.assert_array_equal(loaded["w"], _state()["w"])

    def test_explicit_npz_path_round_trips(self, tmp_path):
        path = tmp_path / "model.npz"
        _save(path)
        assert path.exists()
        np.testing.assert_array_equal(_load(path)["b"], np.zeros(2))

    def test_mixed_suffix_spellings_agree(self, tmp_path):
        """Saving without the suffix and loading with it (and vice versa)
        must address the same file."""
        _save(tmp_path / "a")
        np.testing.assert_array_equal(
            _load(tmp_path / "a.npz")["w"], _state()["w"])
        _save(tmp_path / "b.npz")
        np.testing.assert_array_equal(
            _load(tmp_path / "b")["w"], _state()["w"])

    def test_dotted_stem_is_not_mangled(self, tmp_path):
        path = tmp_path / "model.v1"
        _save(path)
        assert (tmp_path / "model.v1.npz").exists()
        assert _load(path)["w"].shape == (2, 3)


class TestMetadataHeader:
    def test_meta_round_trip(self, tmp_path):
        meta = {"version": 1, "encoder": "treelstm", "dims": [16, 16]}
        save_state(_state(), tmp_path / "m.npz", meta=meta)
        state, loaded_meta = load_state_with_meta(tmp_path / "m.npz")
        assert loaded_meta == meta
        assert set(state) == {"w", "b"}

    def test_archive_without_meta_reports_none(self, tmp_path):
        np.savez(tmp_path / "m.npz", **_state())     # a foreign archive
        _, meta = load_state_with_meta(tmp_path / "m.npz")
        assert meta is None

    def test_meta_is_required(self, tmp_path):
        with pytest.raises(TypeError):
            save_state(_state(), tmp_path / "m.npz")
        assert not (tmp_path / "m.npz").exists()

    def test_reserved_key_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="reserved"):
            save_state({METADATA_KEY: np.zeros(1)}, tmp_path / "m.npz",
                       meta={})

    def test_unicode_meta(self, tmp_path):
        meta = {"note": "λ=120, ±0.5 — ünïcode"}
        save_state(_state(), tmp_path / "m.npz", meta=meta)
        _, loaded = load_state_with_meta(tmp_path / "m.npz")
        assert loaded == meta
