"""cnative backend specifics: the build cache, the no-compiler
fallback, and thread-count determinism.

Per-kernel numerical equivalence and the shared backend-contract suite
run from ``test_backend.py`` (``cnative`` is in its ``ALL_BACKENDS``
parametrization); this file covers what is unique to a *self-compiled*
backend — the source-hash-keyed cache, the degraded path when the
machine has no C compiler, and the bitwise thread-count contract.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import repro.nn.backend as nn_backend
from repro.nn import cnative
from repro.nn.cnative.build import build_library, cache_root, source_digest

from ..helpers import check_gradients

HAVE_CNATIVE = nn_backend.CNativeBackend.available()

needs_cnative = pytest.mark.skipif(
    not HAVE_CNATIVE, reason="no C compiler / cached cnative build")

# a minimal compilable stand-in for kernels.c — cache tests must not
# touch (or depend on) the real build directory
SYNTH_A = "double repro_synth(double x) { return x * 2.0; }\n"
SYNTH_B = "double repro_synth(double x) { return x * 3.0; }\n"


@needs_cnative
class TestBuildCache:
    def test_first_build_compiles_then_hits_cache(self, tmp_path):
        first = build_library(SYNTH_A, cache_dir=tmp_path)
        assert first.compiled
        assert first.path.is_file()
        second = build_library(SYNTH_A, cache_dir=tmp_path)
        assert not second.compiled
        assert second.path == first.path
        assert second.digest == first.digest

    def test_source_change_rebuilds_under_new_digest(self, tmp_path):
        first = build_library(SYNTH_A, cache_dir=tmp_path)
        changed = build_library(SYNTH_B, cache_dir=tmp_path)
        assert changed.compiled
        assert changed.digest != first.digest
        assert changed.path != first.path
        # the stale object is simply never looked at again
        assert first.path.is_file()

    def test_digest_covers_source_text(self):
        assert source_digest(SYNTH_A) != source_digest(SYNTH_B)
        assert source_digest(SYNTH_A) == source_digest(SYNTH_A)

    def test_cache_root_honours_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert cache_root() == tmp_path / "cnative"
        result = build_library(SYNTH_A, cache_dir=None)
        assert result.path.is_relative_to(tmp_path)

    def test_meta_records_compiler_and_openmp(self, tmp_path):
        result = build_library(SYNTH_A, cache_dir=tmp_path)
        meta = result.path.with_name("meta.json").read_text()
        assert result.compiler in meta
        assert "openmp" in meta


class TestNoCompilerFallback:
    def test_env_request_warns_and_falls_back_to_numpy64(self, tmp_path):
        """REPRO_BACKEND=cnative on a compiler-less machine with a cold
        cache must warn and run on numpy64 — not crash."""
        code = (
            "import warnings\n"
            "with warnings.catch_warnings(record=True) as caught:\n"
            "    warnings.simplefilter('always')\n"
            "    import repro.nn.backend as b\n"
            "msgs = [str(w.message) for w in caught]\n"
            "assert b.active().name == 'numpy64', b.active().name\n"
            "assert any('falling back' in m for m in msgs), msgs\n"
            "assert not b.CNativeBackend.available()\n"
            "print('FELL-BACK-OK')\n"
        )
        env = {
            "REPRO_BACKEND": "cnative",
            "REPRO_CACHE_DIR": str(tmp_path),  # empty: no cached object
            "PATH": "",                        # no cc/gcc/clang findable
            "PYTHONPATH": str(Path(__file__).resolve().parents[2] / "src"),
            # interpreter hygiene on platforms that need it
            "SYSTEMROOT": os.environ.get("SYSTEMROOT", ""),
            "HOME": str(tmp_path),
        }
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "FELL-BACK-OK" in proc.stdout

    def test_explicit_set_backend_raises_when_unavailable(self, monkeypatch):
        monkeypatch.setattr(cnative.build, "find_compiler", lambda: None)
        monkeypatch.setattr(cnative.build, "cache_root",
                            lambda: Path("/nonexistent-cache"))
        assert not nn_backend.CNativeBackend.available()
        with pytest.raises(nn_backend.BackendUnavailableError):
            nn_backend.get("cnative")
        with pytest.raises(nn_backend.BackendUnavailableError):
            nn_backend.set_backend("cnative")


@needs_cnative
class TestThreadDeterminism:
    """Every kernel must be bitwise identical for any thread count."""

    def test_kernels_bitwise_across_thread_counts(self):
        lib = cnative.load()
        rng = np.random.default_rng(7)
        data = rng.normal(size=(500, 24))
        seg = np.sort(rng.integers(0, 40, size=500)).astype(np.int64)
        rows = rng.integers(0, 500, size=300).astype(np.int64)
        mat = rng.normal(size=(64, 16))
        weight = rng.normal(size=(24, 16))
        bias = rng.normal(size=24)
        iou = rng.normal(size=(80, 24))
        fc = rng.normal(size=(80, 8))

        for one, four in [
            (lib.segment_sum(data, seg, 40, nthreads=1),
             lib.segment_sum(data, seg, 40, nthreads=4)),
            (lib.segment_sum_pair(data, data * 0.5, seg, 40, nthreads=1),
             lib.segment_sum_pair(data, data * 0.5, seg, 40, nthreads=4)),
            (lib.take_rows(data, rows, nthreads=1),
             lib.take_rows(data, rows, nthreads=4)),
            (lib.gemm_gates(bias, 0, mat, weight, 3, nthreads=1),
             lib.gemm_gates(bias, 0, mat, weight, 3, nthreads=4)),
        ]:
            assert_array_equal(one, four)

        out1, th1 = lib.lstm_cell(iou, fc, nthreads=1)
        out4, th4 = lib.lstm_cell(iou, fc, nthreads=4)
        assert_array_equal(out1, out4)
        assert_array_equal(th1, th4)

    def test_env_thread_count_is_bitwise_neutral(self, monkeypatch):
        """REPRO_NUM_THREADS=1 vs 4 through the *backend* (auto
        dispatch), on an input large enough to cross the parallel
        threshold."""
        rng = np.random.default_rng(11)
        n = cnative.PAR_ROW_THRESHOLD + 512
        data = rng.normal(size=(n, 8))
        seg = rng.integers(0, 64, size=n).astype(np.int64)
        with nn_backend.use("cnative"):
            backend = nn_backend.active()
            monkeypatch.setenv("REPRO_NUM_THREADS", "1")
            serial = backend.segment_sum(data, seg, 64)
            monkeypatch.setenv("REPRO_NUM_THREADS", "4")
            threaded = backend.segment_sum(data, seg, 64)
        assert_array_equal(serial, threaded)

    def test_whole_pass_bitwise_across_thread_counts(self, monkeypatch):
        """A tree-LSTM up and down pass, forward and backward, on a
        forest whose widest levels cross the parallel threshold: root
        states and every gradient are bitwise equal under
        REPRO_NUM_THREADS=1 and 4."""
        from repro.nn import ForestSchedule, Tensor, TreeLSTMStack, \
            TreeSchedule

        star = [list(range(1, 31))] + [[] for _ in range(30)]
        forest = ForestSchedule([TreeSchedule(star)] * 160)
        assert forest.up_levels[0][0].size > cnative.PAR_ROW_THRESHOLD
        assert forest.up_levels[1][1].size > cnative.PAR_ROW_THRESHOLD
        rng = np.random.default_rng(5)
        inputs = rng.normal(size=(forest.num_nodes, 4))
        weights = rng.normal(size=(forest.num_trees, 8))

        def run(threads):
            monkeypatch.setenv("REPRO_NUM_THREADS", threads)
            with nn_backend.use("cnative"):
                stack = TreeLSTMStack(4, 8, num_layers=2,
                                      direction="alternating",
                                      rng=np.random.default_rng(1))
                x = Tensor(inputs, requires_grad=True)
                z = stack.root_states(x, forest)
                (z * Tensor(weights)).sum().backward()
            return [z.data, x.grad, *(p.grad for p in stack.parameters())]

        serial, threaded = run("1"), run("4")
        assert len(serial) == len(threaded) == 2 + 12
        for one, four in zip(serial, threaded):
            assert one.tobytes() == four.tobytes()


@needs_cnative
class TestBackendContract:
    def test_act_codes_match_loader_table(self):
        assert nn_backend.CNativeBackend._act_codes == \
            cnative.ACTIVATION_CODES

    def test_gradcheck_through_fused_paths(self):
        """Finite-difference gradcheck with cnative active, through the
        fused addmm(activation=...) forward/backward."""
        from repro.nn import Tensor

        rng = np.random.default_rng(3)
        base = Tensor(rng.normal(size=9), requires_grad=True)
        mat = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        weight = Tensor(rng.normal(size=(9, 4)), requires_grad=True)

        with nn_backend.use("cnative"):
            for activation in ("sigmoid", "tanh", "iou"):
                check_gradients(
                    lambda a=activation: Tensor.addmm(
                        base, mat, weight, activation=a).sum(),
                    [base, mat, weight])

    def test_checkpoint_stamp_carries_backend_name(self):
        with nn_backend.use("cnative"):
            stamp = nn_backend.describe()
        assert stamp["name"] == "cnative"
