"""End-to-end CLI tests: collect -> stats -> train -> predict."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main

from .helpers import pre_removal_checkpoint

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    db_path = root / "corpus.jsonl"
    code = main(["collect", "--tags", "C", "--per-problem", "14",
                 "--scale", "0.3", "--out", str(db_path)])
    assert code == 0
    return root, db_path


class TestCollectAndStats:
    def test_collect_writes_db(self, workspace):
        _, db_path = workspace
        assert db_path.exists()
        lines = db_path.read_text().strip().splitlines()
        assert len(lines) == 14

    def test_stats_prints_table(self, workspace, capsys):
        _, db_path = workspace
        assert main(["stats", "--db", str(db_path)]) == 0
        out = capsys.readouterr().out
        assert "Median(ms)" in out
        assert "C" in out

    def test_collect_mp(self, tmp_path):
        out = tmp_path / "mp.jsonl"
        assert main(["collect", "--tags", "MP", "--per-problem", "2",
                     "--scale", "0.3", "--out", str(out)]) == 0
        assert out.exists()


class TestLintCorpus:
    def test_generated_sample_is_clean(self, capsys):
        assert main(["lint-corpus", "--tags", "C", "--per-problem", "3",
                     "--scale", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "0 unsuppressed finding(s)" in out

    def test_db_mode_lints_collected_corpus(self, workspace, capsys):
        _, db_path = workspace
        assert main(["lint-corpus", "--db", str(db_path)]) == 0
        assert "14 programs" in capsys.readouterr().out

    def test_json_report_shape(self, capsys):
        assert main(["lint-corpus", "--tags", "C", "--per-problem", "2",
                     "--scale", "0.3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["programs"] == 2
        assert payload["unsuppressed"] == []

    def test_findings_gate_the_exit_code(self, tmp_path, capsys,
                                         monkeypatch):
        # sabotage one generated program: the gate must exit 1 and name
        # the finding; a matching suppression must bring it back to 0
        from repro.corpus.registry import family_for_tag

        family_cls = type(family_for_tag("C", scale=0.3))
        original = family_cls.emit_solution

        def sabotaged(self, rng, style):
            solution = original(self, rng, style)
            broken = solution.source.replace(
                "int main() {",
                "int main() {\n    int cli_gate_probe;", 1)
            return type(solution)(source=broken, variant=solution.variant,
                                  knobs=solution.knobs)

        monkeypatch.setattr(family_cls, "emit_solution", sabotaged)
        assert main(["lint-corpus", "--tags", "C", "--per-problem", "1",
                     "--scale", "0.3"]) == 1
        assert "cli_gate_probe" in capsys.readouterr().out

        suppressions = tmp_path / "baseline.json"
        suppressions.write_text(json.dumps({"version": 1, "suppressions": [
            {"rule": "unused-variable", "context": "C/*",
             "source": "cli_gate_probe",
             "reason": "test fixture: deliberately planted finding"}]}))
        assert main(["lint-corpus", "--tags", "C", "--per-problem", "1",
                     "--scale", "0.3", "--baseline",
                     str(suppressions)]) == 0
        assert "1 suppressed" in capsys.readouterr().out

    def test_collect_lint_flag(self, tmp_path, capsys):
        out = tmp_path / "linted.jsonl"
        assert main(["collect", "--tags", "C", "--per-problem", "2",
                     "--scale", "0.3", "--lint", "--out", str(out)]) == 0
        assert "lint gate on" in capsys.readouterr().out
        assert out.exists()


class TestTrainAndPredict:
    @pytest.fixture(scope="class")
    def model_path(self, workspace):
        root, db_path = workspace
        model = root / "model.npz"
        code = main(["train", "--db", str(db_path), "--tag", "C",
                     "--encoder", "gcn", "--epochs", "5",
                     "--pairs", "70", "--out", str(model)])
        assert code == 0
        return model

    def test_train_writes_model_and_meta(self, model_path):
        from repro.serve.checkpoint import read_checkpoint_meta

        assert model_path.exists()
        assert not model_path.with_suffix(".json").exists()
        meta = read_checkpoint_meta(model_path)
        assert meta["model"]["encoder_kind"] == "gcn"
        assert 0.0 <= meta["extra"]["accuracy"] <= 1.0

    def test_predict_orders_fast_vs_slow(self, workspace, model_path, capsys):
        root, db_path = workspace
        from repro.corpus import SubmissionDatabase

        db = SubmissionDatabase.load(db_path)
        subs = sorted(db.submissions("C"), key=lambda s: s.mean_runtime_ms)
        fast, slow = subs[0], subs[-1]
        old_file = root / "old.cpp"
        new_file = root / "new.cpp"
        old_file.write_text(fast.source)
        new_file.write_text(slow.source)
        code = main(["predict", "--model", str(model_path),
                     "--old", str(old_file), "--new", str(new_file)])
        out = capsys.readouterr().out
        assert "P(new version is slower)" in out
        assert code in (0, 2)  # 2 == flagged

    def test_predict_exit_code_semantics(self, workspace, model_path,
                                         capsys):
        root, db_path = workspace
        from repro.corpus import SubmissionDatabase

        db = SubmissionDatabase.load(db_path)
        subs = sorted(db.submissions("C"), key=lambda s: s.mean_runtime_ms)
        same = root / "same.cpp"
        same.write_text(subs[0].source)
        # Comparing a file to itself: probability should sit mid-range,
        # and the command must not crash.
        code = main(["predict", "--model", str(model_path),
                     "--old", str(same), "--new", str(same),
                     "--threshold", "0.99"])
        assert code == 0  # not flagged at an extreme threshold

    def test_tag_required_without_resume(self, workspace, tmp_path):
        _, db_path = workspace
        with pytest.raises(SystemExit):
            main(["train", "--db", str(db_path),
                  "--out", str(tmp_path / "m.npz")])

    def test_unknown_backend_exits_nonzero(self, workspace, tmp_path):
        # The deleted C backend's name is as unknown as any other.
        _, db_path = workspace
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "train", "--backend", "cnative",
             "--db", str(db_path), "--tag", "C",
             "--out", str(tmp_path / "m.npz")],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")))
        assert proc.returncode != 0
        assert ("--backend: unknown backend 'cnative' (registered: "
                "['numpy32', 'numpy64'])") in proc.stderr
        assert not (tmp_path / "m.npz").exists()


class TestResumeTraining:
    """The CI resume-equivalence smoke, at the CLI surface: train 2
    epochs -> checkpoint -> resume 2 more == straight 4 epochs."""

    ARGS = ["--tag", "C", "--encoder", "gcn", "--pairs", "40"]

    def test_resume_equals_straight_run(self, workspace, tmp_path, capsys):
        from repro.serve import load_checkpoint, read_checkpoint_meta

        _, db_path = workspace
        straight = tmp_path / "straight.npz"
        assert main(["train", "--db", str(db_path), *self.ARGS,
                     "--epochs", "4", "--out", str(straight)]) == 0

        # "Killed" run: a 2-epoch budget leaves a v2 checkpoint behind...
        resumable = tmp_path / "resumable.npz"
        assert main(["train", "--db", str(db_path), *self.ARGS,
                     "--epochs", "2", "--checkpoint-every", "1",
                     "--out", str(resumable)]) == 0
        meta = read_checkpoint_meta(resumable)
        assert meta["version"] == 2
        assert meta["training"]["epoch"] == 2
        assert meta["extra"]["experiment"]["tag"] == "C"

        # ... which resumes (tag recovered from the checkpoint) to the
        # full budget.
        assert main(["train", "--db", str(db_path), "--resume",
                     str(resumable), "--epochs", "4",
                     "--out", str(resumable)]) == 0
        assert "resumed from" in capsys.readouterr().out

        reference = load_checkpoint(straight)
        resumed = load_checkpoint(resumable)
        for (name, a), (_, b) in zip(reference.named_parameters(),
                                     resumed.named_parameters()):
            assert np.array_equal(a.data, b.data), name
        assert read_checkpoint_meta(resumable)["training"]["epoch"] == 4

    def test_pre_removal_checkpoint_resumes(self, workspace, tmp_path):
        """A checkpoint whose header still stores the removed training
        options at their off values resumes to the straight run; one
        with an option switched on is refused, naming it."""
        from repro.serve import load_checkpoint, read_checkpoint_meta

        _, db_path = workspace
        straight = tmp_path / "straight.npz"
        assert main(["train", "--db", str(db_path), *self.ARGS,
                     "--epochs", "4", "--out", str(straight)]) == 0
        killed = tmp_path / "killed.npz"
        assert main(["train", "--db", str(db_path), *self.ARGS,
                     "--epochs", "2", "--out", str(killed)]) == 0

        legacy = pre_removal_checkpoint(killed, tmp_path / "legacy.npz")
        assert main(["train", "--db", str(db_path), "--resume", str(legacy),
                     "--epochs", "4", "--out", str(legacy)]) == 0
        reference = load_checkpoint(straight)
        resumed = load_checkpoint(legacy)
        for (name, a), (_, b) in zip(reference.named_parameters(),
                                     resumed.named_parameters()):
            assert np.array_equal(a.data, b.data), name
        histories = [read_checkpoint_meta(path)["training"]["history"]
                     for path in (straight, legacy)]
        assert histories[0]["losses"] == histories[1]["losses"]
        assert histories[0]["grad_norms"] == histories[1]["grad_norms"]

        for option in ({"accum_steps": 2}, {"early_stop_patience": 3}):
            refused = pre_removal_checkpoint(killed,
                                             tmp_path / "refused.npz",
                                             **option)
            [key] = option
            with pytest.raises(ValueError, match=key):
                main(["train", "--db", str(db_path), "--resume",
                      str(refused), "--out", str(tmp_path / "out.npz")])

    def test_resume_rejects_conflicting_flags(self, workspace, tmp_path):
        _, db_path = workspace
        ckpt = tmp_path / "small.npz"
        assert main(["train", "--db", str(db_path), *self.ARGS,
                     "--epochs", "1", "--out", str(ckpt)]) == 0
        with pytest.raises(SystemExit, match="conflicting.*--encoder"):
            main(["train", "--db", str(db_path), "--resume", str(ckpt),
                  "--encoder", "lstm", "--out", str(ckpt)])
        with pytest.raises(SystemExit, match="conflicting.*--hidden"):
            main(["train", "--db", str(db_path), "--resume", str(ckpt),
                  "--hidden", "64", "--out", str(ckpt)])
        with pytest.raises(SystemExit, match="conflicting.*--tag"):
            main(["train", "--db", str(db_path), "--resume", str(ckpt),
                  "--tag", "F", "--out", str(ckpt)])

    def test_resume_rejects_inference_only_checkpoint(self, workspace,
                                                      tmp_path):
        from repro.core import build_model
        from repro.serve import save_checkpoint

        _, db_path = workspace
        plain = save_checkpoint(build_model(embedding_dim=8, hidden_size=8),
                                tmp_path / "plain.npz")
        with pytest.raises(SystemExit, match="inference-only"):
            main(["train", "--db", str(db_path), "--resume", str(plain),
                  "--out", str(tmp_path / "out.npz")])
