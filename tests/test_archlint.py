"""Architecture lint: green on the tree, red on each seeded violation."""

import importlib.util
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


def load_archlint():
    spec = importlib.util.spec_from_file_location(
        "archlint", REPO_ROOT / "tools" / "archlint.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("archlint", module)
    spec.loader.exec_module(module)
    return module


archlint = load_archlint()


class TestTreeIsClean:
    def test_repository_has_no_violations(self):
        violations = archlint.scan(REPO_ROOT)
        assert violations == [], "\n".join(v.render() for v in violations)

    def test_cli_exit_code_is_zero(self, capsys):
        assert archlint.main(["--root", str(REPO_ROOT)]) == 0
        assert "0 violation(s)" in capsys.readouterr().out


class TestSeededViolations:
    """Each rule must catch a deliberately planted violation."""

    def seed(self, tmp_path, rel, source):
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
        return tmp_path

    def test_optimizer_step_outside_engine_is_caught(self, tmp_path):
        root = self.seed(tmp_path, "src/repro/train_quickly.py", """
def sneaky_training(model, optimizer, batches):
    for batch in batches:
        model.backward(batch)
        optimizer.step()
""")
        rules = {v.rule for v in archlint.scan(root)}
        assert "training-loop-outside-engine" in rules

    def test_epoch_range_loop_outside_engine_is_caught(self, tmp_path):
        root = self.seed(tmp_path, "src/repro/driver.py", """
def run(n):
    for epoch in range(n):
        print(epoch)
""")
        rules = {v.rule for v in archlint.scan(root)}
        assert "training-loop-outside-engine" in rules

    def test_reduceat_outside_backend_is_caught(self, tmp_path):
        root = self.seed(tmp_path, "src/repro/nn/fast_path.py", """
import numpy as np

def pool(data, starts):
    return np.add.reduceat(data, starts, axis=0)
""")
        rules = {v.rule for v in archlint.scan(root)}
        assert "kernel-outside-backend" in rules

    def test_sleep_in_serve_tests_is_caught(self, tmp_path):
        root = self.seed(tmp_path, "tests/serve/test_lazy.py", """
import time

def test_eventually():
    time.sleep(2.0)
""")
        rules = {v.rule for v in archlint.scan(root)}
        assert "sleep-in-serve-tests" in rules

    def test_print_in_serve_tier_is_caught(self, tmp_path):
        root = self.seed(tmp_path, "src/repro/serve/debuggy.py", """
def handle(request):
    print("got", request)
    return request
""")
        rules = {v.rule for v in archlint.scan(root)}
        assert "print-outside-obs" in rules

    def test_print_in_engine_tier_is_caught(self, tmp_path):
        root = self.seed(tmp_path, "src/repro/engine/peek.py",
                         "def show(x):\n    print(x)\n")
        rules = {v.rule for v in archlint.scan(root)}
        assert "print-outside-obs" in rules

    def test_counter_dict_in_serve_tier_is_caught(self, tmp_path):
        root = self.seed(tmp_path, "src/repro/serve/tally.py", """
class Tally:
    def __init__(self):
        self._counts = {"hits": 0, "misses": 0}
""")
        rules = {v.rule for v in archlint.scan(root)}
        assert "adhoc-counter-dict" in rules

    def test_ctypes_import_is_caught(self, tmp_path):
        root = self.seed(tmp_path, "src/repro/serve/fastpath.py", """
import ctypes

def load(path):
    return ctypes.CDLL(path)
""")
        rules = [v.rule for v in archlint.scan(root)]
        assert rules.count("native-compile") == 2

    def test_compiler_subprocess_is_caught(self, tmp_path):
        root = self.seed(tmp_path, "src/repro/nn/selfbuild.py", """
import subprocess

def build(src, out):
    subprocess.run(["cc", "-shared", "-fPIC", src, "-o", out])
""")
        rules = {v.rule for v in archlint.scan(root)}
        assert "native-compile" in rules

    def test_eager_adjacency_in_the_featurizer_is_caught(self, tmp_path):
        # the pre-lazy featurizer: every tree paid for the N×N matrix
        root = self.seed(tmp_path, "src/repro/core/features.py", """
from ..nn.gcn import normalized_adjacency

class TreeFeaturizer:
    def featurize(self, flat):
        return normalized_adjacency(flat.num_nodes, flat.edges)
""")
        found = [(v.rule, v.line) for v in archlint.scan(root)]
        assert found == [("dense-adjacency", 6)]

    def test_dense_adjacency_in_the_router_is_caught(self, tmp_path):
        root = self.seed(tmp_path, "src/repro/serve/route.py", """
from ..nn import gcn

def shard(features):
    return int(gcn.normalized_adjacency(features.num_nodes, []).sum())
""")
        rules = {v.rule for v in archlint.scan(root)}
        assert "dense-adjacency" in rules

    def test_cli_exit_code_is_one_on_violation(self, tmp_path, capsys):
        root = self.seed(tmp_path, "src/repro/driver.py",
                         "def f(o):\n    o.opt.step()\n")
        assert archlint.main(["--root", str(root)]) == 1
        assert "training-loop-outside-engine" in capsys.readouterr().out


class TestScopingAndPragmas:
    def seed(self, tmp_path, rel, source):
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
        return tmp_path

    def test_engine_loop_itself_is_allowed(self, tmp_path):
        root = self.seed(tmp_path, "src/repro/engine/loop.py", """
def train(self, cfg, state):
    for epoch in range(state.epoch, cfg.epochs):
        self.optimizer.step()
""")
        assert archlint.scan(root) == []

    def test_backend_reduceat_is_allowed(self, tmp_path):
        root = self.seed(tmp_path, "src/repro/nn/backend.py", """
import numpy as np

def segment_sum(data, starts):
    return np.add.reduceat(data, starts, axis=0)
""")
        assert archlint.scan(root) == []

    def test_gcn_and_the_lazy_adjacency_may_build_it(self, tmp_path):
        self.seed(tmp_path, "src/repro/nn/gcn.py", """
def normalized_adjacency(num_nodes, edges):
    return None

def demo():
    return normalized_adjacency(2, [(0, 1)])
""")
        root = self.seed(tmp_path, "src/repro/core/features.py", """
from ..nn.gcn import normalized_adjacency

class TreeFeatures:
    @property
    def adjacency(self):
        return normalized_adjacency(self.num_nodes, self.edges)

class Other:
    @property
    def adjacency(self):
        return normalized_adjacency(self.num_nodes, self.edges)
""")
        found = [(v.path, v.rule, v.line) for v in archlint.scan(root)]
        assert found == [("src/repro/core/features.py", "dense-adjacency",
                          12)]

    def test_allow_sleep_pragma_is_honoured(self, tmp_path):
        root = self.seed(tmp_path, "tests/serve/test_poll.py", """
import time

def wait_until(predicate):
    while not predicate():
        time.sleep(0.05)  # archlint: allow-sleep (bounded poll)
""")
        assert archlint.scan(root) == []

    def test_unit_tests_may_step_optimizers(self, tmp_path):
        # the training-loop rule is a product-code (src/) invariant;
        # optimizer unit tests under tests/ are out of scope
        root = self.seed(tmp_path, "tests/serve/test_opt.py",
                         "def test_step(opt):\n    opt.step()\n")
        assert archlint.scan(root) == []

    def test_obs_package_may_print(self, tmp_path):
        # obs/ is the reporting layer; its exposition code is exempt
        root = self.seed(tmp_path, "src/repro/obs/dump.py",
                         "def dump(s):\n    print(s)\n")
        assert archlint.scan(root) == []

    def test_print_outside_serve_engine_is_out_of_scope(self, tmp_path):
        root = self.seed(tmp_path, "src/repro/cli_extra.py",
                         "def banner():\n    print('hi')\n")
        assert archlint.scan(root) == []

    def test_allow_print_pragma_is_honoured(self, tmp_path):
        root = self.seed(tmp_path, "src/repro/engine/progress.py", """
def line(msg):
    print(msg)  # archlint: allow-print (user-facing progress line)
""")
        assert archlint.scan(root) == []

    def test_allow_counter_dict_pragma_is_honoured(self, tmp_path):
        root = self.seed(tmp_path, "src/repro/serve/views.py", """
class View:
    def __init__(self, fam):
        self.counts_by_op = {  # archlint: allow-counter-dict (view)
            name: fam.labels(name) for name in ("a", "b")}
""")
        assert archlint.scan(root) == []

    def test_local_counter_dict_is_allowed(self, tmp_path):
        # the rule targets instance state; a local aggregation dict in a
        # stats() view is exactly the sanctioned pattern
        root = self.seed(tmp_path, "src/repro/serve/summary.py", """
def stats(families):
    counts = {name: f.value for name, f in families.items()}
    return counts
""")
        assert archlint.scan(root) == []

    def test_former_cnative_tree_is_caught_too(self, tmp_path):
        # No tree under src/ is exempt: the path the deleted C backend
        # compiled and loaded from gets the same three findings.
        root = self.seed(tmp_path, "src/repro/nn/cnative/loader2.py", """
import ctypes
import subprocess

def build_and_load(src, out):
    subprocess.run(["cc", "-shared", "-fPIC", src, "-o", out])
    return ctypes.CDLL(out)
""")
        found = sorted((v.rule, v.line) for v in archlint.scan(root))
        assert found == [("native-compile", 2), ("native-compile", 6),
                         ("native-compile", 7)]

    def test_allow_native_compile_pragma_is_honoured(self, tmp_path):
        root = self.seed(tmp_path, "src/repro/probe.py", """
import ctypes  # archlint: allow-native-compile (libc clock probe)

def ticks():
    return ctypes.CDLL(None).clock()  # archlint: allow-native-compile (ditto)
""")
        assert archlint.scan(root) == []

    def test_plain_subprocess_is_not_a_native_compile(self, tmp_path):
        # subprocess use without compiler markers (the cluster tier
        # spawning workers, git calls, ...) is out of scope
        root = self.seed(tmp_path, "src/repro/serve/spawn.py", """
import subprocess

def spawn(argv):
    return subprocess.Popen(argv)
""")
        assert archlint.scan(root) == []

    def test_docstrings_and_comments_cannot_trip_rules(self, tmp_path):
        root = self.seed(tmp_path, "src/repro/notes.py", '''
"""This module documents np.add.reduceat and optimizer.step()."""
# for epoch in range(10): optimizer.step()
VALUE = 1
''')
        assert archlint.scan(root) == []

    def test_syntax_error_is_reported_not_crashed(self, tmp_path):
        root = self.seed(tmp_path, "src/repro/broken.py", "def f(:\n")
        violations = archlint.scan(root)
        assert [v.rule for v in violations] == ["syntax-error"]
