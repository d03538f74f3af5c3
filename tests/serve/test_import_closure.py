"""What each serving process loads.

The cluster front door parses, hashes and forwards; it never touches a
weight, so it must not load numpy. A worker answers requests from a
checkpoint; it must not load the training, corpus or judge stacks, or
the HTTP scrape server it does not run. Each check runs in a fresh
interpreter, because this test process has long since imported
everything.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import build_model
from repro.serve import save_checkpoint

from .test_service_e2e import variants

REPO_ROOT = Path(__file__).resolve().parents[2]

#: the training, corpus and judge stacks, which no serving process runs
TRAINING_STACKS = ("repro.judge", "repro.corpus", "repro.data",
                   "repro.engine")
#: the HTTP server, with ``ssl`` and ``email`` behind it, which a worker
#: does not run
HTTP_STACK = ("http.server", "ssl", "email")


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    model = build_model(embedding_dim=8, hidden_size=8, seed=0)
    return save_checkpoint(model,
                           tmp_path_factory.mktemp("closure") / "m.npz")


def loaded_after(script: str, *args) -> list[str]:
    """``sys.modules`` of a fresh interpreter after it ran ``script``."""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c",
         script + "print(' '.join(sorted(sys.modules)))\n",
         *map(str, args)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def imported(loaded: list[str], package: str) -> list[str]:
    return [m for m in loaded if m == package or m.startswith(package + ".")]


def test_front_door_routes_without_numpy(checkpoint):
    first, second = variants(2)
    loaded = loaded_after(
        "import sys\n"
        "import repro.cli, repro.serve.cluster, repro.serve.supervisor\n"
        "from repro.serve.cluster import _Router\n"
        "router = _Router(sys.argv[1], 2)\n"
        "request = {'op': 'compare', 'first': sys.argv[2],\n"
        "           'second': sys.argv[3]}\n"
        "shard = router.shard_for(request)\n"
        "assert shard in (0, 1), shard\n",
        checkpoint, first, second)
    assert "repro.lang.parser" in loaded     # the check itself is live
    for name in ("numpy",) + TRAINING_STACKS:
        assert not imported(loaded, name), name
    # the lazy package __init__s of repro.core and repro.nn may load;
    # none of their modules may
    assert not [m for m in loaded
                if m.startswith(("repro.core.", "repro.nn."))]


def test_worker_loads_only_what_serves(checkpoint):
    first, second = variants(2)
    # the imports and calls of repro.serve.worker.main's boot, then one
    # request
    loaded = loaded_after(
        "import sys\n"
        "from repro.nn import backend\n"
        "from repro.serve.checkpoint_meta import checkpoint_signature\n"
        "from repro.serve.faults import FaultPlan\n"
        "from repro.serve.protocol import handle_request\n"
        "from repro.serve.service import PredictionService\n"
        "FaultPlan.from_json(None)\n"
        "checkpoint_signature(sys.argv[1])\n"
        "backend.describe()\n"
        "service = PredictionService.from_checkpoint(sys.argv[1],\n"
        "                                            threaded=False)\n"
        "reply = handle_request(service, {'op': 'compare',\n"
        "    'first': sys.argv[2], 'second': sys.argv[3]})\n"
        "assert reply['ok'], reply\n",
        checkpoint, first, second)
    assert "numpy" in loaded                 # the check itself is live
    for name in TRAINING_STACKS + HTTP_STACK:
        assert not imported(loaded, name), name


def test_cluster_rejects_unknown_backend_before_spawning(checkpoint):
    # The front door checks the name against repro.nn.policy itself;
    # no worker is started for a name no worker could run.
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "serve", "--model", str(checkpoint),
         "--workers", "2", "--backend", "cnative",
         "--listen", "127.0.0.1:0"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode != 0
    assert ("--backend: unknown backend 'cnative' (registered: "
            "['numpy32', 'numpy64'])") in proc.stderr
    assert "cluster:" not in proc.stderr


@pytest.mark.parametrize("package", ["repro.core", "repro.nn", "repro.obs",
                                     "repro.serve"])
def test_lazy_package_resolves_every_public_name(package):
    # The lazy export table and __all__ are two lists; a name in one and
    # not the other would break `from <package> import <name>`. This
    # check needs no fresh interpreter: it only resolves names.
    module = importlib.import_module(package)
    for name in module.__all__:
        getattr(module, name)
