#!/usr/bin/env python
"""Architecture lint: enforce the repo's layering invariants by AST.

The invariants (see ROADMAP.md "architecture invariants") are easy to
violate silently — a stray ``optimizer.step()`` in a driver quietly
forks the training loop, a hand-rolled ``reduceat`` bypasses the
backend's dtype policy, a ``time.sleep`` in a serve test reintroduces
the wall-clock flakiness the fault-plan work removed. This tool walks
every Python file with :mod:`ast` (comments and docstrings cannot trip
it) and fails CI on:

``training-loop-outside-engine``
    In ``src/``, an optimizer/scheduler ``.step()`` call or a
    ``for ... in range(...)`` epoch loop anywhere but
    ``src/repro/engine/loop.py``. All training steps through the one
    engine loop — that is what makes checkpoint/resume bitwise.
``kernel-outside-backend``
    In ``src/``, a ``reduceat`` kernel outside
    ``src/repro/nn/backend.py``. Hot kernels live behind the backend so
    dtype policy and kernel dispatch stay in one place.
``sleep-in-serve-tests``
    A ``time.sleep`` call under ``tests/serve/`` — serve tests are
    driven by seeded fault plans, not wall-clock waits. A genuinely
    bounded poll may carry a same-line ``# archlint: allow-sleep``
    pragma with a reason.
``print-outside-obs``
    A ``print(`` call in ``src/repro/serve/`` or ``src/repro/engine/``
    outside ``src/repro/obs/`` — the serving and training tiers report
    through the obs registry / structured replies, not stdout. A
    deliberate user-facing line carries ``# archlint: allow-print``.
``adhoc-counter-dict``
    A dict-literal counter store (an attribute named ``counters``,
    ``_counts``, ``flush_triggers``, … assigned ``{...}``) in
    ``src/repro/serve/`` or ``src/repro/engine/`` — counters belong on
    the :mod:`repro.obs.metrics` registry so one snapshot covers them
    all. Annotate a non-metric mapping with
    ``# archlint: allow-counter-dict``.
``native-compile``
    Anywhere in ``src/``, a ``ctypes`` import, a ``CDLL``/``LoadLibrary``
    call, or a subprocess invocation carrying compiler-marker literals
    (``cc``/``gcc``/``clang``/``-shared``/``-fPIC``/``-fopenmp``). The
    package is pure Python on NumPy: self-compiled native code brings a
    build cache, an ABI seam and a no-compiler fallback with it, which
    must be bought with a measured win on the real workload. A
    deliberate exception carries ``# archlint: allow-native-compile``.
``dense-adjacency``
    In ``src/``, a ``normalized_adjacency(`` call anywhere but
    ``src/repro/nn/gcn.py`` and the lazy ``TreeFeatures.adjacency``
    property in ``src/repro/core/features.py``. The dense N×N matrix
    costs ``N² × 8`` bytes and only the GCN reads it: built eagerly by
    the featurizer, every tree-LSTM run and the serving router paid
    for it (276 MiB for one 6,000-node tree).

Usage::

    python tools/archlint.py [--root DIR] [--json]

Exit status 0 when clean, 1 when any violation is found.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from dataclasses import dataclass
from pathlib import Path

__all__ = ["Violation", "check_source", "scan", "main", "RULES"]

RULES = ("training-loop-outside-engine", "kernel-outside-backend",
         "sleep-in-serve-tests", "print-outside-obs",
         "adhoc-counter-dict", "native-compile", "dense-adjacency")

#: the one file allowed to drive optimizer steps and epoch loops
_ENGINE_LOOP = "src/repro/engine/loop.py"
#: the only home for the reduceat kernel
_KERNEL_HOMES = frozenset({"src/repro/nn/backend.py"})
#: receivers whose ``.step()`` is a training-loop step
_STEP_RECEIVERS = ("opt", "sched")
#: trees whose counters must live on the obs registry (and whose
#: stdout is reserved for protocol payloads)
_OBS_DISCIPLINE_TREES = ("src/repro/serve/", "src/repro/engine/")
_OBS_HOME = "src/repro/obs/"
#: attribute names that smell like an ad-hoc counter store
_COUNTER_ATTR_MARKERS = ("counter", "_counts", "counts_",
                         "flush_triggers", "_hits", "_misses")
#: string literals that mark a subprocess call as a compiler invocation
_COMPILER_LITERALS = frozenset({"cc", "gcc", "clang",
                                "-shared", "-fPIC", "-fopenmp"})
#: callable names that load a shared object
_DLOPEN_NAMES = frozenset({"CDLL", "LoadLibrary", "WinDLL", "PyDLL"})
#: the dense GCN adjacency builder's home, and the one reader allowed to
#: call it: (file, class, method) of the lazy ``TreeFeatures.adjacency``
_ADJACENCY_HOME = "src/repro/nn/gcn.py"
_ADJACENCY_READER = ("src/repro/core/features.py", "TreeFeatures",
                     "adjacency")
_PRAGMA = "# archlint: allow-"


@dataclass(frozen=True)
class Violation:
    rule: str
    path: str
    line: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"

    def to_dict(self) -> dict:
        return {"rule": self.rule, "path": self.path, "line": self.line,
                "message": self.message}


def _receiver_name(node: ast.expr) -> str:
    """Trailing identifier of an attribute chain (``a.b.opt`` -> opt)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


def _is_step_call(call: ast.Call) -> bool:
    func = call.func
    if not (isinstance(func, ast.Attribute) and func.attr == "step"):
        return False
    receiver = _receiver_name(func.value).lower()
    return any(marker in receiver for marker in _STEP_RECEIVERS)


def _is_epoch_range_loop(node: ast.For) -> bool:
    if not (isinstance(node.iter, ast.Call)
            and isinstance(node.iter.func, ast.Name)
            and node.iter.func.id == "range"):
        return False
    target = node.target
    return isinstance(target, ast.Name) and "epoch" in target.id.lower()


def _is_sleep_call(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr == "sleep":
        return True
    return isinstance(func, ast.Name) and func.id == "sleep"


def _is_print_call(call: ast.Call) -> bool:
    return isinstance(call.func, ast.Name) and call.func.id == "print"


def _is_counter_dict_assign(node: ast.Assign) -> bool:
    """An attribute whose name smells like a counter store, assigned a
    dict literal / comprehension (``self.counters = {...}``). Local
    variables are fine — the rule targets *instance state* that stats()
    would have to hand-aggregate."""
    if not isinstance(node.value, (ast.Dict, ast.DictComp)):
        return False
    for target in node.targets:
        if isinstance(target, ast.Attribute):
            name = target.attr.lower()
            if any(marker in name for marker in _COUNTER_ATTR_MARKERS):
                return True
    return False


def _is_ctypes_import(node: ast.stmt) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name == "ctypes" or alias.name.startswith("ctypes.")
                   for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return module == "ctypes" or module.startswith("ctypes.")
    return False


def _is_dlopen_call(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in _DLOPEN_NAMES:
        return True
    return isinstance(func, ast.Name) and func.id in _DLOPEN_NAMES


def _call_name(call: ast.Call) -> str:
    """The called name: ``f`` for ``f(...)`` and ``a.b.f(...)``."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else ""


def _is_compiler_subprocess(call: ast.Call) -> bool:
    """A subprocess-style call whose arguments carry compiler markers
    (``["cc", "-shared", ...]``) — i.e. code that shells out to a C
    compiler."""
    name = _call_name(call)
    if name not in ("run", "call", "check_call", "check_output", "Popen"):
        return False
    return any(isinstance(sub, ast.Constant) and isinstance(sub.value, str)
               and sub.value in _COMPILER_LITERALS
               for sub in ast.walk(call))


def _lazy_adjacency_calls(rel: str, tree: ast.Module) -> set[int]:
    """``id``s of the call nodes inside the lazy ``TreeFeatures.adjacency``
    (none outside its file)."""
    path, cls, method = _ADJACENCY_READER
    if rel != path:
        return set()
    return {id(sub) for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name == cls
            for item in node.body
            if isinstance(item, ast.FunctionDef) and item.name == method
            for sub in ast.walk(item)}


def _allowed(lines: list[str], lineno: int, rule_suffix: str) -> bool:
    if not 1 <= lineno <= len(lines):
        return False
    return f"{_PRAGMA}{rule_suffix}" in lines[lineno - 1]


def check_source(rel_path: str, source: str) -> list[Violation]:
    """All violations in one file, given its path relative to the root."""
    rel = Path(rel_path).as_posix()
    in_src = rel.startswith("src/")
    in_serve_tests = rel.startswith("tests/serve/")
    if not (in_src or in_serve_tests):
        return []
    try:
        tree = ast.parse(source)
    except SyntaxError as error:
        return [Violation("syntax-error", rel, error.lineno or 0,
                          str(error))]
    lines = source.splitlines()
    lazy_adjacency = _lazy_adjacency_calls(rel, tree)
    violations: list[Violation] = []
    for node in ast.walk(tree):
        if in_src and rel != _ENGINE_LOOP:
            if isinstance(node, ast.Call) and _is_step_call(node):
                violations.append(Violation(
                    "training-loop-outside-engine", rel, node.lineno,
                    "optimizer/scheduler .step() outside the engine "
                    "loop; route training through repro.engine"))
            if isinstance(node, ast.For) and _is_epoch_range_loop(node):
                violations.append(Violation(
                    "training-loop-outside-engine", rel, node.lineno,
                    "epoch range() loop outside the engine loop; route "
                    "training through repro.engine"))
        if in_src and rel not in _KERNEL_HOMES:
            if isinstance(node, ast.Attribute) and node.attr == "reduceat":
                violations.append(Violation(
                    "kernel-outside-backend", rel, node.lineno,
                    "reduceat kernel outside repro.nn.backend; hot "
                    "kernels go through the ops backend"))
        in_obs_discipline = (any(rel.startswith(t)
                                 for t in _OBS_DISCIPLINE_TREES)
                             and not rel.startswith(_OBS_HOME))
        if in_obs_discipline:
            if (isinstance(node, ast.Call) and _is_print_call(node)
                    and not _allowed(lines, node.lineno, "print")):
                violations.append(Violation(
                    "print-outside-obs", rel, node.lineno,
                    "print() in the serve/engine tier; report through "
                    "the obs registry or a structured reply (or "
                    "annotate with '# archlint: allow-print <reason>')"))
            if (isinstance(node, ast.Assign)
                    and _is_counter_dict_assign(node)
                    and not _allowed(lines, node.lineno, "counter-dict")):
                violations.append(Violation(
                    "adhoc-counter-dict", rel, node.lineno,
                    "ad-hoc counter dict in the serve/engine tier; put "
                    "counters on the repro.obs.metrics registry (or "
                    "annotate with "
                    "'# archlint: allow-counter-dict <reason>')"))
        if in_src:
            offending = (
                _is_ctypes_import(node) if isinstance(node, (ast.Import,
                                                             ast.ImportFrom))
                else (_is_dlopen_call(node) or _is_compiler_subprocess(node))
                if isinstance(node, ast.Call) else False)
            if offending and not _allowed(lines, node.lineno,
                                          "native-compile"):
                violations.append(Violation(
                    "native-compile", rel, node.lineno,
                    "ctypes / shared-object load / compiler subprocess "
                    "in src/; the package is pure Python on NumPy (or "
                    "annotate with "
                    "'# archlint: allow-native-compile <reason>')"))
        if (in_src and rel != _ADJACENCY_HOME
                and isinstance(node, ast.Call)
                and _call_name(node) == "normalized_adjacency"
                and id(node) not in lazy_adjacency):
            violations.append(Violation(
                "dense-adjacency", rel, node.lineno,
                "dense N×N adjacency built outside repro.nn.gcn and the "
                "lazy TreeFeatures.adjacency; only the GCN reads it"))
        if in_serve_tests:
            if (isinstance(node, ast.Call) and _is_sleep_call(node)
                    and not _allowed(lines, node.lineno, "sleep")):
                violations.append(Violation(
                    "sleep-in-serve-tests", rel, node.lineno,
                    "time.sleep in a serve test; use seeded FaultPlans "
                    "(or annotate a bounded poll with "
                    "'# archlint: allow-sleep <reason>')"))
    return violations


def scan(root: Path) -> list[Violation]:
    """Scan every ``.py`` file under ``root``'s src/ and tests/serve/."""
    root = Path(root)
    violations: list[Violation] = []
    for subdir in ("src", "tests/serve"):
        base = root / subdir
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            violations.extend(check_source(rel, path.read_text()))
    violations.sort(key=lambda v: (v.path, v.line, v.rule))
    return violations


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repo root (default: this file's parent's "
                             "parent)")
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)
    root = Path(args.root) if args.root else Path(__file__).parent.parent
    violations = scan(root)
    if args.json:
        print(json.dumps([v.to_dict() for v in violations], indent=2))
    else:
        for violation in violations:
            print(violation.render())
        print(f"archlint: {len(violations)} violation(s)")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
