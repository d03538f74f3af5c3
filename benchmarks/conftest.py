"""Benchmark fixtures: cached corpora and the bench scale profile.

Every benchmark regenerates one table or figure of the paper via the
drivers in :mod:`repro.experiments`. The corpora are built once (a few
minutes of interpreter time) and cached under ``.corpus_cache/`` at the
repository root; subsequent runs reload in milliseconds.

Rendered outputs are written to ``benchmarks/results/`` (one text file
per table or figure, via ``write_result``), so the paper-vs-measured
comparison comes from a single run.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments import BENCH, load_mp_corpus, load_table1_corpus

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def profile():
    return BENCH


@pytest.fixture(scope="session")
def table1_db(profile):
    return load_table1_corpus(profile)


@pytest.fixture(scope="session")
def mp_db(profile):
    return load_mp_corpus(profile)


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def write_result(results_dir: Path, name: str, rendered: str) -> None:
    (results_dir / f"{name}.txt").write_text(rendered + "\n")
    print(f"\n{rendered}\n")
