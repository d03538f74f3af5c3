"""Save/load ``name -> array`` mappings as ``.npz`` archives with a
JSON metadata header.

``save_state(state, path, meta)`` embeds one JSON document alongside
the arrays under the reserved ``__meta__`` key, and
``load_state_with_meta`` recovers both halves (``meta`` is ``None`` for
a foreign archive without the header). Paths are normalized to the
``.npz`` suffix on *both* ends (``np.savez`` silently appends it, so a
suffixless path used to save fine and then fail to load). The
versioned model checkpoints of :mod:`repro.serve.checkpoint` are the
one format written through here; their header alone is read without
numpy by :mod:`repro.serve.checkpoint_meta`.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

__all__ = ["save_state", "load_state_with_meta", "METADATA_KEY"]

METADATA_KEY = "__meta__"


def _normalize(path) -> Path:
    """Append ``.npz`` when absent, matching ``np.savez``'s behaviour."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    return path


def save_state(state: dict, path, meta: dict) -> Path:
    """Write a ``name -> array`` mapping plus its JSON metadata.

    ``meta`` must be JSON-serializable; it is stored under the reserved
    ``__meta__`` key, which therefore cannot be a state-dict entry.
    Returns the normalized path actually written.

    The write is **atomic** (temp file + ``os.replace``): periodic
    training checkpoints overwrite their previous resume point in
    place, and a kill mid-write — the exact event checkpoints exist
    for — must never destroy the last good one.
    """
    if METADATA_KEY in state:
        raise ValueError(f"state key {METADATA_KEY!r} is reserved for metadata")
    path = _normalize(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    arrays = {k: np.asarray(v) for k, v in state.items()}
    arrays[METADATA_KEY] = np.frombuffer(json.dumps(meta).encode("utf-8"),
                                         dtype=np.uint8)
    # .npz-suffixed staging name so np.savez writes it verbatim
    staging = path.with_name(path.name + ".tmp.npz")
    try:
        np.savez(staging, **arrays)
        os.replace(staging, path)
    finally:
        staging.unlink(missing_ok=True)
    return path


def load_state_with_meta(path, skip_prefix: str | None = None
                         ) -> tuple[dict, dict | None]:
    """Arrays plus the decoded ``meta`` dict (``None`` when absent).

    ``skip_prefix`` drops matching keys *without materializing them* —
    npz members decompress lazily, so an inference load can ignore a v2
    training checkpoint's optimizer arrays at zero read cost.
    """
    with np.load(_normalize(path)) as archive:
        state = {k: archive[k] for k in archive.files
                 if k != METADATA_KEY
                 and not (skip_prefix and k.startswith(skip_prefix))}
        meta = None
        if METADATA_KEY in archive.files:
            meta = json.loads(archive[METADATA_KEY].tobytes().decode("utf-8"))
    return state, meta
