"""A checkpoint's identity and JSON header, read without numpy.

The cluster front door needs a checkpoint's vocabulary to route, and
the supervisor its content digest to name a model version; neither
touches a weight. This leaf module serves both from the archive's
``__meta__`` member (the JSON header :func:`repro.nn.serialize.save_state`
stores as a ``uint8`` array) with :mod:`zipfile` and a ``.npy`` header
parse, so those processes never load numpy. Full loads live in
:mod:`repro.serve.checkpoint`, which re-exports everything here.
"""

from __future__ import annotations

import ast
import hashlib
import json
import zipfile
from pathlib import Path

__all__ = ["read_checkpoint_meta", "checkpoint_signature",
           "NotACheckpointError", "CHECKPOINT_FORMAT", "CHECKPOINT_VERSION"]

CHECKPOINT_FORMAT = "repro-model-checkpoint"
CHECKPOINT_VERSION = 2

#: the archive member ``save_state`` writes the JSON header to
_META_MEMBER = "__meta__.npy"
_NPY_MAGIC = b"\x93NUMPY"


class NotACheckpointError(ValueError):
    """The archive is not a versioned checkpoint (a foreign ``.npz``).

    Distinct from other ``ValueError``s (e.g. a *newer-version*
    checkpoint) so a caller can tell an archive that was never a
    checkpoint from one it cannot read.
    """


def _npz_path(path) -> Path:
    """Append ``.npz`` when absent, as ``save_state`` does."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    return path


def _read_meta(path: Path) -> dict | None:
    """The decoded ``__meta__`` member, or ``None`` when absent.

    The member is a version 1–3 ``.npy`` file holding one ``uint8``
    vector: magic, version, header length, a Python-literal header,
    then the raw JSON bytes. Reading the whole member checks its CRC,
    so a corrupted archive raises instead of returning a wrong header.
    """
    with zipfile.ZipFile(path) as archive:
        if _META_MEMBER not in archive.namelist():
            return None
        raw = archive.read(_META_MEMBER)
    if raw[:6] != _NPY_MAGIC or raw[6] not in (1, 2, 3):
        raise ValueError(f"{path}: {_META_MEMBER} is not a .npy array")
    width = 2 if raw[6] == 1 else 4
    start = 8 + width
    end = start + int.from_bytes(raw[8:start], "little")
    header = ast.literal_eval(raw[start:end].decode("latin1"))
    if header.get("descr") != "|u1" or len(header.get("shape", ())) != 1:
        raise ValueError(f"{path}: {_META_MEMBER} is not a uint8 vector")
    return json.loads(raw[end:end + header["shape"][0]].decode("utf-8"))


def validated_meta(meta: dict | None, path) -> dict:
    """``meta`` if it is a checkpoint header this loader can read."""
    if meta is None or meta.get("format") != CHECKPOINT_FORMAT:
        raise NotACheckpointError(
            f"{path} is not a {CHECKPOINT_FORMAT} archive")
    version = meta.get("version")
    if not isinstance(version, int) or version > CHECKPOINT_VERSION:
        raise ValueError(
            f"checkpoint version {version!r} is newer than this loader "
            f"(supports <= {CHECKPOINT_VERSION})")
    return meta


def read_checkpoint_meta(path) -> dict:
    """The checkpoint's metadata header (no weight arrays are read)."""
    return validated_meta(_read_meta(_npz_path(path)), path)


def checkpoint_signature(path) -> dict:
    """Identity of one checkpoint *file*: content digest + header facts.

    This is what the serving tier means by "model version". The engine
    overwrites its periodic checkpoint path in place (atomically, via
    ``save_state``'s temp-file + rename), so the path alone names a
    *slot*, not a version; the content digest tells two writes to the
    same slot apart, and the header's epoch/accuracy make the version
    human-readable in stats streams and swap logs. Raises exactly like
    :func:`read_checkpoint_meta` on a torn or corrupted archive — the
    hot-swap watcher relies on that to reject bad files before any
    worker restarts onto them.
    """
    path = _npz_path(path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()[:12]
    meta = read_checkpoint_meta(path)
    extra = meta.get("extra", {})
    signature = {"path": str(path), "sha": digest,
                 "format_version": meta["version"],
                 "dtype": str(meta.get("dtype", "float64"))}
    for key in ("epochs", "accuracy", "tag"):
        if key in extra:
            signature[key] = extra[key]
    training = meta.get("training") or {}
    if "epoch" in training:
        signature["trained_epochs"] = training["epoch"]
    return signature
