"""Shared checkpoint plumbing: RNG bit-state capture and snapshot files.

Checkpointable inference (``MCMC.run(checkpoint_every=...)``, ``VI.run``)
snapshots *explicit* sampler state — positions, adaptation accumulators,
optimizer moments and the per-chain :class:`numpy.random.Generator` bit
state — at iteration boundaries, so a resumed run replays the exact
computation an uninterrupted run would have performed.  Model callables are
deliberately **not** stored (generated code is not picklable and the model
is cheap to rebuild from source); ``resume`` therefore takes the rebuilt
kernel/potential alongside the file.

Files are pickles of plain dicts of NumPy arrays and Python scalars,
written atomically (temp file + ``os.replace``) so an interruption during
the write never corrupts the previous snapshot.
"""

from __future__ import annotations

import os
import pickle
import re
import tempfile
from typing import Any, Dict, Optional

import numpy as np

#: bumped whenever a checkpoint payload layout changes.
CHECKPOINT_VERSION = 2


def rng_state(rng: np.random.Generator) -> Dict[str, Any]:
    """The full bit-generator state of ``rng`` (restorable, picklable)."""
    return rng.bit_generator.state


def restore_rng(state: Dict[str, Any]) -> np.random.Generator:
    """Rebuild a :class:`numpy.random.Generator` from :func:`rng_state`."""
    name = state["bit_generator"]
    bit_generator = getattr(np.random, name)()
    generator = np.random.Generator(bit_generator)
    generator.bit_generator.state = state
    return generator


def write_checkpoint(path: str, payload: Dict[str, Any]) -> str:
    """Atomically pickle ``payload`` to ``path``; returns ``path``."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".ckpt-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.remove(tmp_path)
        raise
    return path


#: distinctive history-copy suffix — ``.snap0007`` — so stripping it on
#: resume cannot mangle user paths that merely end in digits, and counters
#: past 9999 (which widen the field) still match.
_HISTORY_SUFFIX = re.compile(r"\.snap\d+$")


def history_checkpoint_path(path: str, count: int) -> str:
    """The numbered history-copy path for snapshot ``count`` of ``path``."""
    return f"{path}.snap{count:04d}"


def base_checkpoint_path(path: str) -> str:
    """Strip a ``.snapNNNN`` history suffix (see :class:`CheckpointWriter`).

    Resuming *from* a kept history snapshot must not write the new "latest"
    pointer over that snapshot — continued checkpointing targets the base
    path the original run used.
    """
    return _HISTORY_SUFFIX.sub("", path)


class CheckpointWriter:
    """Writes the latest snapshot to ``path``, plus numbered history copies.

    The snapshot counter is carried inside each payload
    (``snapshot_count``), so a resumed run continues the ``<path>.snapNNNN``
    numbering where the interrupted run left off instead of clobbering the
    pre-crash history — both MCMC and VI checkpointing share this protocol.
    """

    def __init__(self, path: str, keep: bool = False, count: int = 0):
        self.path = path
        self.keep = bool(keep)
        self.count = int(count)
        self.last_path: Optional[str] = None

    def write(self, payload: Dict[str, Any]) -> str:
        self.count += 1
        payload = dict(payload)
        payload["snapshot_count"] = self.count
        write_checkpoint(self.path, payload)
        self.last_path = self.path
        if self.keep:
            write_checkpoint(history_checkpoint_path(self.path, self.count), payload)
        return self.path


def read_checkpoint(path: str, expected_format: Optional[str] = None) -> Dict[str, Any]:
    """Load and validate a checkpoint written by :func:`write_checkpoint`.

    With ``expected_format=None`` any known checkpoint kind is accepted and
    the caller dispatches on ``payload["format"]`` (one deserialization, not
    one per candidate kind — snapshots of long runs carry every retained
    draw).
    """
    with open(path, "rb") as handle:
        payload = pickle.load(handle)
    if not isinstance(payload, dict) or "format" not in payload:
        raise ValueError(f"{path} is not a repro checkpoint file")
    if expected_format is not None and payload["format"] != expected_format:
        raise ValueError(
            f"{path} is not a {expected_format!r} checkpoint "
            f"(format={payload['format']!r})")
    version = payload.get("version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"checkpoint version {version} is not supported "
                         f"(expected {CHECKPOINT_VERSION})")
    return payload
