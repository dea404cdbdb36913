"""Crash-safe JSON checkpoint store for long-running computations.

A multi-hour experiment grid or updating sweep should not restart from
zero because a machine was preempted at cell 73 of 100.
:class:`JsonCheckpoint` is the minimal store behind checkpoint/resume:
a JSON document of ``{key: payload}`` cells, rewritten atomically
(write-temp-then-rename) after every completed cell so a kill at any
instant leaves either the previous or the new consistent document —
never a torn one.

Payloads must be JSON-able; :func:`encode_object` / :func:`decode_object`
wrap arbitrary picklable results (experiment dataclasses) as base64
strings for callers whose cells are not naturally JSON.  Python's JSON
round-trips floats exactly (shortest-repr), so resuming from a
checkpoint is bit-identical to an uninterrupted run.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Union

#: Format marker; bump on incompatible layout changes.
_VERSION = 1


def encode_object(value: Any) -> dict:
    """Wrap an arbitrary picklable object as a JSON-able cell payload."""
    return {
        "__pickle__": base64.b64encode(
            pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        ).decode("ascii")
    }


def decode_object(payload: dict) -> Any:
    """Invert :func:`encode_object`."""
    return pickle.loads(base64.b64decode(payload["__pickle__"]))


class JsonCheckpoint:
    """A ``{key: payload}`` store persisted after every update.

    Args:
        path: The checkpoint file.  A missing file starts empty; an
            unreadable or torn file raises rather than silently
            discarding completed work.
        kind: A label identifying the producing computation.  Loading a
            checkpoint written by a different ``kind`` raises, so a grid
            checkpoint cannot masquerade as an updating checkpoint.

    Example:
        >>> import tempfile, os
        >>> path = os.path.join(tempfile.mkdtemp(), "grid.json")
        >>> store = JsonCheckpoint(path, kind="demo")
        >>> store.set("cell-1", {"metric": 0.25})
        >>> JsonCheckpoint(path, kind="demo").get("cell-1")
        {'metric': 0.25}
    """

    def __init__(self, path: Union[str, Path], *, kind: str):
        self.path = Path(path)
        self.kind = str(kind)
        self._cells: dict[str, Any] = {}
        if self.path.exists():
            try:
                with self.path.open() as handle:
                    document = json.load(handle)
            except (json.JSONDecodeError, UnicodeDecodeError) as error:
                raise ValueError(
                    f"corrupted {self.kind!r} checkpoint at {self.path}: "
                    f"{error}; delete the file to restart from scratch"
                ) from error
            if not isinstance(document, dict):
                raise ValueError(
                    f"corrupted {self.kind!r} checkpoint at {self.path}: "
                    f"expected a JSON object, got {type(document).__name__}"
                )
            if document.get("kind") != self.kind:
                raise ValueError(
                    f"{self.path}: checkpoint was written by "
                    f"{document.get('kind')!r}, not {self.kind!r}"
                )
            self._cells = dict(document.get("cells", {}))

    def __len__(self) -> int:
        return len(self._cells)

    def __contains__(self, key: str) -> bool:
        return str(key) in self._cells

    def keys(self) -> list[str]:
        """Completed cell keys, in insertion order."""
        return list(self._cells)

    def get(self, key: str, default: Any = None) -> Any:
        """The payload stored for ``key`` (``default`` when absent)."""
        return self._cells.get(str(key), default)

    def set(self, key: str, payload: Any) -> None:
        """Record one completed cell and persist the whole document."""
        self._cells[str(key)] = payload
        self._write()

    def _write(self) -> None:
        document = {
            "version": _VERSION,
            "kind": self.kind,
            "cells": self._cells,
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        handle = tempfile.NamedTemporaryFile(
            "w",
            dir=self.path.parent,
            prefix=self.path.name + ".",
            suffix=".tmp",
            delete=False,
        )
        try:
            with handle:
                json.dump(document, handle)
            os.replace(handle.name, self.path)
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise
