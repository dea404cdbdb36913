"""Argument validation helpers.

All public entry points in the library validate their inputs eagerly and
raise ``ValueError``/``TypeError`` with messages naming the offending
argument, so failures surface at the call site instead of deep inside
numpy broadcasting.
"""

from __future__ import annotations

from numbers import Integral
from typing import Iterable, Sequence, Sized

import numpy as np


def check_positive(name: str, value: float, *, strict: bool = True) -> float:
    """Validate that ``value`` is positive (or non-negative if not strict)."""
    if strict and not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    if not strict and not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def check_count(name: str, value: int, *, strict: bool = True) -> int:
    """Validate a positive (or non-negative if not strict) integer, not a bool."""
    if (
        isinstance(value, bool)
        or not isinstance(value, Integral)
        or value < (1 if strict else 0)
    ):
        kind = "positive" if strict else "non-negative"
        raise ValueError(f"{name} must be a {kind} integer, got {value!r}")
    return value


def check_finite(name: str, value: float) -> float:
    """Validate that ``value`` is a finite number (not NaN or infinite)."""
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def check_fraction(name: str, value: float, *, inclusive: bool = True) -> float:
    """Validate that ``value`` lies in ``[0, 1]`` (or ``(0, 1)``)."""
    if inclusive:
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    elif not 0.0 < value < 1.0:
        raise ValueError(f"{name} must be in (0, 1), got {value!r}")
    return value


def check_in_choices(name: str, value: object, choices: Iterable[object]) -> object:
    """Validate that ``value`` is one of ``choices``."""
    choices = tuple(choices)
    if value not in choices:
        raise ValueError(f"{name} must be one of {choices}, got {value!r}")
    return value


def check_1d(name: str, array: object, *, dtype: object = float) -> np.ndarray:
    """Coerce ``array`` to a 1-D numpy array, raising on higher dimensions."""
    out = np.asarray(array, dtype=dtype)
    if out.ndim != 1:
        raise ValueError(f"{name} must be 1-dimensional, got shape {out.shape}")
    return out


def check_2d(name: str, array: object, *, dtype: object = float) -> np.ndarray:
    """Coerce ``array`` to a 2-D numpy array, raising otherwise."""
    out = np.asarray(array, dtype=dtype)
    if out.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {out.shape}")
    return out


def check_matching_length(*named: tuple[str, Sized]) -> None:
    """Validate that all named sized arguments have equal length."""
    if not named:
        return
    lengths = {name: len(value) for name, value in named}
    if len(set(lengths.values())) > 1:
        detail = ", ".join(f"{name}={length}" for name, length in lengths.items())
        raise ValueError(f"length mismatch: {detail}")


def require_columns(name: str, matrix: np.ndarray, n_columns: int) -> np.ndarray:
    """Validate that 2-D ``matrix`` has exactly ``n_columns`` columns."""
    if matrix.shape[1] != n_columns:
        raise ValueError(
            f"{name} must have {n_columns} columns, got {matrix.shape[1]}"
        )
    return matrix


def check_probability_vector(name: str, values: Sequence[float]) -> np.ndarray:
    """Validate a non-negative vector that sums to one (within tolerance)."""
    out = check_1d(name, values)
    if np.any(out < 0):
        raise ValueError(f"{name} must be non-negative, got {out!r}")
    total = float(out.sum())
    if not np.isclose(total, 1.0, atol=1e-9):
        raise ValueError(f"{name} must sum to 1, sums to {total}")
    return out
