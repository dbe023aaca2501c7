"""Deterministic fixed-precision text emission.

Reports and trajectory exports render every float with 17 significant
digits, which round-trips float64 exactly and keeps emitted files
byte-stable across reruns with the same inputs.
"""

from __future__ import annotations

import json
import math

import numpy as np

__all__ = ["fmt", "dumps"]


def fmt(x: float) -> str:
    """Render a finite float with 17 significant digits."""
    v = float(x)
    if not math.isfinite(v):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    return format(v, ".17g")


def _render(value, level: int) -> str:
    """The shapes the package writes: nested objects of scalars and one-line lists."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return fmt(value)
    if isinstance(value, dict):
        pad = "  " * (level + 1)
        body = ",\n".join(
            f"{pad}{json.dumps(str(k))}: {_render(v, level + 1)}"
            for k, v in value.items()
        )
        return "{\n" + body + "\n" + "  " * level + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_render(v, level + 1) for v in value) + "]"
    raise TypeError(f"cannot serialize object of type {type(value).__name__}")


def dumps(doc) -> str:
    """JSON text with fixed float precision and stable key order."""
    return _render(doc, 0) + "\n"
