"""JSON helpers: deterministic float formatting and [re, im] pair encoding.

Every float is emitted with 17 significant digits so identical inputs
produce byte-identical output. Complex matrices travel as nested lists of
[re, im] pairs; this is the wire format shared by the CLI commands.
Writing JSON needs no numpy, so only the pair codecs import it.
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    import numpy as np


def format_float(x: float) -> str:
    """Render a float with 17 significant digits (round-trip exact)."""
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(float(x), ".17g")


def dumps_canonical(obj: Any) -> str:
    """Serialize to JSON with fixed float formatting and key order as given."""
    pieces: list[str] = []
    _write(obj, pieces)
    return "".join(pieces)


def _write(obj: Any, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(int(obj)))
    elif isinstance(obj, float):
        out.append(format_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for idx, (key, value) in enumerate(obj.items()):
            if idx:
                out.append(", ")
            out.append(json.dumps(str(key)))
            out.append(": ")
            _write(value, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for idx, value in enumerate(obj):
            if idx:
                out.append(", ")
            _write(value, out)
        out.append("]")
    elif hasattr(obj, "tolist"):
        # numpy scalars and arrays, as the Python bool, int, float or nested list they hold
        _write(obj.tolist(), out)
    else:
        raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def complex_matrix_to_pairs(mat: np.ndarray) -> list:
    """Encode a complex array as nested lists of [re, im] pairs."""
    import numpy as np

    arr = np.asarray(mat, dtype=complex)
    stacked = np.stack([arr.real, arr.imag], axis=-1)
    return stacked.tolist()


def pairs_to_complex_matrix(obj: Any) -> np.ndarray:
    """Decode nested [re, im] pairs back into a complex array."""
    import numpy as np

    arr = np.asarray(obj, dtype=float)
    if arr.ndim < 1 or arr.shape[-1] != 2:
        raise ValueError("expected nested lists of [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]
