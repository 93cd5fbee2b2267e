"""JSON helpers: deterministic float formatting and [re, im] pair encoding.

Every float is emitted with 17 significant digits so identical inputs
produce byte-identical output. ``dumps_canonical`` builds each value's text
from its children's, so it holds about two copies of the output at its peak.
Complex matrices travel as nested lists of [re, im] pairs, the wire format
of the CLI commands. Writing JSON needs no numpy; only the pair codecs import it.
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    import numpy as np


def format_float(x: float) -> str:
    """Render a float with 17 significant digits (round-trip exact)."""
    if math.isfinite(x):
        return format(float(x), ".17g")
    if math.isnan(x):
        return '"nan"'
    return '"inf"' if x > 0 else '"-inf"'


def dumps_canonical(obj: Any) -> str:
    """Serialize to JSON with fixed float formatting and key order as given."""
    return _text(obj)


def _text(obj: Any) -> str:
    # private, so a tracer that wraps the public names sees one call per output
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(map(_text, obj)) + "]"
    if isinstance(obj, dict):
        return "{" + ", ".join(json.dumps(str(key)) + ": " + _text(value) for key, value in obj.items()) + "}"
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(int(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if hasattr(obj, "tolist"):
        # numpy scalars and arrays, as the Python bool, int, float or nested list they hold
        return _text(obj.tolist())
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
