"""Serialization helpers: JSON matrix schema, CSV emission, finiteness scan.

Conventions (stable across releases, relied on by the determinism tests):

* complex scalars serialize as two-element arrays ``[re, im]``;
* matrices serialize as ``{"rows": r, "cols": c, "data": [[re, im], ...]}``
  with ``data`` in row-major order;
* CSV uses '.' as the decimal separator and '\\n' newlines regardless of
  locale, floats are rendered with ``repr`` (shortest round-trip form);
* NaN or infinity anywhere in a result is an error, never serialized.

The module loads no numpy: the matrix helpers import it when called, and
the finiteness scan and `format_float` recognise numpy arrays and
integers only once numpy is loaded, since no value can be one before.
"""

from __future__ import annotations

import json
import math
import sys
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from .errors import NumericalError, _require_int

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "complex_pair",
    "matrix_to_json",
    "matrix_from_json",
    "check_finite",
    "format_float",
    "to_json_bytes",
    "to_csv_bytes",
]


def complex_pair(z: complex) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def matrix_to_json(m: np.ndarray) -> dict[str, Any]:
    import numpy as np

    m = np.asarray(m)
    if m.ndim != 2:
        raise ValueError("matrix_to_json expects a 2-d array")
    rows, cols = m.shape
    data = [complex_pair(z) for z in m.reshape(-1)]
    return {"rows": int(rows), "cols": int(cols), "data": data}


def matrix_from_json(obj: dict[str, Any]) -> np.ndarray:
    import numpy as np

    rows, cols = (_require_int(obj[k], k, 0) for k in ("rows", "cols"))
    data = obj["data"]
    if len(data) != rows * cols:
        raise ValueError("matrix data length does not match rows*cols")
    flat = np.array([complex(re, im) for re, im in data], dtype=complex)
    return flat.reshape(rows, cols)


def _scan(value: Any, path: str) -> None:
    if isinstance(value, dict):
        for k, v in value.items():
            _scan(v, f"{path}.{k}")
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            _scan(v, f"{path}[{i}]")
    elif isinstance(value, (float, int)):
        if not math.isfinite(value):
            raise NumericalError(f"non-finite value at {path}: {value!r}")
    elif isinstance(value, complex):
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            raise NumericalError(f"non-finite value at {path}: {value!r}")
    else:
        np = sys.modules.get("numpy")
        if (np is not None and isinstance(value, np.ndarray) and value.size
                and not np.all(np.isfinite(value))):
            raise NumericalError(f"non-finite array entry at {path}")


def check_finite(result: Any) -> Any:
    """Raise NumericalError if any number in the nested result is NaN/inf."""
    _scan(result, "$")
    return result


def format_float(x: float) -> str:
    """Shortest decimal string that round-trips to the same double."""
    np = sys.modules.get("numpy")
    if isinstance(x, int) or np is not None and isinstance(x, np.integer):
        return str(int(x))
    return repr(float(x))


def to_json_bytes(result: Any) -> bytes:
    check_finite(result)
    text = json.dumps(result, indent=2, sort_keys=False)
    return text.encode("utf-8") + b"\n"


def _format_cell(x: Any) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, complex):
        # complex cells are split by callers; keep a readable fallback
        return f"{format_float(x.real)}+{format_float(x.imag)}i"
    return format_float(x)


def to_csv_bytes(header: Sequence[str], rows: Iterable[Sequence[Any]]) -> bytes:
    lines = [",".join(header)]
    for row in rows:
        check_finite(list(row))
        lines.append(",".join(_format_cell(c) for c in row))
    return ("\n".join(lines) + "\n").encode("utf-8")
