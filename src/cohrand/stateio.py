"""Shared state file format.

A state file is a JSON document with one of:

* ``{"dim": d, "entries": [[re, im], ...]}`` -- row-major density matrix;
* ``{"dim": d, "amplitudes": [[re, im], ...]}`` -- pure state;
* ``{"bloch": [nx, ny, nz]}`` -- qubit Bloch vector.

Parsers validate the physical invariants and raise the named state errors
on violation. Outcome streams are written, never read back, as plain
text: a ``# dim=<d> seed=<s>`` header line followed by one symbol per line.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Union

import numpy as np

from .states import (
    DensityMatrix,
    OutcomeStream,
    PureState,
    bloch_to_density,
    pure_state,
    validate_density,
)


LAYOUTS = ("entries", "amplitudes", "bloch")


def _number(value, what: str) -> float:
    """A JSON number as a float: the number check of every layout. Types are
    checked exactly, since JSON true and false load as bool, a subclass of
    int. An integer beyond float range reads as +-inf, as 1e400 does."""
    if type(value) not in (int, float):
        raise ValueError(f"{what} must hold only numbers, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _complex_array(pairs, what: str, count: int) -> np.ndarray:
    if not isinstance(pairs, list) or not all(isinstance(z, list) and len(z) == 2 for z in pairs):
        raise ValueError(f"{what} must be a list of [re, im] pairs")
    if len(pairs) != count:
        raise ValueError(f"expected {count} {what}, got {len(pairs)}")
    arr = np.array([[_number(x, what) for x in z] for z in pairs])
    # 1j * inf meets 0 * inf; the NaN it leaves fails as NotFinite.
    with np.errstate(invalid="ignore"):
        return arr[:, 0] + 1j * arr[:, 1]


def _dim(data: dict) -> int:
    if "dim" not in data:
        raise ValueError("entries and amplitudes need a dim")
    dim = data["dim"]
    # Exact type checks: JSON true and false load as bool, a subclass of int.
    if type(dim) is not int or dim < 1:
        raise ValueError(f"dim must be an integer of at least 1, got {dim!r}")
    return dim


def load_state(path) -> Union[DensityMatrix, PureState]:
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError(f"a state file holds a JSON object, got {type(data).__name__}")
    layouts = [key for key in LAYOUTS if key in data]
    if len(layouts) != 1:
        found = f"; it holds {' and '.join(layouts)}" if layouts else ""
        raise ValueError(f"state file needs one of: {', '.join(LAYOUTS)}{found}")
    if "bloch" in data:
        n = data["bloch"]
        if not isinstance(n, list) or len(n) != 3:
            raise ValueError("bloch must be a list of three real numbers")
        return bloch_to_density([_number(c, "bloch") for c in n])
    dim = _dim(data)
    if "amplitudes" in data:
        return pure_state(_complex_array(data["amplitudes"], "amplitudes", dim))
    return validate_density(_complex_array(data["entries"], "entries", dim * dim).reshape(dim, dim))


def _pairs(values: np.ndarray):
    return [[float(v.real), float(v.imag)] for v in values]


def pure_to_dict(psi: PureState) -> dict:
    return {"dim": psi.dim, "amplitudes": _pairs(psi.amps)}


def save_state(state: Union[DensityMatrix, PureState], path) -> None:
    if isinstance(state, DensityMatrix):
        data = {"dim": state.dim, "entries": _pairs(state.mat.ravel())}
    else:
        data = pure_to_dict(state)
    Path(path).write_text(json.dumps(data))


def format_stream(stream: OutcomeStream) -> str:
    """The stream file's text: the header line, then one symbol per line."""
    lines = [f"# dim={stream.source_dim} seed={stream.seed}"]
    lines.extend(str(int(s)) for s in stream.symbols)
    return "\n".join(lines) + "\n"
