"""Shared state file format.

A state file is a JSON document with one of:

* ``{"dim": d, "entries": [[re, im], ...]}`` -- row-major density matrix;
* ``{"dim": d, "amplitudes": [[re, im], ...]}`` -- pure state;
* ``{"bloch": [nx, ny, nz]}`` -- qubit Bloch vector.

Parsers validate the physical invariants and raise the named state errors
on violation. Outcome streams are plain text: a ``# dim=<d> seed=<s>``
header line followed by one symbol per line.
"""

from __future__ import annotations

import json
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


def _complex_array(pairs, what: str) -> np.ndarray:
    arr = np.asarray(pairs, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"{what} must be a list of [re, im] pairs")
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
    if "bloch" in data:
        n = data["bloch"]
        if not isinstance(n, list) or len(n) != 3 or any(type(c) not in (int, float) for c in n):
            raise ValueError("bloch must be a list of three real numbers")
        return bloch_to_density(n)
    if "amplitudes" in data:
        dim = _dim(data)
        amps = _complex_array(data["amplitudes"], "amplitudes")
        if amps.shape[0] != dim:
            raise ValueError(f"expected {dim} amplitudes, got {amps.shape[0]}")
        return pure_state(amps)
    if "entries" in data:
        dim = _dim(data)
        flat = _complex_array(data["entries"], "entries")
        if flat.shape[0] != dim * dim:
            raise ValueError(f"expected {dim * dim} entries, got {flat.shape[0]}")
        return validate_density(flat.reshape(dim, dim))
    raise ValueError("state file needs one of: entries, amplitudes, bloch")


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


def save_stream(stream: OutcomeStream, path) -> None:
    Path(path).write_text(format_stream(stream))


def load_stream(path) -> OutcomeStream:
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith("#"):
        raise ValueError("stream file must start with a '# dim=... seed=...' header")
    header = dict(part.split("=") for part in lines[0].lstrip("# ").split())
    missing = sorted({"dim", "seed"} - header.keys())
    if missing:
        raise ValueError(f"stream header lacks {' and '.join(missing)}")
    dim = int(header["dim"])
    seed = int(header["seed"])
    if dim < 1:
        raise ValueError(f"stream header dim must be at least 1, got {dim}")
    symbols = np.array([int(s) for s in lines[1:] if s.strip()], dtype=np.int64)
    if np.any(symbols < 0) or np.any(symbols >= dim):
        raise ValueError(f"stream contains symbols outside 0..{dim - 1}")
    return OutcomeStream(symbols, dim, seed)
