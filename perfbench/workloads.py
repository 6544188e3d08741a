"""Workload panels, their input files and the check of every CLI output.

Each workload is a fixed round of CLI calls (argv lists for
``cohrand.cli.main``) plus one warm-up call. A run repeats whole rounds,
so the share of failed calls is the same in every run.

The roof panels do not depend on the seed: roof cost varies 100-fold
between random qubit states (0.06-6.5 s), so a panel redrawn per seed
would measure the seed. The seed sets the ``--seed`` of the property
suite and of the pipeline, whose cost does not depend on it.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference as ref

WORKLOADS = ("qubit_roof", "qudit_roof", "property_suite", "extract_pipeline")

# Roof output band around the exact value, in bits.
ROOF_BELOW = 1e-9
ROOF_ABOVE = 1e-6
# |z| bound on the monobit statistics: a correct program exceeds it with
# probability 2e-9 per value.
MONOBIT_Z = 6.0
PIPELINE_GROUPS = 200
PIPELINE_GROUP_N = 5000
PIPELINE_MARGIN = 0.02
PIPELINE_SOURCES = (0.6, 0.75, 0.85)  # |alpha|^2 of the qubit sources
PROPERTIES = ["C1", "C1'", "C2a", "C2b", "C3"]


@dataclass
class Op:
    argv: list
    kind: str
    expect: dict = field(default_factory=dict)


@dataclass
class Verdict:
    failed: bool = False  # the call raised, or a roof missed its band / did not converge
    problems: list = field(default_factory=list)  # output checks that did not hold
    gap_bits: float | None = None  # roof value - exact


def _pairs(values) -> list:
    return [[float(v.real), float(v.imag)] for v in np.asarray(values, dtype=complex).ravel()]


def _write_density(path: Path, rho: np.ndarray) -> str:
    path.write_text(json.dumps({"dim": rho.shape[0], "entries": _pairs(rho)}))
    return str(path)


def _write_pure(path: Path, amps: np.ndarray) -> str:
    path.write_text(json.dumps({"dim": len(amps), "amplitudes": _pairs(amps)}))
    return str(path)


def _roof_op(path: str, rho: np.ndarray, exact: float, *extra) -> Op:
    return Op(
        ["roof", path, *extra],
        "roof",
        {"rho": rho, "exact": exact, "lower": ref.rel_ent_lower_bound(rho)},
    )


# --------------------------------------------------------------------------
# Panels
# --------------------------------------------------------------------------


def _qubit_roof(workdir: Path, seed: int):
    """A fixed 26-state slice of acceptance criterion 1's panel: states
    i = 2k, 2k + 1 with k % 8 == 3 (13 pure, 13 rank 2), each with roof
    seed i and the default 16 restarts. This slice's mean roof cost
    (0.31 s) matches the whole panel's (0.315 s over 200 states)."""
    ops = []
    for i in range(200):
        if (i // 2) % 8 != 3:
            continue
        rho = ref.random_density(2, 1 + i % 2, 1000 + i)
        path = _write_density(workdir / f"qubit_{i}.json", rho)
        ops.append(_roof_op(path, rho, ref.qubit_roof(rho), "--seed", str(i)))
    return ops, ops[1]


# (p, sigma seed, sigma rank): p sigma (+) (1 - p)|2><2|
QUDIT_BLOCKS = ((0.7, 20, 2), (0.5, 21, 2), (0.3, 22, 2), (0.6, 23, 1))
# (a seed, b seed): a (x) b of rank-2 qubits. 10 x 11 exhausts
# max_iterations=2000 with --restarts 4 and lands 5e-6 bits above the exact
# value: the known fault this workload counts as failed.
QUDIT_PRODUCTS = ((12, 13), (14, 15), (10, 11))
QUDIT_ROOF_ARGS = ("--restarts", "4", "--seed", "0")


def _qudit_roof(workdir: Path, seed: int):
    ops = []
    for p, s, rank in QUDIT_BLOCKS:
        sigma = ref.random_density(2, rank, s)
        rho = ref.block_state(p, sigma)
        path = _write_density(workdir / f"block_{s}.json", rho)
        ops.append(_roof_op(path, rho, ref.block_value(p, sigma), *QUDIT_ROOF_ARGS))
    for sa, sb in QUDIT_PRODUCTS:
        a = ref.random_density(2, 2, sa)
        b = ref.random_density(2, 2, sb)
        rho = np.kron(a, b)
        path = _write_density(workdir / f"product_{sa}_{sb}.json", rho)
        ops.append(_roof_op(path, rho, ref.product_value(a, b), *QUDIT_ROOF_ARGS))
    return ops, ops[0]


def _property_suite(workdir: Path, seed: int):
    op = Op(["verify", "--samples", "1000", "--seed", str(seed)], "verify")
    warmup = Op(["verify", "--samples", "20", "--seed", str(seed)], "verify")
    return [op], warmup


def _pipeline_op(path: str, amps: np.ndarray, groups: int, group_n: int, seed: int) -> Op:
    q = np.abs(amps) ** 2
    p0 = float(q[0] / q.sum())
    n_total = groups * group_n
    exact_a = n_total * (ref.binary_entropy(p0) - PIPELINE_MARGIN)
    # Path A is compared exactly, so its length must not sit within
    # rounding of an integer boundary.
    if abs(exact_a - round(exact_a)) <= 1e-6:
        raise ValueError(f"path A length {exact_a} is within rounding of an integer")
    return Op(
        ["pipeline", path, "--groups", str(groups), "--group-n", str(group_n), "--seed", str(seed)],
        "pipeline",
        {
            "p0": p0,
            "n_total": n_total,
            "group_n": group_n,
            "path_a_bits": ref.pipeline_path_a_bits(n_total, p0, PIPELINE_MARGIN),
        },
    )


def _extract_pipeline(workdir: Path, seed: int):
    ops = []
    for k, p0 in enumerate(PIPELINE_SOURCES):
        amps = np.array([math.sqrt(p0), math.sqrt(1.0 - p0)], dtype=complex)
        path = _write_pure(workdir / f"source_{k}.json", amps)
        ops.append(_pipeline_op(path, amps, PIPELINE_GROUPS, PIPELINE_GROUP_N, seed * 1000 + k))
        if k == 0:
            # 10^5 copies of the highest-entropy source: path B's spread is
            # then far inside the +-0.02 band and the 5% agreement.
            warmup = _pipeline_op(path, amps, 20, PIPELINE_GROUP_N, seed * 1000 + 999)
    return ops, warmup


PANELS = {
    "qubit_roof": _qubit_roof,
    "qudit_roof": _qudit_roof,
    "property_suite": _property_suite,
    "extract_pipeline": _extract_pipeline,
}


def build(workload: str, workdir: Path, seed: int):
    """Write the workload's input files into workdir; return (round, warm-up)."""
    workdir.mkdir(parents=True, exist_ok=True)
    return PANELS[workload](workdir, seed)


# --------------------------------------------------------------------------
# Checks
# --------------------------------------------------------------------------


def check(op: Op, code, stdout: str) -> Verdict:
    """Check one CLI call. ``code`` is main()'s return value, or the
    exception it raised."""
    verdict = Verdict()
    if isinstance(code, BaseException):
        verdict.failed = True
        verdict.problems.append(f"raised {type(code).__name__}: {code}")
        return verdict
    try:
        out = ref.strict_json_loads(stdout)
    except ValueError as exc:
        verdict.problems.append(f"stdout is not strict JSON: {exc}")
        return verdict
    try:
        CHECKS[op.kind](op, code, out, verdict)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        verdict.problems.append(f"malformed output: {type(exc).__name__}: {exc}")
    return verdict


def _amps_from_pairs(pairs) -> np.ndarray:
    arr = np.asarray(pairs, dtype=float)
    return arr[:, 0] + 1j * arr[:, 1]


def _check_roof(op: Op, code, out, verdict: Verdict) -> None:
    e = op.expect
    if code != 0:
        verdict.problems.append(f"exit code {code}")
    value = float(out["value"])
    ensemble = [
        (float(el["p"]), _amps_from_pairs(el["state"]["amplitudes"])) for el in out["decomposition"]
    ]
    mix_dev = float(np.max(np.abs(ref.ensemble_mixture(ensemble) - e["rho"])))
    if mix_dev > 1e-8:
        verdict.problems.append(f"decomposition mixes to rho only within {mix_dev:.2e}")
    ent_dev = abs(ref.ensemble_entropy(ensemble) - value)
    if ent_dev > 1e-9:
        verdict.problems.append(f"decomposition entropy differs from value by {ent_dev:.2e}")
    if value < e["lower"] - ROOF_BELOW:
        verdict.problems.append(f"value {value!r} below the relative-entropy bound {e['lower']!r}")
    verdict.gap_bits = value - e["exact"]
    if not (-ROOF_BELOW <= verdict.gap_bits <= ROOF_ABOVE) or out["converged"] is not True:
        verdict.failed = True


def _check_verify(op: Op, code, out, verdict: Verdict) -> None:
    if code != 0:
        verdict.problems.append(f"exit code {code}")
    ids = [r["property"] for r in out]
    if ids != PROPERTIES:
        verdict.problems.append(f"properties {ids} != {PROPERTIES}")
    for r in out:
        if r["passed"] is not True:
            verdict.problems.append(f"{r['property']} failed, slack {r['worst_slack']}")


def _check_pipeline(op: Op, code, out, verdict: Verdict) -> None:
    e = op.expect
    n = e["n_total"]
    if code != 0:
        verdict.problems.append(f"exit code {code}")
    a, b = out["path_a_bits"], out["path_b_bits"]
    if a != e["path_a_bits"]:
        verdict.problems.append(f"path A {a} bits != floor(N M (H - 0.02)) = {e['path_a_bits']}")
    # Computed here, not when the op is built: building is part of the
    # timed set-up.
    target_b = n * _finite_n_yield(e["group_n"], e["p0"])
    if abs(b - target_b) > 0.02 * n:
        verdict.problems.append(f"path B {b} bits outside +-0.02 N M of {target_b:.1f}")
    rel = abs(a - b) / max(a, b)
    if abs(out["relative_difference"] - rel) > 1e-12 or rel > 0.05 or out["lengths_agree"] is not True:
        verdict.problems.append(f"relative difference {out['relative_difference']} (recomputed {rel})")
    for key in ("path_a_monobit_z", "path_b_monobit_z"):
        if not abs(out[key]) < MONOBIT_Z:
            verdict.problems.append(f"{key} = {out[key]}")
    if abs(out["distill_yield"] - b / n) > 1e-12:
        verdict.problems.append(f"distill_yield {out['distill_yield']} != {b} / {n}")


@functools.lru_cache(maxsize=None)
def _finite_n_yield(group_n: int, p0: float) -> float:
    return ref.finite_n_yield(group_n, p0)


CHECKS = {"roof": _check_roof, "verify": _check_verify, "pipeline": _check_pipeline}
