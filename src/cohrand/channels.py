"""Incoherent Kraus sets (ICPTP maps) and executable property harnesses.

A Kraus set is incoherent when it is trace preserving and every column of
every operator has at most one nonzero entry, which guarantees that
incoherent states map to incoherent states. The property harnesses turn the
monotonicity and convexity requirements of a coherence measure into
checkable reports over seeded random inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, NonExactMeasure, NotAPartition
from .measures import MeasureId, c_l1, c_rel_ent, r_qubit_analytic
from .states import DensityMatrix, validate_density

COLUMN_ZERO_THRESHOLD = 1e-12
TRACE_PRESERVATION_TOL = 1e-10
OUTCOME_DROP_THRESHOLD = 1e-12


class PropertyId(str, Enum):
    C1 = "C1"
    C1_STRICT = "C1'"
    C2A = "C2a"
    C2B = "C2b"
    C3 = "C3"


@dataclass(frozen=True)
class KrausSet:
    operators: list  # list of d x d complex ndarrays

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]


@dataclass(frozen=True)
class SelectiveOutcome:
    p: float
    rho: DensityMatrix


@dataclass(frozen=True)
class PropertyReport:
    property_id: PropertyId
    passed: bool
    worst_slack: float
    witness: Optional[object] = None


@dataclass(frozen=True)
class MonotonicityCheck:
    c2a: PropertyReport
    c2b: PropertyReport

    @property
    def passed(self) -> bool:
        return self.c2a.passed and self.c2b.passed


def exact_measure_value(measure: MeasureId, rho: DensityMatrix) -> float:
    """Evaluate a measure where an exact value is available.

    The optimizer-based roof is only an upper estimate for d > 2 and would
    fabricate property violations, so it is rejected there; on qubits the
    roof has an exact analytic form.
    """
    if measure == MeasureId.REL_ENT:
        return c_rel_ent(rho)
    if measure == MeasureId.L1:
        return c_l1(rho)
    if measure == MeasureId.QUBIT_ANALYTIC:
        return r_qubit_analytic(rho)
    if measure == MeasureId.ROOF_RANDOMNESS:
        if rho.dim != 2:
            raise NonExactMeasure(
                "optimizer-based roof values are upper estimates for d > 2; "
                "property checks need an exact measure"
            )
        return r_qubit_analytic(rho)
    raise ValueError(f"unknown measure {measure}")


def _check_dims(ks: KrausSet) -> int:
    d = ks.operators[0].shape[0]
    for op in ks.operators:
        if op.shape != (d, d):
            raise DimensionMismatch(f"operator shape {op.shape} != ({d}, {d})")
    return d


def is_incoherent_kraus_set(ks: KrausSet) -> bool:
    """Trace preservation plus at-most-one-nonzero-per-column structure."""
    d = _check_dims(ks)
    acc = np.zeros((d, d), dtype=complex)
    for op in ks.operators:
        acc += op.conj().T @ op
        nonzero_per_col = np.sum(np.abs(op) > COLUMN_ZERO_THRESHOLD, axis=0)
        if np.any(nonzero_per_col > 1):
            return False
    return bool(np.max(np.abs(acc - np.eye(d))) <= TRACE_PRESERVATION_TOL)


def random_incoherent_kraus(d: int, n_ops: int, seed: int) -> KrausSet:
    """Random incoherent channel: operator n places column j's weight on a
    random target row, with per-operator rows chosen by a random
    permutation so the completeness sum stays exactly diagonal; columns are
    then rescaled to make the set trace preserving."""
    if n_ops < 1:
        raise ValueError("n_ops must be >= 1")
    rng = np.random.default_rng(seed)
    weights = rng.standard_normal((n_ops, d)) + 1j * rng.standard_normal((n_ops, d))
    scale = np.sqrt(np.sum(np.abs(weights) ** 2, axis=0))
    ops = []
    for n in range(n_ops):
        perm = rng.permutation(d)
        op = np.zeros((d, d), dtype=complex)
        for j in range(d):
            op[perm[j], j] = weights[n, j] / scale[j]
        ops.append(op)
    return KrausSet(ops)


def dephasing_kraus(d: int) -> KrausSet:
    return KrausSet([np.diag(np.eye(d, dtype=complex)[i]) for i in range(d)])


def identity_kraus(d: int) -> KrausSet:
    return KrausSet([np.eye(d, dtype=complex)])


def apply_channel(rho: DensityMatrix, ks: KrausSet) -> DensityMatrix:
    d = _check_dims(ks)
    if rho.dim != d:
        raise DimensionMismatch(f"state dim {rho.dim} != channel dim {d}")
    out = np.zeros((d, d), dtype=complex)
    for op in ks.operators:
        out += op @ rho.mat @ op.conj().T
    return validate_density(out, tol=1e-9)


def apply_selective(rho: DensityMatrix, ks: KrausSet) -> list:
    """Post-selected outcomes (p_n, rho_n); outcomes with negligible
    probability are omitted."""
    d = _check_dims(ks)
    if rho.dim != d:
        raise DimensionMismatch(f"state dim {rho.dim} != channel dim {d}")
    outcomes = []
    for op in ks.operators:
        unnorm = op @ rho.mat @ op.conj().T
        p = float(np.real(np.trace(unnorm)))
        if p <= OUTCOME_DROP_THRESHOLD:
            continue
        outcomes.append(SelectiveOutcome(p, validate_density(unnorm / p, tol=1e-9)))
    return outcomes


def projection_partition_kraus(partition, d: Optional[int] = None) -> KrausSet:
    """Projectors onto disjoint basis-index blocks covering 0..d-1."""
    sets = [sorted(int(i) for i in block) for block in partition]
    flat = [i for block in sets for i in block]
    if d is None:
        d = max(flat) + 1 if flat else 0
    if sorted(flat) != list(range(d)):
        raise NotAPartition(f"blocks {sets} do not partition 0..{d - 1}")
    ops = []
    for block in sets:
        op = np.zeros((d, d), dtype=complex)
        for i in block:
            op[i, i] = 1.0
        ops.append(op)
    return KrausSet(ops)


def check_monotonicity(
    measure: MeasureId, rho: DensityMatrix, ks: KrausSet, tol: float = 1e-9
) -> MonotonicityCheck:
    """Slack of C2a (non-selective) and C2b (selective average) for an
    incoherent channel. Positive slack means a violation."""
    if not is_incoherent_kraus_set(ks):
        raise ValueError("Kraus set is not incoherent; monotonicity is not guaranteed")
    base = exact_measure_value(measure, rho)
    slack_a = exact_measure_value(measure, apply_channel(rho, ks)) - base
    slack_b = (
        sum(o.p * exact_measure_value(measure, o.rho) for o in apply_selective(rho, ks)) - base
    )
    witness = None if max(slack_a, slack_b) <= tol else (rho, ks)
    return MonotonicityCheck(
        PropertyReport(PropertyId.C2A, slack_a <= tol, slack_a, witness),
        PropertyReport(PropertyId.C2B, slack_b <= tol, slack_b, witness),
    )


def check_convexity(measure: MeasureId, ensemble, tol: Optional[float] = None) -> PropertyReport:
    """Slack of C3: C(sum q_k rho_k) - sum q_k C(rho_k)."""
    qs = np.array([q for q, _ in ensemble], dtype=float)
    if np.any(qs < 0) or abs(qs.sum() - 1.0) > 1e-10:
        raise ValueError("ensemble weights must be a probability distribution")
    if tol is None:
        tol = 1e-6 if measure == MeasureId.ROOF_RANDOMNESS else 1e-9
    dim = ensemble[0][1].dim
    mixed = validate_density(
        sum(q * rho.mat for q, rho in ensemble) + np.zeros((dim, dim)), tol=1e-9
    )
    slack = exact_measure_value(measure, mixed) - sum(
        q * exact_measure_value(measure, rho) for q, rho in ensemble
    )
    witness = None if slack <= tol else ensemble
    return PropertyReport(PropertyId.C3, slack <= tol, slack, witness)
