"""Incoherent Kraus sets (ICPTP maps) and executable property harnesses.

A Kraus set is incoherent when it is trace preserving and every column of
every operator has at most one nonzero entry, which guarantees that
incoherent states map to incoherent states. The property harnesses turn the
monotonicity and convexity requirements of a coherence measure into
checkable reports over seeded random inputs.

Channel application, the measures and the harnesses have one
implementation each, which takes a stack: N states as an (N, d, d) array
and N Kraus sets of k operators as an (N, k, d, d) array. The single-state
functions call it on a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, NonExactMeasure, NotAPartition
from .measures import MeasureId, c_l1_values, c_rel_ent_values, r_qubit_analytic_values
from .states import DensityMatrix, validate_densities

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
    operators: Sequence  # d x d complex ndarrays: a list, or a (k, d, d) array

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


def exact_measure_values(measure: MeasureId, mats: np.ndarray) -> np.ndarray:
    """Evaluate a measure on each matrix of an (N, d, d) stack, where an
    exact value is available.

    The optimizer-based roof is only an upper estimate for d > 2 and would
    fabricate property violations, so it is rejected there; on qubits the
    roof has an exact analytic form.
    """
    if measure == MeasureId.REL_ENT:
        return c_rel_ent_values(mats)
    if measure == MeasureId.L1:
        return c_l1_values(mats)
    if measure == MeasureId.QUBIT_ANALYTIC:
        return r_qubit_analytic_values(mats)
    if measure == MeasureId.ROOF_RANDOMNESS:
        if mats.shape[-1] != 2:
            raise NonExactMeasure(
                "optimizer-based roof values are upper estimates for d > 2; "
                "property checks need an exact measure"
            )
        return r_qubit_analytic_values(mats)
    raise ValueError(f"unknown measure {measure}")


def exact_measure_value(measure: MeasureId, rho: DensityMatrix) -> float:
    """:func:`exact_measure_values` of one state."""
    return float(exact_measure_values(measure, rho.mat[None])[0])


def _kraus_stack(ks: KrausSet) -> np.ndarray:
    """The operators as a (1, k, d, d) stack."""
    d = ks.operators[0].shape[0]
    for op in ks.operators:
        if op.shape != (d, d):
            raise DimensionMismatch(f"operator shape {op.shape} != ({d}, {d})")
    return np.asarray(ks.operators, dtype=complex)[None]


def _state_and_kraus(rho: DensityMatrix, ks: KrausSet):
    kraus = _kraus_stack(ks)
    d = kraus.shape[-1]
    if rho.dim != d:
        raise DimensionMismatch(f"state dim {rho.dim} != channel dim {d}")
    return rho.mat[None], kraus


def _incoherent_mask(kraus: np.ndarray) -> np.ndarray:
    """For each Kraus set of an (N, k, d, d) stack: trace preservation plus
    at-most-one-nonzero-per-column structure."""
    nonzero_per_col = np.sum(np.abs(kraus) > COLUMN_ZERO_THRESHOLD, axis=-2)
    structured = (nonzero_per_col <= 1).all(axis=(1, 2))
    acc = np.sum(kraus.conj().swapaxes(-1, -2) @ kraus, axis=1)
    tp_dev = np.abs(acc - np.eye(kraus.shape[-1])).max(axis=(1, 2))
    return structured & (tp_dev <= TRACE_PRESERVATION_TOL)


def is_incoherent_kraus_set(ks: KrausSet) -> bool:
    """Trace preservation plus at-most-one-nonzero-per-column structure."""
    return bool(_incoherent_mask(_kraus_stack(ks))[0])


def random_incoherent_kraus(d: int, n_ops: int, seed: int) -> KrausSet:
    """Random incoherent channel: operator n places column j's weight on a
    random target row, with per-operator rows chosen by a random
    permutation so the completeness sum stays exactly diagonal; columns are
    then rescaled to make the set trace preserving. The operators come as
    one (n_ops, d, d) array."""
    if n_ops < 1:
        raise ValueError("n_ops must be >= 1")
    rng = np.random.default_rng(seed)
    weights = rng.standard_normal((n_ops, d)) + 1j * rng.standard_normal((n_ops, d))
    scale = np.sqrt(np.sum(np.abs(weights) ** 2, axis=0))
    # One permutation per operator, drawn as n_ops successive permutation(d) calls would.
    rows = rng.permuted(np.broadcast_to(np.arange(d), (n_ops, d)), axis=1)
    ops = np.zeros((n_ops, d, d), dtype=complex)
    ops[np.arange(n_ops)[:, None], rows, np.arange(d)] = weights / scale
    return KrausSet(ops)


def dephasing_kraus(d: int) -> KrausSet:
    return KrausSet([np.diag(np.eye(d, dtype=complex)[i]) for i in range(d)])


def identity_kraus(d: int) -> KrausSet:
    return KrausSet([np.eye(d, dtype=complex)])


def _channel_terms(mats: np.ndarray, kraus: np.ndarray) -> np.ndarray:
    """K_n rho K_n^dag for every state and operator: (N, k, d, d)."""
    return kraus @ mats[:, None] @ kraus.conj().swapaxes(-1, -2)


def _channel_outputs(terms: np.ndarray) -> np.ndarray:
    """The validated channel output sum_n K_n rho K_n^dag of each state."""
    return validate_densities(terms.sum(axis=1), tol=1e-9)


def _selective_outcomes(terms: np.ndarray):
    """(p, keep, states): the (N, k) outcome probabilities, the mask of
    outcomes above OUTCOME_DROP_THRESHOLD, and the kept post-selected
    states, validated, in row-major (state, operator) order."""
    p = np.trace(terms, axis1=-2, axis2=-1).real
    keep = p > OUTCOME_DROP_THRESHOLD
    return p, keep, validate_densities(terms[keep] / p[keep][:, None, None], tol=1e-9)


def apply_channel(rho: DensityMatrix, ks: KrausSet) -> DensityMatrix:
    return DensityMatrix(_channel_outputs(_channel_terms(*_state_and_kraus(rho, ks)))[0])


def apply_selective(rho: DensityMatrix, ks: KrausSet) -> list:
    """Post-selected outcomes (p_n, rho_n); outcomes with negligible
    probability are omitted."""
    p, keep, states = _selective_outcomes(_channel_terms(*_state_and_kraus(rho, ks)))
    return [SelectiveOutcome(float(pn), DensityMatrix(s)) for pn, s in zip(p[keep], states)]


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


def monotonicity_slacks(measures, mats: np.ndarray, kraus: np.ndarray) -> dict:
    """C2a (non-selective) and C2b (selective average) slacks of each
    measure over an (N, d, d) state stack and an (N, k, d, d) stack of
    incoherent Kraus sets: {measure: (slack_a, slack_b)}, arrays of N.
    Positive slack means a violation."""
    if not _incoherent_mask(kraus).all():
        raise ValueError("Kraus set is not incoherent; monotonicity is not guaranteed")
    terms = _channel_terms(mats, kraus)
    outputs = _channel_outputs(terms)
    p, keep, outcomes = _selective_outcomes(terms)
    slacks = {}
    for measure in dict.fromkeys(measures):
        base = exact_measure_values(measure, mats)
        weighted = np.zeros(p.shape)
        weighted[keep] = p[keep] * exact_measure_values(measure, outcomes)
        slack_a = exact_measure_values(measure, outputs) - base
        slacks[measure] = (slack_a, weighted.sum(axis=1) - base)
    return slacks


def check_monotonicity(
    measure: MeasureId, rho: DensityMatrix, ks: KrausSet, tol: float = 1e-9
) -> MonotonicityCheck:
    """Slack of C2a (non-selective) and C2b (selective average) for an
    incoherent channel. Positive slack means a violation."""
    ((slack_a, slack_b),) = monotonicity_slacks((measure,), *_state_and_kraus(rho, ks)).values()
    slack_a, slack_b = float(slack_a[0]), float(slack_b[0])
    witness = None if max(slack_a, slack_b) <= tol else (rho, ks)
    return MonotonicityCheck(
        PropertyReport(PropertyId.C2A, slack_a <= tol, slack_a, witness),
        PropertyReport(PropertyId.C2B, slack_b <= tol, slack_b, witness),
    )


def convexity_slacks(measures, weights, mats: np.ndarray) -> dict:
    """C3 slacks C(sum_k q_k rho_k) - sum_k q_k C(rho_k) of each measure
    over an (N, n, d, d) stack of n-state ensembles that share the weights
    q: {measure: array of N}. Positive slack means a violation."""
    q = np.asarray(weights, dtype=float)
    n_ens, n, d, _ = mats.shape
    mixed = validate_densities((q[:, None, None] * mats).sum(axis=1), tol=1e-9)
    members = mats.reshape(n_ens * n, d, d)
    return {
        measure: exact_measure_values(measure, mixed)
        - (q * exact_measure_values(measure, members).reshape(n_ens, n)).sum(axis=1)
        for measure in dict.fromkeys(measures)
    }


def check_convexity(measure: MeasureId, ensemble, tol: Optional[float] = None) -> PropertyReport:
    """Slack of C3: C(sum q_k rho_k) - sum q_k C(rho_k)."""
    qs = np.array([q for q, _ in ensemble], dtype=float)
    if np.any(qs < 0) or abs(qs.sum() - 1.0) > 1e-10:
        raise ValueError("ensemble weights must be a probability distribution")
    if tol is None:
        tol = 1e-6 if measure == MeasureId.ROOF_RANDOMNESS else 1e-9
    mats = np.stack([rho.mat for _, rho in ensemble])[None]
    slack = float(convexity_slacks((measure,), qs, mats)[measure][0])
    witness = None if slack <= tol else ensemble
    return PropertyReport(PropertyId.C3, slack <= tol, slack, witness)
