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
from .measures import (
    MeasureId,
    _c_rel_ent_values,
    c_l1_values,
    c_rel_ent_values,
    r_qubit_analytic_values,
)
from .states import DensityMatrix, _seeded_generators, _validated_spectra

COLUMN_ZERO_THRESHOLD = 1e-12
TRACE_PRESERVATION_TOL = 1e-10
OUTCOME_DROP_THRESHOLD = 1e-12
SLACK_TOL = 1e-9  # a property slack above this is a violation


class PropertyId(str, Enum):
    C1 = "C1"
    C1_STRICT = "C1'"
    C2A = "C2a"
    C2B = "C2b"
    C3 = "C3"


@dataclass(frozen=True)
class KrausSet:
    operators: Sequence  # d x d complex ndarrays: a list, or a (k, d, d) array


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


def exact_measure_values(measure: MeasureId, mats: np.ndarray) -> np.ndarray:
    """Evaluate a measure on each matrix of an (N, d, d) stack, where an
    exact value is available.

    The optimizer-based roof is only an upper estimate for d > 2 and would
    fabricate property violations, so it is rejected there; on qubits the
    roof has an exact analytic form.
    """
    return _exact_values(measure, mats)


def _exact_values(measure: MeasureId, mats: np.ndarray, spectra=None) -> np.ndarray:
    """:func:`exact_measure_values`, given the stack's ascending
    ``eigvalsh`` spectra if they are known (the harnesses keep them from
    validation). Only the relative-entropy measure reads them."""
    if measure == MeasureId.REL_ENT:
        return c_rel_ent_values(mats) if spectra is None else _c_rel_ent_values(mats, spectra)
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
    if not len(ks.operators):
        raise ValueError("a Kraus set needs at least one operator, got none")
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


def random_incoherent_kraus_sets(d: int, n_ops: int, seeds) -> np.ndarray:
    """Random incoherent channels as an (N, n_ops, d, d) stack, set j drawn
    from ``default_rng(seeds[j])``: operator n places column j's weight on a
    random target row, with per-operator rows chosen by a random
    permutation so the completeness sum stays exactly diagonal; columns are
    then rescaled to make the set trace preserving.

    The seeds are hashed in one pass (:func:`~cohrand.states._seeded_generators`);
    per seed, the Python loop only builds a generator and draws the
    Gaussian weights, real parts first, and one permutation per operator;
    the scaling and the placement into the operators run once for the
    stack."""
    if n_ops < 1:
        raise ValueError("n_ops must be >= 1")
    g = np.empty((len(seeds), 2, n_ops, d))
    rows = np.empty((len(seeds), n_ops, d), dtype=int)
    identity_rows = np.broadcast_to(np.arange(d), (n_ops, d))
    for j, rng in enumerate(_seeded_generators(seeds)):
        rng.standard_normal(out=g[j])
        # One permutation per operator, drawn as n_ops successive permutation(d) calls would.
        rows[j] = rng.permuted(identity_rows, axis=1)
    weights = g[:, 0] + 1j * g[:, 1]
    scale = np.sqrt(np.sum(np.abs(weights) ** 2, axis=1, keepdims=True))
    # Operator n of set s holds column c's weight in row rows[s, n, c].
    placed = rows[..., None, :] == np.arange(d)[:, None]
    return np.where(placed, (weights / scale)[..., None, :], 0)


def random_incoherent_kraus(d: int, n_ops: int, seed: int) -> KrausSet:
    """Random incoherent channel: :func:`random_incoherent_kraus_sets` of a
    stack of one. The operators come as one (n_ops, d, d) array."""
    return KrausSet(random_incoherent_kraus_sets(d, n_ops, [seed])[0])


def _channel_terms(mats: np.ndarray, kraus: np.ndarray) -> np.ndarray:
    """K_n rho K_n^dag for every state and operator: (N, k, d, d)."""
    return kraus @ mats[:, None] @ kraus.conj().swapaxes(-1, -2)


def _channel_outputs(terms: np.ndarray):
    """(states, spectra): the validated channel output sum_n K_n rho K_n^dag
    of each state and its spectrum from validation."""
    return _validated_spectra(terms.sum(axis=1), tol=1e-9)


def _selective_outcomes(terms: np.ndarray):
    """(p, keep, states, spectra): the (N, k) outcome probabilities, the
    mask of outcomes above OUTCOME_DROP_THRESHOLD, and the kept
    post-selected states, validated, in row-major (state, operator) order,
    with their spectra from validation."""
    p = np.trace(terms, axis1=-2, axis2=-1).real
    keep = p > OUTCOME_DROP_THRESHOLD
    return p, keep, *_validated_spectra(terms[keep] / p[keep][:, None, None], tol=1e-9)


def apply_channel(rho: DensityMatrix, ks: KrausSet) -> DensityMatrix:
    states, _ = _channel_outputs(_channel_terms(*_state_and_kraus(rho, ks)))
    return DensityMatrix(states[0])


def apply_selective(rho: DensityMatrix, ks: KrausSet) -> list:
    """Post-selected outcomes (p_n, rho_n); outcomes with negligible
    probability are omitted."""
    p, keep, states, _ = _selective_outcomes(_channel_terms(*_state_and_kraus(rho, ks)))
    return [SelectiveOutcome(float(pn), DensityMatrix(s)) for pn, s in zip(p[keep], states)]


def projection_partition_kraus(partition) -> KrausSet:
    """Projectors onto disjoint basis-index blocks covering 0..d-1, where d
    is the largest index + 1."""
    sets = [sorted(int(i) for i in block) for block in partition]
    flat = sorted(i for block in sets for i in block)
    if not flat:
        raise NotAPartition(f"blocks {sets} hold no basis index")
    d = flat[-1] + 1
    if flat != list(range(d)):
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
    Positive slack means a violation. The channel outputs and the kept
    outcomes are decomposed once, by their validation, and the
    relative-entropy measure reads those spectra."""
    if not _incoherent_mask(kraus).all():
        raise ValueError("Kraus set is not incoherent; monotonicity is not guaranteed")
    terms = _channel_terms(mats, kraus)
    outputs, output_spectra = _channel_outputs(terms)
    p, keep, outcomes, outcome_spectra = _selective_outcomes(terms)
    slacks = {}
    for measure in dict.fromkeys(measures):
        base = exact_measure_values(measure, mats)
        weighted = np.zeros(p.shape)
        weighted[keep] = p[keep] * _exact_values(measure, outcomes, outcome_spectra)
        slack_a = _exact_values(measure, outputs, output_spectra) - base
        slacks[measure] = (slack_a, weighted.sum(axis=1) - base)
    return slacks


def check_monotonicity(measure: MeasureId, rho: DensityMatrix, ks: KrausSet):
    """The reports (C2a, C2b) of the slacks of C2a (non-selective) and C2b
    (selective average) for an incoherent channel. Positive slack means a
    violation."""
    ((slack_a, slack_b),) = monotonicity_slacks((measure,), *_state_and_kraus(rho, ks)).values()
    slack_a, slack_b = float(slack_a[0]), float(slack_b[0])
    witness = None if max(slack_a, slack_b) <= SLACK_TOL else (rho, ks)
    return (
        PropertyReport(PropertyId.C2A, slack_a <= SLACK_TOL, slack_a, witness),
        PropertyReport(PropertyId.C2B, slack_b <= SLACK_TOL, slack_b, witness),
    )


def convexity_slacks(measures, weights, mats: np.ndarray) -> dict:
    """C3 slacks C(sum_k q_k rho_k) - sum_k q_k C(rho_k) of each measure
    over an (N, n, d, d) stack of n-state ensembles that share the weights
    q: {measure: array of N}. Positive slack means a violation. Each
    mixture is decomposed once, by its validation, and the
    relative-entropy measure reads that spectrum."""
    q = np.asarray(weights, dtype=float)
    n_ens, n, d, _ = mats.shape
    mixed, spectra = _validated_spectra((q[:, None, None] * mats).sum(axis=1), tol=1e-9)
    members = mats.reshape(n_ens * n, d, d)
    return {
        measure: _exact_values(measure, mixed, spectra)
        - (q * exact_measure_values(measure, members).reshape(n_ens, n)).sum(axis=1)
        for measure in dict.fromkeys(measures)
    }


def check_convexity(measure: MeasureId, ensemble) -> PropertyReport:
    """Slack of C3: C(sum q_k rho_k) - sum q_k C(rho_k)."""
    qs = np.array([q for q, _ in ensemble], dtype=float)
    if np.any(qs < 0) or abs(qs.sum() - 1.0) > 1e-10:
        raise ValueError("ensemble weights must be a probability distribution")
    dims = sorted({rho.dim for _, rho in ensemble})
    if len(dims) > 1:
        raise DimensionMismatch(f"ensemble members have dims {dims}, not one")
    mats = np.stack([rho.mat for _, rho in ensemble])[None]
    slack = float(convexity_slacks((measure,), qs, mats)[measure][0])
    witness = None if slack <= SLACK_TOL else ensemble
    return PropertyReport(PropertyId.C3, slack <= SLACK_TOL, slack, witness)
