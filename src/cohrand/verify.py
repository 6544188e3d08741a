"""Seeded property sweeps for the coherence-measure requirements."""

from __future__ import annotations

import numpy as np

from .channels import (
    PropertyId,
    PropertyReport,
    check_convexity,
    check_monotonicity,
    exact_measure_value,
    random_incoherent_kraus,
)
from .measures import MeasureId, c_l1, r_qubit_analytic
from .states import DensityMatrix, random_density

DEFAULT_MEASURES = (MeasureId.REL_ENT, MeasureId.L1, MeasureId.QUBIT_ANALYTIC)
SLACK_TOL = 1e-9


def _random_incoherent_state(d: int, rng) -> DensityMatrix:
    p = rng.random(d) + 1e-3
    return DensityMatrix(np.diag(p / p.sum()).astype(complex))


def _dims_for(measure: MeasureId, max_dim: int):
    if measure in (MeasureId.QUBIT_ANALYTIC, MeasureId.ROOF_RANDOMNESS):
        return [2]
    return list(range(2, max_dim + 1))


def check_vanishing_on_incoherent(
    measures=DEFAULT_MEASURES, samples: int = 1000, seed: int = 0, max_dim: int = 6
) -> PropertyReport:
    """C1: every measure is zero (within tolerance) on diagonal states."""
    rng = np.random.default_rng(seed)
    worst = -np.inf
    witness = None
    for i in range(samples):
        for measure in measures:
            dims = _dims_for(measure, max_dim)
            d = dims[i % len(dims)]
            delta = _random_incoherent_state(d, rng)
            slack = exact_measure_value(measure, delta)
            if slack > worst:
                worst = slack
                witness = (measure, i) if slack > SLACK_TOL else witness
    return PropertyReport(PropertyId.C1, worst <= SLACK_TOL, worst, witness)


def check_strict_positivity(samples: int = 1000, seed: int = 0) -> PropertyReport:
    """C1': nonzero qubit coherence implies nonzero randomness."""
    worst = -np.inf
    witness = None
    for i in range(samples):
        rho = random_density(2, 2 if i % 2 else 1, seed + i)
        if c_l1(rho) <= 1e-3:
            continue
        slack = 1e-6 - r_qubit_analytic(rho)
        if slack > worst:
            worst = slack
            witness = i if slack > 0 else witness
    return PropertyReport(PropertyId.C1_STRICT, worst <= 0.0, worst, witness)


def check_monotonicity_sweep(
    measures=DEFAULT_MEASURES, samples: int = 1000, seed: int = 0, max_dim: int = 6
):
    """C2a/C2b over seeded (state, incoherent channel) pairs."""
    worst_a = -np.inf
    worst_b = -np.inf
    witness_a = None
    witness_b = None
    for measure in measures:
        dims = _dims_for(measure, max_dim)
        for i in range(samples):
            d = dims[i % len(dims)]
            rho = random_density(d, 1 + i % d, seed + 7919 * i)
            ks = random_incoherent_kraus(d, 1 + i % 4, seed + 104729 * i + 1)
            check = check_monotonicity(measure, rho, ks, tol=SLACK_TOL)
            if check.c2a.worst_slack > worst_a:
                worst_a = check.c2a.worst_slack
                witness_a = (measure, i) if not check.c2a.passed else witness_a
            if check.c2b.worst_slack > worst_b:
                worst_b = check.c2b.worst_slack
                witness_b = (measure, i) if not check.c2b.passed else witness_b
    return (
        PropertyReport(PropertyId.C2A, worst_a <= SLACK_TOL, worst_a, witness_a),
        PropertyReport(PropertyId.C2B, worst_b <= SLACK_TOL, worst_b, witness_b),
    )


def check_convexity_sweep(
    measures=DEFAULT_MEASURES, samples: int = 500, seed: int = 0, max_dim: int = 6
) -> PropertyReport:
    """C3 over seeded equal-weight two-state mixtures."""
    worst = -np.inf
    witness = None
    for measure in measures:
        dims = _dims_for(measure, max_dim)
        for i in range(samples):
            d = dims[i % len(dims)]
            ensemble = [
                (0.5, random_density(d, 1 + i % d, seed + 2 * i)),
                (0.5, random_density(d, 1 + (i + 1) % d, seed + 2 * i + 1)),
            ]
            report = check_convexity(measure, ensemble, tol=SLACK_TOL)
            if report.worst_slack > worst:
                worst = report.worst_slack
                witness = (measure, i) if not report.passed else witness
    return PropertyReport(PropertyId.C3, worst <= SLACK_TOL, worst, witness)


def run_property_suite(
    measures=DEFAULT_MEASURES, samples: int = 1000, seed: int = 0, max_dim: int = 6
):
    """Full C1 / C1' / C2a / C2b / C3 sweep; returns one report each."""
    c1 = check_vanishing_on_incoherent(measures, samples, seed, max_dim)
    c1s = check_strict_positivity(samples, seed)
    c2a, c2b = check_monotonicity_sweep(measures, samples, seed, max_dim)
    c3 = check_convexity_sweep(measures, max(samples // 2, 1), seed, max_dim)
    return [c1, c1s, c2a, c2b, c3]
