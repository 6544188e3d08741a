"""Seeded property sweeps for the coherence-measure requirements.

Every sample is drawn from its own seed, as the per-pair harness would
take it. A sweep groups its samples by dimension (and, for monotonicity,
by Kraus count) and checks each group in one stacked pass of
:mod:`cohrand.channels`; a sample that two measures share is drawn and
pushed through the channel once. The worst slack and its witness are the
ones a serial scan would find: the first sample, in scan order, that
reaches the worst slack.

A witness is a record ``{measure, property, sample_index, dim,
state_seed, channel_seed}`` from which the failing input can be rebuilt
(README, "Property suite").
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from .channels import (
    PropertyId,
    PropertyReport,
    convexity_slacks,
    exact_measure_values,
    monotonicity_slacks,
    random_incoherent_kraus,
)
from .measures import MeasureId, c_l1_values, r_qubit_analytic_values
from .states import random_density

DEFAULT_MEASURES = (MeasureId.REL_ENT, MeasureId.L1, MeasureId.QUBIT_ANALYTIC)
SLACK_TOL = 1e-9


def _dims(measure: MeasureId, max_dim: int, samples: int) -> np.ndarray:
    """Dimension of each sample of a measure's sweep: d cycles through the
    dimensions the measure is exact at."""
    if measure in (MeasureId.QUBIT_ANALYTIC, MeasureId.ROOF_RANDOMNESS):
        return np.full(samples, 2)
    return 2 + np.arange(samples) % (max_dim - 1)


def _groups(dims: dict, key):
    """(group key, sample indices, measures) for each group of samples with
    the same ``key(i, d)``; a sample that several measures use at the same
    dimension appears once."""
    members = defaultdict(lambda: defaultdict(list))
    for measure, ds in dims.items():
        for i, d in enumerate(ds.tolist()):
            members[key(i, d)][i].append(measure)
    for k in sorted(members):
        group = members[k]
        idx = np.array(sorted(group))
        yield k, idx, list(dict.fromkeys(m for i in idx for m in group[i]))


def _stack(idx, shape, draw) -> np.ndarray:
    """The complex stack of ``draw(i)`` over the sample indices `idx`,
    filled one draw at a time, so that no per-sample array outlives its
    copy into the stack."""
    out = np.empty((len(idx), *shape), dtype=complex)
    for j, i in enumerate(idx):
        out[j] = draw(i)
    return out


def _witness(measure, i, d, state_seed, channel_seed=None) -> dict:
    return {
        "measure": MeasureId(measure).value,
        "sample_index": int(i),
        "dim": int(d),
        "state_seed": state_seed,
        "channel_seed": channel_seed,
    }


def _report(prop: PropertyId, slacks: np.ndarray, witness, tol: float) -> PropertyReport:
    """Worst of `slacks`, laid out in scan order. Past `tol`, the witness is
    ``witness(j)`` of the first position j that reaches the worst slack."""
    values = slacks.tolist()
    worst = max(values)
    j = values.index(worst)
    if worst <= tol:
        return PropertyReport(prop, True, worst, None)
    return PropertyReport(prop, False, worst, {"property": prop.value, **witness(j)})


def _measure_major(measures, slacks: dict, witness):
    """Each measure's slacks, one measure after another (the scan order of
    the C2 and C3 sweeps), and position -> ``witness(measure, sample)``."""
    samples = len(slacks[measures[0]])
    flat = np.concatenate([slacks[m] for m in measures])
    return flat, lambda j: witness(measures[j // samples], j % samples)


def check_vanishing_on_incoherent(
    measures=DEFAULT_MEASURES, samples: int = 1000, seed: int = 0, max_dim: int = 6
) -> PropertyReport:
    """C1: every measure is zero (within tolerance) on diagonal states.

    The states come from one generator, sample by sample and measure by
    measure within a sample, so the witness records the sweep seed."""
    measures = tuple(measures)
    unique = list(dict.fromkeys(measures))
    # Position j = i * len(measures) + m is sample i of measures[m].
    which = np.tile([unique.index(m) for m in measures], samples)
    dims = np.stack([_dims(m, max_dim, samples) for m in measures], axis=1).ravel()
    starts = np.cumsum(dims) - dims
    # One draw of all the uniforms, consumed as the per-state draws would be.
    u = np.random.default_rng(seed).random(int(dims.sum()))
    slacks = np.empty(len(dims))
    for k, measure in enumerate(unique):
        for d in sorted(set(dims[which == k].tolist())):
            pos = np.flatnonzero((which == k) & (dims == d))
            p = u[starts[pos][:, None] + np.arange(d)] + 1e-3
            p = p / p.sum(axis=1, keepdims=True)
            mats = np.zeros((len(pos), d, d), dtype=complex)
            mats[:, np.arange(d), np.arange(d)] = p
            slacks[pos] = exact_measure_values(measure, mats)

    def witness(j):
        i, m = divmod(j, len(measures))
        return _witness(measures[m], i, dims[j], seed)

    return _report(PropertyId.C1, slacks, witness, SLACK_TOL)


def check_strict_positivity(samples: int = 1000, seed: int = 0) -> PropertyReport:
    """C1': nonzero qubit coherence implies nonzero randomness."""
    mats = _stack(
        range(samples), (2, 2), lambda i: random_density(2, 2 if i % 2 else 1, seed + i).mat
    )
    coherent = c_l1_values(mats) > 1e-3
    slacks = np.where(coherent, 1e-6 - r_qubit_analytic_values(mats), -np.inf)

    def witness(i):
        return _witness(MeasureId.QUBIT_ANALYTIC, i, 2, seed + i)

    return _report(PropertyId.C1_STRICT, slacks, witness, 0.0)


def check_monotonicity_sweep(
    measures=DEFAULT_MEASURES, samples: int = 1000, seed: int = 0, max_dim: int = 6
):
    """C2a/C2b over seeded (state, incoherent channel) pairs: sample i pairs
    ``random_density(d, 1 + i % d, seed + 7919 i)`` with
    ``random_incoherent_kraus(d, 1 + i % 4, seed + 104729 i + 1)``."""
    measures = tuple(measures)
    dims = {m: _dims(m, max_dim, samples) for m in measures}
    slack_a = {m: np.empty(samples) for m in dims}
    slack_b = {m: np.empty(samples) for m in dims}
    for (d, k), idx, group_measures in _groups(dims, lambda i, d: (d, 1 + i % 4)):
        rhos = _stack(idx, (d, d), lambda i: random_density(d, 1 + i % d, seed + 7919 * i).mat)
        kraus = _stack(
            idx, (k, d, d), lambda i: random_incoherent_kraus(d, k, seed + 104729 * i + 1).operators
        )
        for measure, (a, b) in monotonicity_slacks(group_measures, rhos, kraus).items():
            use = dims[measure][idx] == d
            slack_a[measure][idx[use]] = a[use]
            slack_b[measure][idx[use]] = b[use]

    def witness(m, i):
        return _witness(m, i, dims[m][i], seed + 7919 * i, seed + 104729 * i + 1)

    return tuple(
        _report(prop, *_measure_major(measures, slacks, witness), SLACK_TOL)
        for prop, slacks in ((PropertyId.C2A, slack_a), (PropertyId.C2B, slack_b))
    )


def check_convexity_sweep(
    measures=DEFAULT_MEASURES, samples: int = 500, seed: int = 0, max_dim: int = 6
) -> PropertyReport:
    """C3 over seeded equal-weight two-state mixtures: sample i mixes
    ``random_density(d, 1 + i % d, seed + 2 i)`` and
    ``random_density(d, 1 + (i + 1) % d, seed + 2 i + 1)``."""
    measures = tuple(measures)
    dims = {m: _dims(m, max_dim, samples) for m in measures}
    slacks = {m: np.empty(samples) for m in dims}
    for d, idx, group_measures in _groups(dims, lambda i, d: d):
        pairs = _stack(
            idx,
            (2, d, d),
            lambda i: (
                random_density(d, 1 + i % d, seed + 2 * i).mat,
                random_density(d, 1 + (i + 1) % d, seed + 2 * i + 1).mat,
            ),
        )
        for measure, s in convexity_slacks(group_measures, (0.5, 0.5), pairs).items():
            use = dims[measure][idx] == d
            slacks[measure][idx[use]] = s[use]

    def witness(m, i):
        return _witness(m, i, dims[m][i], [seed + 2 * i, seed + 2 * i + 1])

    return _report(PropertyId.C3, *_measure_major(measures, slacks, witness), SLACK_TOL)


def run_property_suite(
    measures=DEFAULT_MEASURES, samples: int = 1000, seed: int = 0, max_dim: int = 6
):
    """Full C1 / C1' / C2a / C2b / C3 sweep; returns one report each."""
    c1 = check_vanishing_on_incoherent(measures, samples, seed, max_dim)
    c1s = check_strict_positivity(samples, seed)
    c2a, c2b = check_monotonicity_sweep(measures, samples, seed, max_dim)
    c3 = check_convexity_sweep(measures, max(samples // 2, 1), seed, max_dim)
    return [c1, c1s, c2a, c2b, c3]
