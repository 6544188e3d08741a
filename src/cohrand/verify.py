"""Seeded property sweeps for the coherence-measure requirements.

Every sample is drawn from its own seed, as the per-pair harness would
take it. A sweep groups its samples by dimension (and, for monotonicity,
by Kraus count) and checks each group in one stacked pass of
:mod:`cohrand.channels`; a sample that two measures share is drawn and
pushed through the channel once, and a qubit state that C2 or C3 shares
with C1' is drawn once, by C1' (:func:`_states`). The worst slack and its
witness are the ones a serial scan would find: the first sample, in scan
order, that reaches the worst slack.

A witness is a record ``{measure, property, sample_index, dim,
state_seed, channel_seed}`` from which the failing input can be rebuilt
(README, "Property suite").
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from .channels import (
    SLACK_TOL,
    PropertyId,
    PropertyReport,
    convexity_slacks,
    exact_measure_values,
    monotonicity_slacks,
    random_incoherent_kraus_sets,
)
from .measures import MeasureId, c_l1_values, r_qubit_analytic_values
from .states import random_densities

DEFAULT_MEASURES = (MeasureId.REL_ENT, MeasureId.L1, MeasureId.QUBIT_ANALYTIC)
MAX_DIM = 6  # the sweeps cycle d = 2..MAX_DIM


def _dims(measure: MeasureId, samples: int) -> np.ndarray:
    """Dimension of each sample of a measure's sweep: d cycles through the
    dimensions the measure is exact at."""
    if measure in (MeasureId.QUBIT_ANALYTIC, MeasureId.ROOF_RANDOMNESS):
        return np.full(samples, 2)
    return 2 + np.arange(samples) % (MAX_DIM - 1)


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


def _states(d: int, ranks, offsets, seed: int, qubits) -> np.ndarray:
    """The states ``random_density(d, ranks[j], seed + offsets[j])`` as a
    stack, where a qubit state that is row o of `qubits`, C1''s states
    (rank 1 + o % 2, seed + o), is taken from there, not drawn again."""
    shared = (d == 2) & (offsets < len(qubits)) & (ranks == 1 + offsets % 2)
    states = np.empty((len(offsets), d, d), dtype=complex)
    states[~shared] = random_densities(d, ranks[~shared], seed + offsets[~shared])
    if shared.any():  # C1''s 2 x 2 rows: an empty take at d > 2 would not broadcast
        states[shared] = qubits[offsets[shared]]
    return states


def _vanishing(measures, samples: int, seed: int) -> PropertyReport:
    """C1: every measure is zero (within tolerance) on diagonal states.

    The states come from one generator, sample by sample and measure by
    measure within a sample, so the witness records the suite seed."""
    unique = list(dict.fromkeys(measures))
    # Position j = i * len(measures) + m is sample i of measures[m].
    which = np.tile([unique.index(m) for m in measures], samples)
    dims = np.stack([_dims(m, samples) for m in measures], axis=1).ravel()
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


def _strict_positivity(mats: np.ndarray, seed: int) -> PropertyReport:
    """C1': nonzero qubit coherence implies nonzero randomness, on the
    qubit states ``random_density(2, 1 + i % 2, seed + i)``."""
    coherent = c_l1_values(mats) > 1e-3
    slacks = np.where(coherent, 1e-6 - r_qubit_analytic_values(mats), -np.inf)

    def witness(i):
        return _witness(MeasureId.QUBIT_ANALYTIC, i, 2, seed + i)

    return _report(PropertyId.C1_STRICT, slacks, witness, 0.0)


def _monotonicity(measures, samples: int, seed: int, qubits):
    """C2a/C2b over seeded (state, incoherent channel) pairs: sample i pairs
    ``random_density(d, 1 + i % d, seed + 7919 i)`` with
    ``random_incoherent_kraus(d, 1 + i % 4, seed + 104729 i + 1)``. A state
    among `qubits` is taken from there (:func:`_states`)."""
    dims = {m: _dims(m, samples) for m in measures}
    slack_a = {m: np.empty(samples) for m in dims}
    slack_b = {m: np.empty(samples) for m in dims}
    for (d, k), idx, group_measures in _groups(dims, lambda i, d: (d, 1 + i % 4)):
        rhos = _states(d, 1 + idx % d, 7919 * idx, seed, qubits)
        kraus = random_incoherent_kraus_sets(d, k, seed + 104729 * idx + 1)
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


def _convexity(measures, samples: int, seed: int, qubits) -> PropertyReport:
    """C3 over seeded equal-weight two-state mixtures: sample i mixes
    ``random_density(d, 1 + i % d, seed + 2 i)`` and
    ``random_density(d, 1 + (i + 1) % d, seed + 2 i + 1)``. A state among
    `qubits` is taken from there (:func:`_states`)."""
    dims = {m: _dims(m, samples) for m in measures}
    slacks = {m: np.empty(samples) for m in dims}
    for d, idx, group_measures in _groups(dims, lambda i, d: d):
        # Pair member b of sample i is state o = 2 i + b, of seed `seed + o`.
        offsets = (2 * idx[:, None] + np.arange(2)).ravel()
        ranks = 1 + (offsets // 2 + offsets % 2) % d
        pairs = _states(d, ranks, offsets, seed, qubits).reshape(len(idx), 2, d, d)
        for measure, s in convexity_slacks(group_measures, (0.5, 0.5), pairs).items():
            use = dims[measure][idx] == d
            slacks[measure][idx[use]] = s[use]

    def witness(m, i):
        return _witness(m, i, dims[m][i], [seed + 2 * i, seed + 2 * i + 1])

    return _report(PropertyId.C3, *_measure_major(measures, slacks, witness), SLACK_TOL)


def run_property_suite(measures=DEFAULT_MEASURES, samples: int = 1000, seed: int = 0):
    """Full C1 / C1' / C2a / C2b / C3 sweep; returns one report each.

    There must be a sample, and every sample seed must lie in [0, 2^63),
    numpy's int64 range; the largest is C2's last channel seed,
    ``seed + 104729 (samples - 1) + 1``."""
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    top = 2**63 - 2 - 104729 * (samples - 1)
    if not 0 <= seed <= top:
        raise ValueError(f"seed must be in [0, {top}] for {samples} samples, got {seed}")
    measures = tuple(measures)
    i = np.arange(samples)
    qubits = random_densities(2, 1 + i % 2, seed + i)
    c1 = _vanishing(measures, samples, seed)
    c1s = _strict_positivity(qubits, seed)
    c2a, c2b = _monotonicity(measures, samples, seed, qubits)
    c3 = _convexity(measures, max(samples // 2, 1), seed, qubits)
    return [c1, c1s, c2a, c2b, c3]
