"""The stacked property sweeps against the per-pair harness, and their
witness records."""

import json

import numpy as np
import pytest

from cohrand import (
    MeasureId,
    c_l1,
    check_convexity,
    check_monotonicity,
    r_qubit_analytic,
    random_density,
    random_incoherent_kraus,
    run_property_suite,
    verify,
)
from cohrand.channels import exact_measure_value
from cohrand.cli import main
from cohrand.states import DensityMatrix

QUBIT_ONLY = (MeasureId.QUBIT_ANALYTIC, MeasureId.ROOF_RANDOMNESS)
WITNESS_KEYS = {"measure", "property", "sample_index", "dim", "state_seed", "channel_seed"}


def serial_slacks(measure, samples, seed, max_dim):
    """Each sweep's slacks, sample by sample, from the per-pair harness: the
    sweeps as a plain loop would run them for one measure."""
    dims = [2] if measure in QUBIT_ONLY else list(range(2, max_dim + 1))
    rng = np.random.default_rng(seed)
    c1 = []
    for i in range(samples):
        p = rng.random(dims[i % len(dims)]) + 1e-3
        c1.append(exact_measure_value(measure, DensityMatrix(np.diag(p / p.sum()).astype(complex))))
    c1s = []
    for i in range(samples):
        rho = random_density(2, 2 if i % 2 else 1, seed + i)
        c1s.append(1e-6 - r_qubit_analytic(rho) if c_l1(rho) > 1e-3 else -np.inf)
    c2a, c2b = [], []
    for i in range(samples):
        d = dims[i % len(dims)]
        rho = random_density(d, 1 + i % d, seed + 7919 * i)
        ks = random_incoherent_kraus(d, 1 + i % 4, seed + 104729 * i + 1)
        check = check_monotonicity(measure, rho, ks)
        c2a.append(check.c2a.worst_slack)
        c2b.append(check.c2b.worst_slack)
    c3 = []
    for i in range(max(samples // 2, 1)):
        d = dims[i % len(dims)]
        ensemble = [
            (0.5, random_density(d, 1 + i % d, seed + 2 * i)),
            (0.5, random_density(d, 1 + (i + 1) % d, seed + 2 * i + 1)),
        ]
        c3.append(check_convexity(measure, ensemble).worst_slack)
    return [c1, c1s, c2a, c2b, c3]


def suite_slacks(monkeypatch, measures, **kwargs):
    """(reports, slacks): run_property_suite's reports, and the slacks of
    every sample in each sweep's scan order, as the sweeps hand them to
    their reports."""
    slacks = []
    report = verify._report

    def spy(prop, flat, witness, tol):
        slacks.append(np.array(flat))
        return report(prop, flat, witness, tol)

    with monkeypatch.context() as patch:
        patch.setattr(verify, "_report", spy)
        reports = run_property_suite(measures, **kwargs)
    return reports, slacks


@pytest.mark.parametrize("measure", list(MeasureId))
def test_stacked_suite_matches_the_per_pair_harness(measure, monkeypatch):
    serial = serial_slacks(measure, samples=60, seed=11, max_dim=6)
    reports, stacked = suite_slacks(monkeypatch, (measure,), samples=60, seed=11, max_dim=6)
    tols = [verify.SLACK_TOL, 0.0, verify.SLACK_TOL, verify.SLACK_TOL, verify.SLACK_TOL]
    for report, slacks, flat, tol in zip(reports, serial, stacked, tols):
        assert abs(report.worst_slack - max(slacks)) <= 1e-15
        assert report.passed == (max(slacks) <= tol)
        # Every sample, not only the worst; C1' marks a skipped sample -inf.
        slacks = np.array(slacks)
        assert np.array_equal(np.isinf(flat), np.isinf(slacks))
        finite = np.isfinite(slacks)
        assert np.max(np.abs(flat[finite] - slacks[finite]), initial=0.0) <= 1e-15
    # With every sample failing, the witness is the first sample that
    # reaches the worst slack, as the serial scan finds it.
    monkeypatch.setattr(verify, "SLACK_TOL", -1.0)
    failing = run_property_suite((measure,), samples=60, seed=11, max_dim=6)
    for report, slacks in zip([failing[0], *failing[2:]], [serial[0], *serial[2:]]):
        assert report.witness["sample_index"] == int(np.argmax(slacks))


def test_witness_rebuilds_the_reported_pair(monkeypatch):
    monkeypatch.setattr(verify, "SLACK_TOL", -1.0)
    c1, c1s, c2a, c2b, c3 = run_property_suite(samples=40, seed=5, max_dim=5)
    # C1' keeps its own bound of 0 on 1e-6 - R, so it still passes.
    assert c1s.passed and c1s.witness is None
    for report in (c1, c2a, c2b, c3):
        assert not report.passed
        assert set(report.witness) == WITNESS_KEYS
        assert report.witness["property"] == report.property_id.value
    assert (c1.witness["state_seed"], c1.witness["channel_seed"]) == (5, None)
    for report in (c2a, c2b):
        w = report.witness
        d, i = w["dim"], w["sample_index"]
        rho = random_density(d, 1 + i % d, w["state_seed"])
        ks = random_incoherent_kraus(d, 1 + i % 4, w["channel_seed"])
        check = check_monotonicity(MeasureId(w["measure"]), rho, ks)
        rebuilt = check.c2a if report is c2a else check.c2b
        assert rebuilt.worst_slack == report.worst_slack
    w = c3.witness
    d, i = w["dim"], w["sample_index"]
    seed_a, seed_b = w["state_seed"]
    ensemble = [
        (0.5, random_density(d, 1 + i % d, seed_a)),
        (0.5, random_density(d, 1 + (i + 1) % d, seed_b)),
    ]
    assert w["channel_seed"] is None
    assert check_convexity(MeasureId(w["measure"]), ensemble).worst_slack == c3.worst_slack


def test_cli_emits_the_witness_as_an_object(monkeypatch, capsys):
    monkeypatch.setattr(verify, "SLACK_TOL", -1.0)
    assert main(["verify", "--samples", "8", "--max-dim", "3"]) == 1
    reports = json.loads(capsys.readouterr().out)
    c2a = reports[2]
    assert c2a["passed"] is False
    assert set(c2a["witness"]) == WITNESS_KEYS
    assert c2a["witness"]["property"] == "C2a"


def test_shared_pairs_match_single_measure_runs(monkeypatch):
    # rel_ent and l1 share every (state, channel) pair, and the qubit
    # measures share the d = 2 ones; each measure must still see its own.
    measures = list(MeasureId)
    # Five dimensions against four Kraus counts: a (d, k) group mixes
    # samples that some measures take at d and others at another dimension.
    kwargs = {"samples": 40, "seed": 2, "max_dim": 6}
    _, together = suite_slacks(monkeypatch, measures, **kwargs)
    alone = [suite_slacks(monkeypatch, (m,), **kwargs)[1] for m in measures]
    for k in (2, 3, 4):  # C2a, C2b, C3 scan measure after measure
        assert np.array_equal(together[k], np.concatenate([slacks[k] for slacks in alone]))
