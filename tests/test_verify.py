"""The stacked property sweeps against the per-pair harness, and their
witness records."""

import json
import sys

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
from cohrand import channels, states
from cohrand.states import DensityMatrix, random_densities

QUBIT_ONLY = (MeasureId.QUBIT_ANALYTIC, MeasureId.ROOF_RANDOMNESS)
WITNESS_KEYS = {"measure", "property", "sample_index", "dim", "state_seed", "channel_seed"}


def serial_slacks(measure, samples, seed):
    """Each sweep's slacks, sample by sample, from the per-pair harness: the
    sweeps as a plain loop would run them for one measure."""
    dims = [2] if measure in QUBIT_ONLY else list(range(2, verify.MAX_DIM + 1))
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
        a, b = check_monotonicity(measure, rho, ks)
        c2a.append(a.worst_slack)
        c2b.append(b.worst_slack)
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
    serial = serial_slacks(measure, samples=60, seed=11)
    reports, stacked = suite_slacks(monkeypatch, (measure,), samples=60, seed=11)
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
    failing = run_property_suite((measure,), samples=60, seed=11)
    for report, slacks in zip([failing[0], *failing[2:]], [serial[0], *serial[2:]]):
        assert report.witness["sample_index"] == int(np.argmax(slacks))


def test_witness_rebuilds_the_reported_pair(monkeypatch):
    monkeypatch.setattr(verify, "SLACK_TOL", -1.0)
    c1, c1s, c2a, c2b, c3 = run_property_suite(samples=40, seed=5)
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
        a, b = check_monotonicity(MeasureId(w["measure"]), rho, ks)
        rebuilt = a if report is c2a else b
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
    assert main(["verify", "--samples", "8"]) == 1
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
    kwargs = {"samples": 40, "seed": 2}
    _, together = suite_slacks(monkeypatch, measures, **kwargs)
    alone = [suite_slacks(monkeypatch, (m,), **kwargs)[1] for m in measures]
    for k in (2, 3, 4):  # C2a, C2b, C3 scan measure after measure
        assert np.array_equal(together[k], np.concatenate([slacks[k] for slacks in alone]))


@pytest.mark.parametrize("samples", [1, 2, 3, 40])
def test_suite_c3_is_the_standalone_sweep(samples, monkeypatch):
    # The suite hands C3 the C1' states it shares; the report, witness
    # included, must be the one the C3 sweep draws for itself.
    monkeypatch.setattr(verify, "SLACK_TOL", -1.0)
    measures = list(MeasureId)
    c3 = run_property_suite(measures, samples=samples, seed=4)[4]
    no_qubits = np.empty((0, 2, 2), dtype=complex)
    assert c3 == verify._convexity(measures, max(samples // 2, 1), 4, no_qubits)


def test_suite_draws_shared_qubit_states_once(monkeypatch):
    drawn = []

    def spy(d, ranks, seeds):
        drawn.append(len(seeds))
        return random_densities(d, ranks, seeds)

    monkeypatch.setattr(verify, "random_densities", spy)
    run_property_suite(samples=1000, seed=1)
    # C1' 1000, C2 1800 and C3 1800 states, less C3's 250 qubit pairs
    # (2, 1, seed + 2i), (2, 2, seed + 2i + 1) for even i: C1' states 2i, 2i + 1.
    assert sum(drawn) == 4600 - 500


def test_suite_decomposes_each_stack_once(monkeypatch):
    # Validation's spectra of the channel outputs, the kept outcomes and
    # the mixtures go on to the relative-entropy measure, so the measure
    # hands eigvalsh no stack, byte for byte, that was decomposed before.
    # Validation itself may meet one twice: a one-operator channel's
    # outcome is its output divided by p, and p often reads exactly 1.0
    # (here the (d, k) = (6, 1) group's outputs).
    eigvalsh = np.linalg.eigvalsh
    seen, repeated = set(), []

    def spy(a, *args, **kwargs):
        key = (a.shape, np.ascontiguousarray(a).tobytes())
        if key in seen and sys._getframe(1).f_code.co_name != "_validated_spectra":
            repeated.append(a.shape)
        seen.add(key)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    run_property_suite(samples=40)
    assert seen
    assert repeated == []


@pytest.mark.parametrize("seed", [0, 3, 2**32])
def test_suite_is_the_one_default_rng_gives(seed, monkeypatch):
    # The one-pass seed hash must leave every drawn bit as default_rng's.
    measures = list(MeasureId)
    hashed = run_property_suite(measures, samples=200, seed=seed)
    drawn = {states: 0, channels: 0}
    for module in drawn:

        def default_generators(seeds, module=module):
            drawn[module] += len(seeds)
            return (np.random.default_rng(int(s)) for s in seeds)

        monkeypatch.setattr(module, "_seeded_generators", default_generators)
    assert run_property_suite(measures, samples=200, seed=seed) == hashed
    # Both draws went through the patch: C2 draws a channel per state.
    assert drawn[states] > drawn[channels] > 200


@pytest.mark.parametrize("seed", [-1, 9223372036854775000, 10**20])
def test_cli_rejects_seeds_past_int64(seed, capsys):
    assert main(["verify", "--seed", str(seed)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    error = json.loads(line)
    assert error["error"] == "ValueError" and error["command"] == "verify"
    assert "seed must be in [0, 9223372036750151535] for 1000 samples" in error["message"]


def test_largest_seed_reaches_the_int64_edge():
    # C2's last channel seed, seed + 104729 (samples - 1) + 1, is 2^63 - 1.
    top = 2**63 - 2 - 104729 * 2
    run_property_suite(samples=3, seed=top)
    with pytest.raises(ValueError, match=r"seed must be in \[0, "):
        run_property_suite(samples=3, seed=top + 1)


@pytest.mark.parametrize("sweep", [run_property_suite], ids=["suite"])
def test_sweeps_name_their_sample_count(sweep):
    for samples in (0, -1):
        with pytest.raises(ValueError, match=rf"^samples must be at least 1, got {samples}$"):
            sweep(samples=samples)
