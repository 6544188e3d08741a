"""Distillation protocol: exact state-vector mode, statistical mode and its
coherence-loss bookkeeping."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from cohrand import (
    binomial_outcome_distribution,
    distill_exact,
    distill_simulate,
    log2_binomial,
    maximally_coherent_state,
    pure_state,
)
from cohrand.errors import TooLarge
from oracles import sample_exact_outcomes
from reference import binary_entropy


def unbalanced_qubit(p0=0.8):
    return pure_state([math.sqrt(p0), math.sqrt(1.0 - p0)])


class TestLog2Binomial:
    def test_matches_exact_combinatorics(self):
        for n in (1, 5, 20, 60, 5000, 10_000):
            for k in range(0, n + 1, max(1, n // 5)):
                assert log2_binomial(n, k) == pytest.approx(
                    math.log2(math.comb(n, k)), abs=1e-9
                )

    def test_no_overflow_at_large_n(self):
        v = float(log2_binomial(10_000, 5_000))
        assert 9_980 < v < 10_000


class TestOutcomeDistribution:
    def test_matches_scipy_binom(self):
        probs, _ = binomial_outcome_distribution(30, 0.8)
        # k counts excitations, i.e. draws of the 1-amplitude with
        # probability 1 - p0.
        expected = binom.pmf(np.arange(31), 30, 0.2)
        assert np.allclose(probs, expected, atol=1e-12)

    def test_probabilities_sum_to_one(self):
        probs, _ = binomial_outcome_distribution(50, 0.37)
        assert sum(probs) == pytest.approx(1.0, abs=1e-10)

    def test_degenerate_endpoints(self):
        probs, _ = binomial_outcome_distribution(5, 1.0)
        assert probs[0] == 1.0 and sum(probs) == 1.0
        probs, _ = binomial_outcome_distribution(5, 0.0)
        assert probs[5] == 1.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            binomial_outcome_distribution(5, 1.5)
        with pytest.raises(ValueError):
            binomial_outcome_distribution(0, 0.5)

    def test_entropy_identity(self):
        # Exact bookkeeping identity: N H(p0) splits into the outcome
        # entropy plus the expected subspace log-dimension. This is why the
        # finite-N yield undershoots H(p0) by H({p_k}) / N.
        n, p0 = 50, 0.8
        p, ld = binomial_outcome_distribution(n, p0)
        outcome_entropy = -np.sum(p[p > 0] * np.log2(p[p > 0]))
        assert n * binary_entropy(p0) == pytest.approx(
            outcome_entropy + float(np.sum(p * ld)), abs=1e-9
        )

    def test_expected_yield_per_copy_frozen(self):
        # E[log2 D] / N for N=50, p0=0.8; derived from the identity above.
        probs, log2_dims = binomial_outcome_distribution(50, 0.8)
        expected = sum(probs * log2_dims) / 50
        assert expected == pytest.approx(0.6511032690407658, abs=1e-10)


class TestExactMode:
    def test_four_copies_of_balanced_state(self):
        run = distill_exact(maximally_coherent_state(2), 4)
        assert np.allclose(run.probabilities, np.array([1, 4, 6, 4, 1]) / 16.0, atol=1e-12)
        assert [len(idx) for idx in run.subspace_indices] == [1, 4, 6, 4, 1]

    def test_post_measurement_states_maximally_coherent(self):
        run = distill_exact(unbalanced_qubit(0.7), 5)
        for k, state in enumerate(run.subspace_states):
            if state is None:
                continue
            dim = len(run.subspace_indices[k])
            assert np.max(np.abs(np.abs(state) - 1.0 / math.sqrt(dim))) < 1e-10

    def test_probabilities_match_binomial(self):
        run = distill_exact(unbalanced_qubit(0.8), 10)
        probs, _ = binomial_outcome_distribution(10, 0.8)
        assert np.allclose(run.probabilities, probs, atol=1e-12)

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(
        st.integers(1, 14),
        st.floats(0.0, 1.0),
        st.floats(0.0, 2.0 * math.pi, exclude_max=True),
    )
    @example(1, 0.0, 0.0)
    @example(14, 0.0, 1.0)
    @example(1, 1.0, 2.0)
    @example(14, 1.0, 3.0)
    def test_agrees_with_bookkeeping_mode(self, n, p0, phase):
        # The state-vector run and the closed-form outcome distribution of
        # the bookkeeping mode agree for every N the exact mode is tested
        # at, every p0 in [0, 1] and any phase on beta: outcome
        # probabilities within 1e-12 and each subspace's size C(N, k)
        # equal to 2**log2_d rounded.
        psi = pure_state([math.sqrt(p0), cmath.exp(1j * phase) * math.sqrt(1.0 - p0)])
        run = distill_exact(psi, n)
        probs, log2_d = binomial_outcome_distribution(n, p0)
        assert np.max(np.abs(run.probabilities - probs)) <= 1e-12
        assert [len(idx) for idx in run.subspace_indices] == [round(2.0**v) for v in log2_d]

    def test_size_limit(self):
        with pytest.raises(TooLarge):
            distill_exact(maximally_coherent_state(2), 21)

    def test_rejects_non_qubit(self):
        with pytest.raises(ValueError):
            distill_exact(maximally_coherent_state(3), 2)

    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_fewer_than_one_copy(self, n):
        # As distill_simulate does. Once n = 0 gave a run of no copies and
        # n = -1 an IndexError.
        with pytest.raises(ValueError, match="n_copies"):
            distill_exact(maximally_coherent_state(2), n)

    def test_sampling_counts(self):
        run = distill_exact(maximally_coherent_state(2), 4)
        counts = sample_exact_outcomes(run, 1000, seed=0)
        assert counts.sum() == 1000
        assert len(counts) == 5


class TestSimulateMode:
    def test_report_bookkeeping(self):
        report = distill_simulate(unbalanced_qubit(0.8), 50, 100, seed=0)
        assert report.r == math.floor(report.total_log2_dim + 1e-12)
        assert report.yield_rate == pytest.approx(report.r / 5000)
        assert report.input_randomness == pytest.approx(binary_entropy(0.8))
        assert len(report.sampled_k) == 100

    def test_seed_determinism(self):
        a = distill_simulate(unbalanced_qubit(0.8), 50, 50, seed=3)
        b = distill_simulate(unbalanced_qubit(0.8), 50, 50, seed=3)
        assert a.r == b.r and np.array_equal(a.sampled_k, b.sampled_k)

    def test_balanced_state_yield_shortfall(self):
        # At N=50 the balanced state loses ~log2(N)/(2N) per copy to the
        # outcome-entropy overhead, so the yield sits near 0.92, not 1.
        report = distill_simulate(maximally_coherent_state(2), 50, 200, seed=0)
        assert 0.85 < report.yield_rate < 1.0

    def test_loss_ledger_consistency(self):
        report = distill_simulate(unbalanced_qubit(0.8), 50, 200, seed=1)
        assert report.loss_actual == pytest.approx(
            50 * 200 * report.input_randomness - report.r
        )
        assert report.loss_bound == pytest.approx(200 * math.log2(50) + 1.0)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            distill_simulate(unbalanced_qubit(), 0, 10, seed=0)
        with pytest.raises(ValueError):
            distill_simulate(unbalanced_qubit(), 10, 0, seed=0)

