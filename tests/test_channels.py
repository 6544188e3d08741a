"""Incoherent Kraus sets, channel application, and property harnesses."""

import numpy as np
import pytest

from cohrand import (
    KrausSet,
    MeasureId,
    apply_channel,
    apply_selective,
    check_convexity,
    check_monotonicity,
    is_incoherent_kraus_set,
    maximally_coherent_state,
    projection_partition_kraus,
    random_incoherent_kraus,
    random_density,
)
from cohrand.channels import (
    OUTCOME_DROP_THRESHOLD,
    convexity_slacks,
    exact_measure_value,
    exact_measure_values,
    monotonicity_slacks,
    random_incoherent_kraus_sets,
)
from cohrand.errors import DimensionMismatch, NonExactMeasure, NotAPartition
from cohrand.measures import c_rel_ent_values
from cohrand.states import DensityMatrix, random_densities, validate_densities


def dephasing_kraus():
    return projection_partition_kraus([[i] for i in range(3)])


def hadamard_kraus():
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    return KrausSet([h])


class TestIncoherenceCheck:
    def test_identity_and_dephasing_are_incoherent(self):
        assert is_incoherent_kraus_set(KrausSet([np.eye(3)]))
        assert is_incoherent_kraus_set(dephasing_kraus())

    def test_hadamard_is_not(self):
        assert not is_incoherent_kraus_set(hadamard_kraus())

    def test_non_trace_preserving_rejected(self):
        op = np.diag([0.5, 0.5]).astype(complex)
        assert not is_incoherent_kraus_set(KrausSet([op]))

    def test_random_sets_are_incoherent(self):
        for i in range(20):
            ks = random_incoherent_kraus(2 + i % 4, 1 + i % 3, seed=i)
            assert is_incoherent_kraus_set(ks)

    def test_random_sets_exactly_trace_preserving(self):
        ks = random_incoherent_kraus(4, 3, seed=7)
        acc = sum(op.conj().T @ op for op in ks.operators)
        assert np.max(np.abs(acc - np.eye(4))) < 1e-14

    @pytest.mark.parametrize("d", range(2, 7))
    @pytest.mark.parametrize("n_ops", range(1, 5))
    def test_stacked_draws_are_the_per_seed_formula(self, d, n_ops):
        seeds = 1000 * d + 100 * n_ops + np.arange(50)
        stack = random_incoherent_kraus_sets(d, n_ops, seeds)
        assert stack.shape == (50, n_ops, d, d)
        for ops, seed in zip(stack, seeds.tolist()):
            rng = np.random.default_rng(seed)
            weights = rng.standard_normal((n_ops, d)) + 1j * rng.standard_normal((n_ops, d))
            scale = np.sqrt(np.sum(np.abs(weights) ** 2, axis=0))
            rows = rng.permuted(np.broadcast_to(np.arange(d), (n_ops, d)), axis=1)
            expected = np.zeros((n_ops, d, d), dtype=complex)
            expected[np.arange(n_ops)[:, None], rows, np.arange(d)] = weights / scale
            assert np.array_equal(ops, expected)
            assert np.array_equal(random_incoherent_kraus(d, n_ops, seed).operators, expected)

    def test_empty_stack(self):
        assert random_incoherent_kraus_sets(3, 2, []).shape == (0, 2, 3, 3)

    def test_at_least_one_operator(self):
        with pytest.raises(ValueError, match="n_ops must be >= 1"):
            random_incoherent_kraus(3, 0, seed=0)
        with pytest.raises(ValueError, match="n_ops must be >= 1"):
            random_incoherent_kraus_sets(3, 0, [0, 1])

    def test_mismatched_dims_rejected(self):
        ks = KrausSet([np.eye(2, dtype=complex), np.eye(3, dtype=complex)])
        with pytest.raises(DimensionMismatch):
            is_incoherent_kraus_set(ks)

    @pytest.mark.parametrize("operators", [[], np.zeros((0, 2, 2))], ids=["list", "array"])
    def test_empty_kraus_set_is_a_named_error(self, operators):
        # An empty set once failed with "IndexError: list index out of range".
        ks = KrausSet(operators)
        rho = random_density(2, 2, seed=0)
        for call in (
            lambda: is_incoherent_kraus_set(ks),
            lambda: apply_channel(rho, ks),
            lambda: check_monotonicity(MeasureId.L1, rho, ks),
        ):
            with pytest.raises(ValueError, match="needs at least one operator"):
                call()


class TestApplyChannel:
    def test_identity_channel(self):
        rho = random_density(3, 3, seed=0)
        out = apply_channel(rho, KrausSet([np.eye(3)]))
        assert np.max(np.abs(out.mat - rho.mat)) < 1e-12

    def test_dephasing_channel_matches_dephase(self):
        rho = random_density(3, 3, seed=1)
        out = apply_channel(rho, dephasing_kraus())
        assert np.max(np.abs(out.mat - np.diag(np.diag(rho.mat)))) < 1e-12

    def test_output_is_valid_density(self):
        rho = random_density(4, 4, seed=2)
        out = apply_channel(rho, random_incoherent_kraus(4, 3, seed=3))
        assert np.isclose(np.trace(out.mat).real, 1.0)

    def test_dimension_mismatch(self):
        rho = random_density(2, 2, seed=4)
        with pytest.raises(DimensionMismatch):
            apply_channel(rho, KrausSet([np.eye(3)]))


class TestApplySelective:
    def test_outcomes_average_to_channel_output(self):
        rho = random_density(3, 3, seed=5)
        ks = random_incoherent_kraus(3, 3, seed=6)
        outcomes = apply_selective(rho, ks)
        avg = sum(o.p * o.rho.mat for o in outcomes)
        assert np.max(np.abs(avg - apply_channel(rho, ks).mat)) < 1e-10

    def test_probabilities_sum_to_one(self):
        rho = random_density(3, 2, seed=7)
        outcomes = apply_selective(rho, random_incoherent_kraus(3, 2, seed=8))
        assert sum(o.p for o in outcomes) == pytest.approx(1.0, abs=1e-10)


class TestPartitionKraus:
    def test_valid_partition(self):
        ks = projection_partition_kraus([[0, 1], [2]])
        assert np.shape(ks.operators) == (2, 3, 3)
        assert is_incoherent_kraus_set(ks)

    def test_overlapping_blocks_rejected(self):
        with pytest.raises(NotAPartition):
            projection_partition_kraus([[0, 1], [1, 2]])

    def test_gap_rejected(self):
        with pytest.raises(NotAPartition):
            projection_partition_kraus([[0], [2]])

    @pytest.mark.parametrize("partition", [[], [[]], [[], []]])
    def test_empty_partition_rejected(self, partition):
        # No index means no dimension to partition, not an empty Kraus set.
        with pytest.raises(NotAPartition, match="hold no basis index"):
            projection_partition_kraus(partition)

    def test_projection_keeps_subspace_coherence(self):
        # Projecting the d=4 maximally coherent state onto a 2-element block
        # leaves a maximally coherent qubit-like state in that block.
        rho = maximally_coherent_state(4).projector()
        outcomes = apply_selective(rho, projection_partition_kraus([[0, 1], [2, 3]]))
        assert len(outcomes) == 2
        for o in outcomes:
            assert o.p == pytest.approx(0.5, abs=1e-12)
            block = o.rho.mat[np.ix_(*[np.nonzero(np.diag(o.rho.mat).real > 1e-12)[0]] * 2)]
            assert np.max(np.abs(block - 0.5)) < 1e-12


class TestExactMeasureValue:
    def test_roof_rejected_above_dimension_two(self):
        with pytest.raises(NonExactMeasure):
            exact_measure_value(
                MeasureId.ROOF_RANDOMNESS, DensityMatrix(np.eye(3, dtype=complex) / 3)
            )

    def test_roof_routed_to_analytic_on_qubits(self):
        rho = random_density(2, 2, seed=9)
        assert exact_measure_value(MeasureId.ROOF_RANDOMNESS, rho) == exact_measure_value(
            MeasureId.QUBIT_ANALYTIC, rho
        )

    @pytest.mark.parametrize(
        "measure, d",
        [(m, d) for m in MeasureId for d in range(2, 7) if d == 2 or m in ("rel_ent", "l1")],
    )
    def test_spectra_from_validation_give_the_same_values(self, measure, d):
        # The qubit measures are defined at d = 2 only. The stack holds
        # every rank of d, pure states included, and the maximally mixed
        # state, whose spectrum is degenerate.
        ranks = 1 + np.arange(3 * d) % d
        mats = random_densities(d, ranks, 300 + 20 * d + np.arange(3 * d))
        mats[0] = np.eye(d) / d
        mats, spectra = validate_densities(mats)
        given = exact_measure_values(measure, mats, spectra)
        assert np.array_equal(given, exact_measure_values(measure, mats))

    @pytest.mark.parametrize("given", [False, True], ids=["no_spectra", "spectra"])
    def test_stacked_roof_rejected_above_dimension_two(self, given):
        mats, spectra = validate_densities(random_densities(3, [1, 2, 3], [1, 2, 3]))
        with pytest.raises(NonExactMeasure):
            exact_measure_values(MeasureId.ROOF_RANDOMNESS, mats, spectra if given else None)


class TestPropertyHarnesses:
    def test_monotonicity_passes_for_incoherent_channels(self):
        rho = random_density(3, 3, seed=10)
        ks = random_incoherent_kraus(3, 3, seed=11)
        for measure in (MeasureId.REL_ENT, MeasureId.L1):
            c2a, c2b = check_monotonicity(measure, rho, ks)
            assert c2a.passed and c2b.passed
            assert c2a.worst_slack <= 1e-9
            assert c2b.worst_slack <= 1e-9

    def test_monotonicity_rejects_coherent_channel(self):
        rho = random_density(2, 2, seed=12)
        with pytest.raises(ValueError):
            check_monotonicity(MeasureId.L1, rho, hadamard_kraus())

    def test_stacked_monotonicity_rejects_a_coherent_channel_in_the_stack(self):
        rhos = np.stack([random_density(2, 2, seed=s).mat for s in (12, 13, 14)])
        incoherent = np.asarray(random_incoherent_kraus(2, 1, seed=15).operators)
        kraus = np.stack([incoherent, np.asarray(hadamard_kraus().operators), incoherent])
        with pytest.raises(ValueError, match="not incoherent"):
            monotonicity_slacks((MeasureId.L1,), rhos, kraus)

    def test_convexity_passes(self):
        ensemble = [
            (0.5, random_density(3, 3, seed=13)),
            (0.5, random_density(3, 3, seed=14)),
        ]
        for measure in (MeasureId.REL_ENT, MeasureId.L1):
            assert check_convexity(measure, ensemble).passed

    def test_convexity_rejects_bad_weights(self):
        ensemble = [(0.7, random_density(2, 2, seed=15)), (0.7, random_density(2, 2, seed=16))]
        with pytest.raises(ValueError):
            check_convexity(MeasureId.L1, ensemble)

    def test_convexity_rejects_members_of_different_dimensions(self):
        # A named error, not numpy's "all input arrays must have the same
        # shape" from stacking the members.
        ensemble = [(0.5, random_density(2, 2, seed=15)), (0.5, random_density(3, 3, seed=16))]
        with pytest.raises(DimensionMismatch, match=r"\[2, 3\]"):
            check_convexity(MeasureId.L1, ensemble)


class TestReusedSpectra:
    """The harnesses hand the relative-entropy measure the spectra that
    validation took; each must be its own stack's, so the slacks are
    exactly those of the public measure on the validated stacks."""

    @staticmethod
    def states_and_channels(d, k):
        """Three states and incoherent Kraus sets of k operators. Where
        d >= k >= 2, state 1 has no weight on basis state 0 and set 1 is a
        projection partition whose first block is {0}, so outcome (1, 0) is
        dropped from the middle of the keep mask."""
        mats = random_densities(d, [d, 1, max(d - 1, 1)], [10 * d + k, 11 * d + k, 12 * d + k])
        kraus = random_incoherent_kraus_sets(d, k, [20 * d + k, 21 * d + k, 22 * d + k])
        if d >= k >= 2:
            mats[1] = 0.0
            mats[1, 1:, 1:] = random_densities(d - 1, [d - 1], [13 * d + k])[0]
            blocks = [[0]] + [b.tolist() for b in np.array_split(np.arange(1, d), k - 1)]
            kraus[1] = projection_partition_kraus(blocks).operators
        return mats, kraus

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_monotonicity_slacks_are_the_public_measure(self, d, k):
        mats, kraus = self.states_and_channels(d, k)
        ((slack_a, slack_b),) = monotonicity_slacks((MeasureId.REL_ENT,), mats, kraus).values()
        terms = kraus @ mats[:, None] @ kraus.conj().swapaxes(-1, -2)
        outputs, output_spectra = validate_densities(terms.sum(axis=1), tol=1e-9)
        p = np.trace(terms, axis1=-2, axis2=-1).real
        keep = p > OUTCOME_DROP_THRESHOLD
        assert keep.all() != (d >= k >= 2)
        if k == 1 and d <= 5:
            # A one-operator outcome whose p reads exactly 1.0 is its
            # output, byte for byte, and takes the output's spectrum; the
            # others are validated on their own.
            assert 0 < np.count_nonzero(p == 1.0) < p.size
        outcomes, outcome_spectra = validate_densities(
            terms[keep] / p[keep][:, None, None], tol=1e-9
        )
        base = c_rel_ent_values(mats)
        weighted = np.zeros(p.shape)
        weighted[keep] = p[keep] * c_rel_ent_values(outcomes, outcome_spectra)
        assert np.array_equal(slack_a, c_rel_ent_values(outputs, output_spectra) - base)
        assert np.array_equal(slack_b, weighted.sum(axis=1) - base)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_convexity_slacks_are_the_public_measure(self, d, n):
        ranks = 1 + np.arange(3 * n) % d
        mats = random_densities(d, ranks, 100 * d + 10 * n + np.arange(3 * n)).reshape(3, n, d, d)
        q = np.random.default_rng(d * n).random(n)
        q /= q.sum()
        (slack,) = convexity_slacks((MeasureId.REL_ENT,), q, mats).values()
        mixed, _ = validate_densities((q[:, None, None] * mats).sum(axis=1), tol=1e-9)
        members = c_rel_ent_values(mats.reshape(3 * n, d, d)).reshape(3, n)
        assert np.array_equal(slack, c_rel_ent_values(mixed) - (q * members).sum(axis=1))
