"""Closed-form measures against trivial values and independent oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from cohrand import (
    basis_state,
    binary_entropy,
    bloch_to_density,
    c_l1,
    c_rel_ent,
    coherence_concurrence_qubit,
    concurrence_bloch,
    concurrence_spin_flip,
    haar_random_pure,
    maximally_coherent_state,
    pure_state,
    r_pure,
    r_qubit_analytic,
    random_density,
)
from cohrand.errors import DimensionNot2
from cohrand.measures import c_l1_values, c_rel_ent_values, r_qubit_analytic_values
from cohrand.states import DensityMatrix

# Frozen values from an independent Nelder-Mead minimization of the quantum
# relative entropy S(rho || sigma) over diagonal sigma (6 restarts each,
# fatol 1e-14); the closed form S(rho^diag) - S(rho) matched each to <1e-12.
REL_ENT_ORACLE = [
    (2, 11, 0.100320541655),
    (2, 12, 0.206038616222),
    (3, 13, 0.324469316720),
    (4, 14, 0.463581895759),
]


class TestBinaryEntropy:
    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_half(self):
        assert binary_entropy(0.5) == pytest.approx(1.0)

    def test_symmetry(self):
        assert binary_entropy(0.2) == pytest.approx(binary_entropy(0.8))


class TestRelEnt:
    def test_vanishes_on_diagonal(self):
        rho = DensityMatrix(np.diag([0.2, 0.3, 0.5]).astype(complex))
        assert c_rel_ent(rho) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_coherent(self):
        for d in (2, 3, 4):
            rho = maximally_coherent_state(d).projector()
            assert c_rel_ent(rho) == pytest.approx(math.log2(d), abs=1e-10)

    @pytest.mark.parametrize("d,seed,expected", REL_ENT_ORACLE)
    def test_matches_independent_minimizer(self, d, seed, expected):
        rho = random_density(d, d, seed)
        assert c_rel_ent(rho) == pytest.approx(expected, abs=1e-9)


class TestL1:
    def test_vanishes_on_diagonal(self):
        rho = DensityMatrix(np.diag([0.4, 0.6]).astype(complex))
        assert c_l1(rho) == 0.0

    def test_maximally_coherent(self):
        for d in (2, 3, 5):
            rho = maximally_coherent_state(d).projector()
            assert c_l1(rho) == pytest.approx(d - 1, abs=1e-12)


class TestPureRandomness:
    def test_basis_state_zero(self):
        assert r_pure(pure_state([1.0, 0.0])) == 0.0

    def test_balanced_superposition(self):
        assert r_pure(maximally_coherent_state(2)) == pytest.approx(1.0)

    def test_matches_binary_entropy(self):
        psi = pure_state([math.sqrt(0.3), math.sqrt(0.7)])
        assert r_pure(psi) == pytest.approx(binary_entropy(0.3))


class TestQubitConcurrence:
    def test_production_matches_bloch_path(self):
        for i in range(50):
            rho = random_density(2, 2, seed=i)
            assert coherence_concurrence_qubit(rho) == pytest.approx(
                concurrence_bloch(rho), abs=1e-12
            )

    def test_spin_flip_path_agrees_on_mixed_states(self):
        for i in range(50):
            rho = random_density(2, 2, seed=100 + i)
            assert concurrence_spin_flip(rho) == pytest.approx(
                coherence_concurrence_qubit(rho), abs=1e-12
            )

    def test_spin_flip_path_on_pure_states_within_conditioning(self):
        # The small eigenvalue of the 2x2 product matrix is rounding noise
        # for pure states, so this path is only sqrt(eps)-accurate there.
        for i in range(50):
            rho = haar_random_pure(2, i).projector()
            assert concurrence_spin_flip(rho) == pytest.approx(
                coherence_concurrence_qubit(rho), abs=1e-7
            )

    def test_equals_l1_on_qubits(self):
        for i in range(50):
            rho = random_density(2, 1 + i % 2, seed=200 + i)
            assert coherence_concurrence_qubit(rho) == pytest.approx(
                c_l1(rho), abs=1e-12
            )

    def test_rejects_non_qubit(self):
        with pytest.raises(DimensionNot2):
            coherence_concurrence_qubit(DensityMatrix(np.eye(3, dtype=complex) / 3))


class TestQubitAnalytic:
    def test_derived_value_at_fixed_bloch_vector(self):
        # n = (0.3, 0.4, 0.2) gives C = 0.5 exactly, hence
        # R = H((1 + sqrt(0.75)) / 2).
        rho = bloch_to_density([0.3, 0.4, 0.2])
        expected = binary_entropy((1.0 + math.sqrt(0.75)) / 2.0)
        assert r_qubit_analytic(rho) == pytest.approx(expected, abs=1e-14)
        assert expected == pytest.approx(0.35457890266527003, abs=1e-12)

    def test_reduces_to_pure_formula_on_projectors(self):
        for i in range(50):
            psi = haar_random_pure(2, 300 + i)
            assert r_qubit_analytic(psi.projector()) == pytest.approx(
                r_pure(psi), abs=1e-9
            )

    def test_maximally_mixed_is_zero(self):
        assert r_qubit_analytic(bloch_to_density([0, 0, 0])) == 0.0

    def test_maximally_coherent_is_one(self):
        rho = maximally_coherent_state(2).projector()
        assert r_qubit_analytic(rho) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_qubit(self):
        with pytest.raises(DimensionNot2):
            r_qubit_analytic(DensityMatrix(np.eye(3, dtype=complex) / 3))


class TestOrderingRelations:
    def test_rel_ent_below_l1_on_qubits(self):
        # On qubits the l1 measure dominates the relative-entropy measure.
        for i in range(50):
            rho = random_density(2, 2, seed=400 + i)
            assert c_rel_ent(rho) <= c_l1(rho) + 1e-10

    def test_analytic_randomness_at_least_rel_ent(self):
        # The convex-roof randomness dominates the relative-entropy measure.
        for i in range(50):
            rho = random_density(2, 1 + i % 2, seed=500 + i)
            assert r_qubit_analytic(rho) >= c_rel_ent(rho) - 1e-9


@st.composite
def state_stacks(draw):
    """An (N, d, d) stack at d = 2..6: seeded random states of every rank,
    mixed with the boundary cases (basis, maximally coherent and maximally
    mixed states)."""
    d = draw(st.integers(2, 6))
    random_state = st.builds(
        lambda rank, s: random_density(d, rank, s).mat,
        st.integers(1, d),
        st.integers(0, 2**32 - 1),
    )
    boundary = st.sampled_from(
        [
            basis_state(d, d - 1).projector().mat,
            maximally_coherent_state(d).projector().mat,
            np.eye(d, dtype=complex) / d,
        ]
    )
    return d, np.stack(draw(st.lists(random_state | boundary, min_size=1, max_size=8)))


class TestStackedRanges:
    @seed(20261018)
    @settings(max_examples=150, deadline=None, database=None)
    @given(state_stacks())
    def test_stacked_matches_single_and_stays_in_range(self, stack):
        d, mats = stack
        singles = [DensityMatrix(m) for m in mats]
        rel, l1 = c_rel_ent_values(mats), c_l1_values(mats)
        # A stack of N runs each matrix through the same arithmetic as a
        # stack of one, so the values agree bit for bit.
        assert rel.tolist() == [c_rel_ent(rho) for rho in singles]
        assert l1.tolist() == [c_l1(rho) for rho in singles]
        assert np.all((rel >= 0.0) & (rel <= math.log2(d) + 1e-12))
        assert np.all((l1 >= 0.0) & (l1 <= d - 1 + 1e-12))
        if d == 2:
            r = r_qubit_analytic_values(mats)
            assert r.tolist() == [r_qubit_analytic(rho) for rho in singles]
            assert np.all((r >= 0.0) & (r <= 1.0))
