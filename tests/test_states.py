"""State types, validation errors, entropies, and Bloch conversions."""

import math

import numpy as np
import pytest

from cohrand import (
    DensityMatrix,
    basis_state,
    bloch_to_density,
    dephase,
    density_to_bloch,
    haar_random_pure,
    maximally_coherent_state,
    pure_state,
    random_density,
    shannon_entropy,
    tensor,
    validate_density,
    von_neumann_entropy,
)
from cohrand.errors import DimensionNot2, NotFinite, NotHermitian, NotPSD, TraceNotOne
from cohrand.states import validate_densities


class TestValidateDensity:
    def test_accepts_valid(self):
        rho = validate_density(np.eye(2) / 2)
        assert isinstance(rho, DensityMatrix)
        assert rho.dim == 2

    def test_not_hermitian(self):
        m = np.array([[0.5, 0.3], [0.1, 0.5]], dtype=complex)
        with pytest.raises(NotHermitian):
            validate_density(m)

    def test_trace_not_one(self):
        with pytest.raises(TraceNotOne):
            validate_density(np.eye(2))

    def test_not_psd(self):
        m = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(NotPSD):
            validate_density(m)

    def test_not_square(self):
        with pytest.raises(ValueError):
            validate_density(np.zeros((2, 3)))

    def test_tolerance_is_respected(self):
        m = np.eye(2, dtype=complex) / 2
        m[0, 1] = 1e-12  # breaks Hermiticity below the default tolerance
        validate_density(m)
        with pytest.raises(NotHermitian):
            validate_density(m, tol=1e-14)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, bad):
        # NaN fails every tolerance comparison, so it needs its own check.
        m = np.diag([bad, 1.0]).astype(complex)
        with pytest.raises(NotFinite):
            validate_density(m)
        m = np.eye(2, dtype=complex) / 2
        m[0, 1] = m[1, 0] = complex(0.0, bad)
        with pytest.raises(NotFinite):
            validate_density(m)

    @pytest.mark.parametrize(
        "order, error",
        [
            (("psd", "nan", "herm"), NotPSD),
            (("nan", "psd", "herm"), NotFinite),
            (("herm", "nan", "trace"), NotHermitian),
            (("trace", "psd", "nan"), TraceNotOne),
        ],
    )
    def test_stack_reports_its_first_failing_matrix(self, order, error):
        bad = {
            "nan": np.diag([math.nan, 1.0]),
            "herm": np.array([[0.5, 0.3], [0.0, 0.5]]),
            "trace": np.diag([0.6, 0.6]),
            "psd": np.diag([1.2, -0.2]),
        }
        good = np.eye(2) / 2
        with pytest.raises(error):
            validate_densities(np.stack([good, *(bad[k] for k in order), good]))
        assert validate_densities(np.stack([good, good])).shape == (2, 2, 2)


class TestPureState:
    def test_norm_enforced(self):
        with pytest.raises(ValueError):
            pure_state([1.0, 1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(NotFinite):
            pure_state([bad, 1.0])
        with pytest.raises(NotFinite):
            pure_state([complex(1.0, bad), 0.0])

    def test_projector_is_valid_density(self):
        psi = pure_state([0.6, 0.8j])
        rho = psi.projector()
        validate_density(rho.mat)
        assert np.isclose(rho.mat[0, 0].real, 0.36)

    def test_probabilities(self):
        psi = pure_state([0.6, 0.8])
        assert np.allclose(psi.probabilities(), [0.36, 0.64])

    def test_basis_state(self):
        e1 = basis_state(3, 1)
        assert np.allclose(e1.amps, [0, 1, 0])

    def test_maximally_coherent(self):
        psi = maximally_coherent_state(4)
        assert np.allclose(psi.probabilities(), 0.25)

    def test_tensor(self):
        ab = tensor(basis_state(2, 1), basis_state(2, 0))
        assert np.allclose(ab.amps, [0, 0, 1, 0])


class TestEntropies:
    def test_von_neumann_of_maximally_mixed(self):
        assert von_neumann_entropy(DensityMatrix(np.eye(4, dtype=complex) / 4)) == pytest.approx(
            2.0
        )

    def test_von_neumann_of_pure_is_zero(self):
        psi = haar_random_pure(5, 7)
        assert von_neumann_entropy(psi.projector()) == pytest.approx(0.0, abs=1e-12)

    def test_shannon_fair_coin(self):
        assert shannon_entropy([0.5, 0.5]) == pytest.approx(1.0)

    def test_shannon_rejects_bad_distribution(self):
        with pytest.raises(ValueError):
            shannon_entropy([0.7, 0.7])
        with pytest.raises(ValueError):
            shannon_entropy([1.2, -0.2])

    def test_shannon_zero_convention(self):
        assert shannon_entropy([1.0, 0.0, 0.0]) == 0.0


class TestBloch:
    def test_round_trip(self):
        n = [0.3, -0.4, 0.2]
        assert np.allclose(density_to_bloch(bloch_to_density(n)), n)

    def test_center_is_maximally_mixed(self):
        rho = bloch_to_density([0, 0, 0])
        assert np.allclose(rho.mat, np.eye(2) / 2)

    def test_rejects_outside_sphere(self):
        with pytest.raises(ValueError):
            bloch_to_density([1.0, 1.0, 0.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(NotFinite):
            bloch_to_density([0.0, bad, 0.0])

    def test_rejects_non_qubit(self):
        with pytest.raises(DimensionNot2):
            density_to_bloch(DensityMatrix(np.eye(3, dtype=complex) / 3))


class TestRandomStates:
    def test_random_density_is_valid(self):
        for d in (2, 3, 5):
            rho = random_density(d, d, seed=d)
            validate_density(rho.mat)

    def test_random_density_rank(self):
        rho = random_density(4, 2, seed=0)
        lam = np.linalg.eigvalsh(rho.mat)
        assert np.sum(lam > 1e-10) == 2

    def test_random_density_rank_bounds(self):
        with pytest.raises(ValueError):
            random_density(3, 4, seed=0)

    def test_seed_determinism(self):
        a = random_density(3, 3, seed=9)
        b = random_density(3, 3, seed=9)
        assert np.array_equal(a.mat, b.mat)

    def test_haar_random_pure_unit_norm(self):
        psi = haar_random_pure(6, 3)
        assert np.isclose(np.sum(np.abs(psi.amps) ** 2), 1.0)


class TestDephase:
    def test_removes_off_diagonals(self):
        rho = maximally_coherent_state(3).projector()
        d = dephase(rho)
        assert np.allclose(d.mat, np.eye(3) / 3)
