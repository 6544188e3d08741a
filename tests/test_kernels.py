"""Numeric kernels against references that do not share their code: central
differences of the roof objective, the analytic qubit roof and the naive
Toeplitz product."""

import math

import numpy as np
import pytest

from cohrand import _kernels, r_qubit_analytic, random_density
from cohrand.roof import _support_eigendecomposition


def support_rows(rho):
    lam, vec = _support_eigendecomposition(rho)
    return (vec * np.sqrt(lam)).T


def random_ensemble(d, seed):
    bt = support_rows(random_density(d, d, seed))
    g = np.random.default_rng(seed + 1)
    w0, _ = np.linalg.qr(g.standard_normal((d * d, d)) + 1j * g.standard_normal((d * d, d)))
    return bt, w0


class TestRoofGradient:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_central_differences(self, d):
        bt, w0 = random_ensemble(d, seed=d)
        psi = w0 @ bt
        A = _kernels._roof_gradient(psi)
        assert np.max(np.abs(A + A.conj().T)) < 1e-14

        def objective(rows):
            return float(_kernels._row_contribs_batch(rows).sum())

        h = 1e-6
        worst = 0.0
        m = psi.shape[0]
        for j in range(m):
            for l in range(j + 1, m):
                # Generator coordinates (g_r, g_i) of the pair j < l: mix
                # the two rows by a real rotation and by an imaginary one.
                for step, expected in (
                    (h, A[l, j].real),
                    (1j * h, -A[l, j].imag),
                ):
                    plus = psi.copy()
                    plus[j] += step * psi[l]
                    plus[l] -= np.conj(step) * psi[j]
                    minus = psi.copy()
                    minus[j] -= step * psi[l]
                    minus[l] += np.conj(step) * psi[j]
                    fd = (objective(plus) - objective(minus)) / (2.0 * h)
                    worst = max(worst, abs(fd - expected))
        assert worst < 1e-8

    def test_vanishes_on_zero_amplitudes(self):
        # An incoherent ensemble is a stationary point; vanishing entries
        # contribute their q -> 0 limit, not a NaN.
        psi = np.array([[0.6, 0.0], [0.0, 0.8]], dtype=complex)
        assert np.max(np.abs(_kernels._roof_gradient(psi))) == 0.0


class TestRoofDescent:
    @pytest.mark.parametrize("seed", [0, 5, 9])
    def test_reaches_analytic_qubit_value(self, seed):
        rho = random_density(2, 2, seed)
        bt, w0 = random_ensemble(2, seed)
        value, w, converged = _kernels.roof_descent(bt, w0, 2000, 1e-8 * math.log(2.0))
        assert converged
        assert value == pytest.approx(r_qubit_analytic(rho), abs=1e-6)
        assert np.max(np.abs(w.conj().T @ w - np.eye(2))) < 1e-10


class TestQubitGrid:
    def test_brackets_analytic_value(self):
        # A grid minimum can only overshoot the true minimum, and the
        # overshoot shrinks with the grid spacing.
        rho = random_density(2, 2, 2)
        b = support_rows(rho)
        exact = r_qubit_analytic(rho)
        coarse = _kernels.qubit_grid_min(b[0, 0], b[0, 1], b[1, 0], b[1, 1], 24)
        fine = _kernels.qubit_grid_min(b[0, 0], b[0, 1], b[1, 0], b[1, 1], 96)
        assert exact - 1e-9 <= fine <= coarse
        assert fine == pytest.approx(exact, abs=1e-3)


class TestToeplitzBackends:
    """The FFT product, the one path the hash takes, against the naive
    product."""

    @staticmethod
    def naive(diag, x, out_len):
        n = len(x)
        t = np.array([[diag[i - j + n - 1] for j in range(n)] for i in range(out_len)])
        return ((t @ x) % 2).astype(np.uint8)

    @pytest.mark.parametrize("in_len,out_len", [(10, 4), (64, 64), (100, 63), (257, 129)])
    def test_all_paths_agree(self, in_len, out_len):
        rng = np.random.default_rng(in_len * 1000 + out_len)
        diag = rng.integers(0, 2, size=out_len + in_len - 1, dtype=np.uint8)
        x = rng.integers(0, 2, size=in_len, dtype=np.uint8)
        assert np.array_equal(_kernels.toeplitz_gf2(diag, x, out_len), self.naive(diag, x, out_len))
