"""Numeric kernels against references that do not share their code: central
differences of the roof objective, the analytic qubit roof and the naive
Toeplitz product."""

import math

import numpy as np
import pytest

from cohrand import DensityMatrix, _kernels, r_qubit_analytic, random_density
from cohrand.roof import _support_rows as support_rows


def random_ensemble(d, seed):
    bt = support_rows(random_density(d, d, seed))
    g = np.random.default_rng(seed + 1)
    w0, _ = np.linalg.qr(g.standard_normal((d * d, d)) + 1j * g.standard_normal((d * d, d)))
    return bt, w0


def objective(psi):
    """The roof objective of each ensemble of psi, in nats."""
    return _kernels._entropy_terms(psi)[0]


def generator(psi):
    """The gradient generators of each ensemble of psi."""
    return _kernels._generator(psi, *_kernels._entropy_terms(psi)[1:])


class TestRoofGradient:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_central_differences(self, d):
        # A stack of three ensembles: each slice's generator must match
        # central differences of that slice's objective.
        psi = np.stack([w0 @ bt for bt, w0 in (random_ensemble(d, seed=d + k) for k in range(3))])
        A = generator(psi)
        assert np.max(np.abs(A + A.conj().swapaxes(-1, -2))) < 1e-14

        h = 1e-6
        worst = 0.0
        m = psi.shape[1]
        for psi_k, A_k in zip(psi, A):
            for j in range(m):
                for l in range(j + 1, m):
                    # Generator coordinates (g_r, g_i) of the pair j < l: mix
                    # the two rows by a real rotation and by an imaginary one.
                    for step, expected in (
                        (h, A_k[l, j].real),
                        (1j * h, -A_k[l, j].imag),
                    ):
                        plus = psi_k.copy()
                        plus[j] += step * psi_k[l]
                        plus[l] -= np.conj(step) * psi_k[j]
                        minus = psi_k.copy()
                        minus[j] -= step * psi_k[l]
                        minus[l] += np.conj(step) * psi_k[j]
                        fd = (objective(plus) - objective(minus)) / (2.0 * h)
                        worst = max(worst, abs(fd - expected))
        assert worst < 1e-8

    def test_vanishes_on_zero_amplitudes(self):
        # An incoherent ensemble is a stationary point; vanishing entries
        # contribute their q -> 0 limit, not a NaN.
        psi = np.array([[0.6, 0.0], [0.0, 0.8]], dtype=complex)
        assert np.max(np.abs(generator(psi))) == 0.0


TOL_NATS = 1e-8 * math.log(2.0)


def assert_batch_matches_single_restarts(psi0, max_iter):
    """Descending a stack must give, bit for bit, the best (lowest value,
    then lowest index) of descending each restart alone, for the whole
    stack and for every stack that leaves one restart out. Returns the
    single-restart results."""
    n = len(psi0)
    singles = [_kernels.roof_descent(psi0[i : i + 1], max_iter, TOL_NATS) for i in range(n)]
    subsets = [list(range(n))]
    subsets += [[i for i in range(n) if i != out] for out in range(n)]
    for subset in subsets:
        value, psi, converged = _kernels.roof_descent(psi0[subset], max_iter, TOL_NATS)
        best_value, best_psi, best_converged = min((singles[i] for i in subset), key=lambda s: s[0])
        assert value == best_value
        assert np.array_equal(psi, best_psi)
        assert converged == best_converged
    return singles


class TestRoofDescent:
    @pytest.mark.parametrize("seed", [0, 5, 9])
    def test_reaches_analytic_qubit_value(self, seed):
        rho = random_density(2, 2, seed)
        bt, w0 = random_ensemble(2, seed)
        psi0 = w0 @ bt
        value, psi, converged = _kernels.roof_descent(psi0[None], 2000, 1e-8 * math.log(2.0))
        # perfbench/tracing.py unpacks this (float, ndarray, bool) triple.
        assert type(value) is float and type(converged) is bool
        assert isinstance(psi, np.ndarray) and psi.shape == psi0.shape
        assert converged
        assert value == pytest.approx(r_qubit_analytic(rho), abs=1e-6)
        assert np.max(np.abs(psi.T @ psi.conj() - rho.mat)) < 1e-10

    @staticmethod
    def random_stack(d, n, seed):
        g = np.random.default_rng(seed)
        shape = (n, d * d, d)
        w0, _ = np.linalg.qr(g.standard_normal(shape) + 1j * g.standard_normal(shape))
        return w0

    @pytest.mark.parametrize("d", [2, 3])
    def test_restarts_stay_independent_with_a_stationary_start(self, d):
        # On an incoherent state the incoherent ensemble (the support rows
        # themselves, padded with zero rows) is stationary: it stops at
        # iteration 0 while the random restarts around it keep descending.
        lam = np.arange(1, d + 1) / (d * (d + 1) / 2)
        bt = support_rows(DensityMatrix(np.diag(lam).astype(complex)))
        w0 = self.random_stack(d, 4, seed=d)
        w0[2] = np.eye(d * d, d)
        psi0 = w0 @ bt
        singles = assert_batch_matches_single_restarts(psi0, 300)
        value, psi, converged = singles[2]
        assert value == 0.0 and converged
        assert np.array_equal(psi, psi0[2])

    def test_failed_line_search_stops_without_a_step(self):
        # On an incoherent qubit state a random restart descends to the
        # value 0.0 exactly, where no trial step passes the Armijo test:
        # the line search fails and the restart stops where it stands. So
        # a budget one iteration short of that stop returns the same rows,
        # unconverged. A zero tolerance switches the stall stop off, which
        # would otherwise stop the conjugate-gradient descent first (at
        # 5.5e-14), and the gradient there is above the 1e-22 stop.
        bt = support_rows(DensityMatrix(np.diag([0.25, 0.75]).astype(complex)))
        psi0 = self.random_stack(2, 1, seed=2) @ bt
        lo, hi = 0, 300  # the restart stops within hi iterations, not lo
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if _kernels.roof_descent(psi0, mid, 0.0)[2] else (mid, hi)
        value, psi, converged = _kernels.roof_descent(psi0, hi, 0.0)
        short_value, short_psi, short_converged = _kernels.roof_descent(psi0, lo, 0.0)
        assert converged and not short_converged
        assert value == short_value == 0.0
        assert np.array_equal(psi, short_psi)
        A = generator(psi)
        assert 0.5 * np.sum(np.abs(A) ** 2) > 1e-22

    def test_stays_an_isometry_to_max_iterations(self):
        # Each accepted step multiplies the rows by U diag(phase) U^dag, a
        # unitary applied as two products, so they stay W @ B for an
        # isometry W and still mix to rho. A d = 4 product of qubits that
        # runs its whole budget of them still returns such rows. A zero
        # tolerance switches the stall stop off.
        a, b = (random_density(2, 2, seed=s) for s in (10, 11))
        rho = DensityMatrix(np.kron(a.mat, b.mat))
        psi0 = self.random_stack(4, 4, 11) @ support_rows(rho)
        value, psi, converged = _kernels.roof_descent(psi0, 300, 0.0)
        assert not converged
        assert np.max(np.abs(psi.T @ psi.conj() - rho.mat)) < 1e-12

    @pytest.mark.parametrize("d,seed,max_iter", [(2, 41, 40), (3, 40, 75)])
    def test_restarts_stay_independent_on_max_iter(self, d, seed, max_iter):
        # A budget between the restarts' own iteration counts (31-47 at
        # d = 2, 59-96 at d = 3): some stop on max_iter, unconverged,
        # while the others converge.
        bt = support_rows(random_density(d, d, seed=seed))
        psi0 = self.random_stack(d, 5, seed=seed + 10) @ bt
        singles = assert_batch_matches_single_restarts(psi0, max_iter)
        flags = [converged for _, _, converged in singles]
        assert any(flags) and not all(flags)

    def test_direction_carries_over_and_restarts_every_2m_iterations(self, monkeypatch):
        # Each iteration extends the direction it took last, except every
        # 2m iterations (m = 9 here), where it starts again from the
        # gradient. Both restarts need more than 40 iterations, so none
        # leaves the stack.
        bt = support_rows(random_density(3, 3, seed=40))
        psi0 = self.random_stack(3, 5, seed=50)[[0, 2]] @ bt
        calls = []
        direction = _kernels._conjugate_direction

        def spy(A, gnorm2, H, prev_gnorm2):
            calls.append((H.copy(), *direction(A, gnorm2, H, prev_gnorm2)))
            return calls[-1][1:]

        monkeypatch.setattr(_kernels, "_conjugate_direction", spy)
        assert not _kernels.roof_descent(psi0, 40, TOL_NATS)[2]
        assert len(calls) == 40
        for k, (h_in, _, _) in enumerate(calls):
            if k % 18 == 0:
                assert not h_in.any()
            else:
                assert np.array_equal(h_in, calls[k - 1][1])


class TestConjugateDirection:
    def test_falls_back_to_the_gradient_unless_it_descends(self):
        # Three restarts with one gradient generator A and beta = 1: the
        # previous direction A gives 2A (slope 2|A|^2); -A gives 0 (slope
        # 0) and -2A gives -A (slope -|A|^2), neither a descent direction,
        # so both fall back to A with slope |A|^2.
        bt, w0 = random_ensemble(2, seed=3)
        A = generator(w0 @ bt)
        gnorm2 = 0.5 * np.sum(np.abs(A) ** 2)
        stack = np.stack([A, A, A])
        H, slope = _kernels._conjugate_direction(
            stack, np.full(3, gnorm2), np.stack([A, -A, -2 * A]), np.full(3, gnorm2)
        )
        assert np.array_equal(H[0], 2 * A) and slope[0] == pytest.approx(2 * gnorm2)
        assert np.array_equal(H[1], A) and np.array_equal(H[2], A)
        assert slope[1] == slope[2] == gnorm2


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

    def test_two_angles_reach_the_three_angle_minimum(self):
        # A third angle, a phase b on the whole second output row, moves no
        # |amplitude|^2, so the full three-angle grid has the same minimum.
        b = support_rows(random_density(2, 2, 7))
        n = 16
        a = 0.5 * math.pi * np.arange(n)[:, None, None] / n
        eb = np.exp(2j * math.pi * np.arange(n) / n)[:, None]
        ec = np.exp(2j * math.pi * np.arange(n) / n)
        total = 0.0
        for u0, u1 in ((np.cos(a), -ec * np.sin(a)), (eb * np.sin(a), eb * ec * np.cos(a))):
            q = [np.abs(u0 * b[0, k] + u1 * b[1, k]) ** 2 for k in (0, 1)]
            total = total - sum(x * np.log(x) for x in q) + sum(q) * np.log(sum(q))
        assert total.shape == (n, n, n)
        grid = _kernels.qubit_grid_min(b[0, 0], b[0, 1], b[1, 0], b[1, 1], n)
        assert grid == pytest.approx(total.min() / math.log(2.0), abs=1e-12)


class TestToeplitzBackends:
    """The FFT product, the one path the hash takes, against the naive
    product."""

    @staticmethod
    def naive(diag, x, out_len):
        n = len(x)
        t = np.array([[diag[i - j + n - 1] for j in range(n)] for i in range(out_len)])
        return ((t @ x) % 2).astype(np.uint8)

    # (8, 8) and (9, 9) put L = out_len + in_len - 1 at 15, which is 5-smooth,
    # and at 17, one above the 5-smooth 16; (300, 1) has out_len << in_len.
    # Output lengths 1, in_len - 1, in_len and 3 in_len each come at an odd
    # FFT length n and an even one: n = 27 and 300, 27 and 32, 15 and 18,
    # 27 and 36.
    @pytest.mark.parametrize(
        "in_len,out_len",
        [
            (10, 4),
            (64, 64),
            (100, 63),
            (257, 129),
            (8, 8),
            (9, 9),
            (1, 1),
            (300, 1),
            (27, 1),
            (14, 13),
            (17, 16),
            (7, 21),
            (9, 27),
        ],
    )
    def test_all_paths_agree(self, in_len, out_len):
        rng = np.random.default_rng(in_len * 1000 + out_len)
        diag = rng.integers(0, 2, size=out_len + in_len - 1, dtype=np.uint8)
        x = rng.integers(0, 2, size=in_len, dtype=np.uint8)
        assert np.array_equal(_kernels.toeplitz_gf2(diag, x, out_len), self.naive(diag, x, out_len))

    def test_zero_output_length_is_empty(self):
        out = _kernels.toeplitz_gf2(np.ones(2, dtype=np.uint8), np.ones(3, dtype=np.uint8), 0)
        assert out.dtype == np.uint8 and out.shape == (0,)

    def test_fast_len_is_the_smallest_5_smooth_length(self):
        def smooth(k):
            for p in (2, 3, 5):
                while k % p == 0:
                    k //= p
            return k == 1

        lengths = [k for k in range(1, 5200) if smooth(k)]
        for L in range(1, 5001):
            assert _kernels._fast_len(L) == next(k for k in lengths if k >= L), L
