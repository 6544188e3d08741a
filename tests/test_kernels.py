"""Numeric kernels against references that do not share their code: central
differences of the roof objective, the analytic qubit roof and the naive
Toeplitz product."""

import math

import numpy as np
import pytest

from cohrand import DensityMatrix, _kernels, r_qubit_analytic, random_density, roof
from cohrand.roof import _support_rows as support_rows


def random_ensemble(d, seed):
    bt = support_rows(random_density(d, d, seed).mat)
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
        bt = support_rows(np.diag(lam).astype(complex))
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
        # would otherwise stop the L-BFGS descent first (at 5.7e-13), and
        # the gradient there is above the 1e-22 stop.
        bt = support_rows(np.diag([0.25, 0.75]).astype(complex))
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
        # Each accepted step multiplies the rows by a Cayley transform, a
        # unitary applied as one solve, so they stay W @ B for an isometry
        # W and still mix to rho. A d = 4 product of qubits that runs its
        # whole budget of them still returns such rows: its restarts stop
        # on a failed line search after 298-373 iterations. A zero
        # tolerance switches the stall stop off.
        a, b = (random_density(2, 2, seed=s) for s in (10, 11))
        rho = DensityMatrix(np.kron(a.mat, b.mat))
        psi0 = self.random_stack(4, 4, 11) @ support_rows(rho.mat)
        value, psi, converged = _kernels.roof_descent(psi0, 250, 0.0)
        assert not converged
        assert np.max(np.abs(psi.T @ psi.conj() - rho.mat)) < 1e-12

    def test_rows_of_a_d6_product_mix_to_rho_over_a_full_budget(self):
        # rho35 (x) (0.6 rho36 (+) 0.4 |2><2|), rho_s = random_density(2, 2, s),
        # has rank 6, so m = 36. Its restart stops on a failed line search
        # after 1328 iterations; over a budget of 1000 Cayley steps the
        # rows still mix to rho.
        b = np.zeros((3, 3), dtype=complex)
        b[:2, :2] = 0.6 * random_density(2, 2, seed=36).mat
        b[2, 2] = 0.4
        rho = np.kron(random_density(2, 2, seed=35).mat, b)
        psi0 = self.random_stack(6, 1, seed=6) @ support_rows(rho)
        value, psi, converged = _kernels.roof_descent(psi0, 1000, 0.0)
        assert not converged
        assert np.max(np.abs(psi.T @ psi.conj() - rho)) < 1e-12

    def test_takes_no_eigendecomposition(self, monkeypatch):
        # Each line-search trial is one batched solve; nothing in the
        # descent diagonalises its direction.
        calls = []
        eigh = np.linalg.eigh

        def spy(*args, **kwargs):
            calls.append(args)
            return eigh(*args, **kwargs)

        rho = random_density(3, 3, seed=3)
        psi0 = self.random_stack(3, 4, seed=3) @ support_rows(rho.mat)
        monkeypatch.setattr(np.linalg, "eigh", spy)
        value, psi, converged = _kernels.roof_descent(psi0, 2000, TOL_NATS)
        assert converged and not calls
        assert np.max(np.abs(psi.T @ psi.conj() - rho.mat)) < 1e-12

    @pytest.mark.parametrize("lowest", [False, True])
    def test_a_nan_trial_fails_the_armijo_test(self, monkeypatch, lowest):
        # Restart 1's trial objectives read NaN while all three restarts
        # are active. A NaN trial must fail the Armijo test, so restart 1
        # never steps: it stops after 60 halvings where it started, with
        # its rows and value, counted as converged, and the other two
        # restarts descend exactly as they would alone. With lowest, its
        # starting value reads -1 nats, so it is the restart returned.
        rho = random_density(2, 2, seed=12)
        psi0 = self.random_stack(2, 3, seed=12) @ support_rows(rho.mat)
        singles = [_kernels.roof_descent(psi0[i : i + 1], 300, TOL_NATS) for i in (0, 2)]
        entropy_terms = _kernels._entropy_terms
        calls = []

        def nan_trials(psi):
            f, *terms = entropy_terms(psi)
            if len(psi) == 3:
                if calls:
                    f[1] = np.nan
                elif lowest:
                    f[1] = -1.0
                calls.append(len(psi))
            return f, *terms

        monkeypatch.setattr(_kernels, "_entropy_terms", nan_trials)
        value, psi, converged = _kernels.roof_descent(psi0, 300, TOL_NATS)
        assert len(calls) > 60  # restart 1 ran out its 60 halvings
        if lowest:
            assert value == -1.0 / _kernels.LN2 and converged
            assert np.array_equal(psi, psi0[1])
        else:
            best_value, best_psi, best_converged = min(singles, key=lambda s: s[0])
            assert value == best_value and converged == best_converged
            assert np.array_equal(psi, best_psi)

    @pytest.mark.parametrize("d,seed,max_iter", [(2, 41, 20), (3, 40, 32)])
    def test_restarts_stay_independent_on_max_iter(self, d, seed, max_iter):
        # A budget between the restarts' own iteration counts (18-30 at
        # d = 2, 30-36 at d = 3): some stop on max_iter, unconverged,
        # while the others converge.
        bt = support_rows(random_density(d, d, seed=seed).mat)
        psi0 = self.random_stack(d, 5, seed=seed + 10) @ bt
        singles = assert_batch_matches_single_restarts(psi0, max_iter)
        flags = [converged for _, _, converged in singles]
        assert any(flags) and not all(flags)


class TestWeightScaling:
    """A block of rho enters the descent unnormalized, its rows carrying
    the square root of its trace w. The objective and its gradient scale
    linearly in w; the descent does not quite, since its first direction,
    before it holds an L-BFGS pair, is the raw gradient."""

    @staticmethod
    def stack(d, seed):
        bt = support_rows(random_density(d, d, 60 + seed + 10 * d).mat)
        g = np.random.default_rng(seed)
        shape = (4, d * d, d)
        return np.linalg.qr(g.standard_normal(shape) + 1j * g.standard_normal(shape))[0] @ bt

    @pytest.mark.parametrize("w", [0.3, 1e-3])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_objective_and_generator_scale_linearly(self, d, w):
        # sum_e p_e = sum_ei q_ei, so the ln w terms of sum p ln p and
        # sum q ln q cancel; ln p - ln q, and so the generator's D, is
        # unchanged, and M = psi (D o psi)^dag gains the factor w.
        psi = self.stack(d, seed=d)
        f, A = objective(psi), generator(psi)
        f_w, A_w = objective(np.sqrt(w) * psi), generator(np.sqrt(w) * psi)
        assert np.max(np.abs(f_w - w * f) / (w * f)) <= 1e-12
        assert np.max(np.abs(A_w - w * A)) <= 1e-12 * np.max(np.abs(w * A))

    @pytest.mark.parametrize("w", [0.3, 1e-3])
    @pytest.mark.parametrize("d", [2, 3])
    def test_descent_from_scaled_starts(self, d, w):
        # The best restart lands within TOLERANCE_BITS of w times the
        # unscaled descent's value.
        tol_nats = roof.TOLERANCE_BITS * _kernels.LN2
        psi0 = self.stack(d, seed=0)
        value, _, converged = _kernels.roof_descent(psi0, roof.MAX_ITERATIONS, tol_nats)
        value_w, psi_w, converged_w = _kernels.roof_descent(
            np.sqrt(w) * psi0, roof.MAX_ITERATIONS, tol_nats
        )
        assert converged and converged_w
        assert abs(value_w - w * value) <= roof.TOLERANCE_BITS
        assert np.max(np.abs(psi_w.T @ psi_w.conj() - w * (psi0[0].T @ psi0[0].conj()))) < 1e-12

    def test_a_small_trace_crawls_until_rescaled(self):
        # Restart 0 of this d = 2 stack converges in about 50 iterations.
        # At trace 1e-3 its steps start 1000x shorter and its curvature
        # pairs are never stored, so it crawls through a budget of 300
        # (to all 2000, measured). Scaled by the power of two that
        # optimize_roof applies, 2^5, its trace is 1.024 and it converges.
        tol_nats = roof.TOLERANCE_BITS * _kernels.LN2
        psi0 = self.stack(2, seed=1)[:1]
        value, _, converged = _kernels.roof_descent(psi0, 300, tol_nats)
        assert converged
        small = np.sqrt(1e-3) * psi0
        assert not _kernels.roof_descent(small, 300, tol_nats)[2]
        value_s, _, converged_s = _kernels.roof_descent(small * 2.0**5, 300, tol_nats)
        assert converged_s
        assert abs(value_s / 1.024 - value) <= roof.TOLERANCE_BITS


class TestCayley:
    @pytest.mark.parametrize("d,seed", [(2, 3), (3, 5), (4, 2)])
    def test_agrees_with_the_exponential_to_second_order(self, d, seed):
        # The Cayley step I + tH + t^2 H^2 / 2 + t^3 H^3 / 4 + ... and
        # exp(tH) differ by t^3 H^3 / 12 + O(t^4), so the error shrinks
        # about 8x each time t halves, from t = 1 (|H| is about 0.5 here).
        # Both steps are unitary, so the rows still mix to the same state.
        bt, w0 = random_ensemble(d, seed)
        psi = w0 @ bt
        H = generator(psi)
        t = 0.5 ** np.arange(6)
        stack, Hs = (np.repeat(x[None], len(t), axis=0) for x in (psi, H))
        steps = _kernels._cayley(Hs, Hs @ stack, stack, t, np.eye(len(H)))
        w, U = np.linalg.eigh(1j * H)
        exact = [U @ (np.exp(-1j * s * w)[:, None] * (U.conj().T @ psi)) for s in t]
        errors = np.array([np.max(np.abs(a - b)) for a, b in zip(steps, exact)])
        ratios = errors[:-1] / errors[1:]
        assert np.all((ratios > 7.5) & (ratios < 8.5))
        mixture = psi.T @ psi.conj()
        assert max(np.max(np.abs(a.T @ a.conj() - mixture)) for a in steps) < 1e-14


def memory(n, m):
    """An empty slot-major L-BFGS memory for n restarts of m x m generators."""
    S, Y = np.zeros((2, _kernels.MEMORY, n, 2 * m * m))
    return S, Y, np.zeros((_kernels.MEMORY, n)), np.ones(n)


class TestLbfgsDirection:
    @staticmethod
    def gradient(seed):
        bt, w0 = random_ensemble(2, seed=seed)
        A = generator((w0 @ bt)[None])
        return A, 0.5 * np.sum(np.abs(A) ** 2, axis=(1, 2))

    def test_is_the_gradient_with_no_stored_pair(self):
        A, gnorm2 = self.gradient(seed=3)
        H, slope = _kernels._lbfgs_direction(A, gnorm2, *memory(1, 4))
        assert np.array_equal(H, A)
        assert slope[0] == pytest.approx(gnorm2[0], rel=1e-15)

    def test_matches_the_dense_bfgs_update(self):
        # The two-loop recursion against the inverse-Hessian BFGS update
        # written out as matrices, over the 2 m^2 real coordinates:
        # H <- (I - rho s y^T) H (I - rho y s^T) + rho s s^T, oldest pair
        # first, from H = gamma I of the newest pair.
        A, gnorm2 = self.gradient(seed=3)
        a = _kernels._real(A)[0]
        g = np.random.default_rng(8)
        mem = memory(1, 4)
        pairs = []
        for _ in range(_kernels.MEMORY):
            s = a * g.standard_normal(a.size)
            y = s * np.exp(g.standard_normal(a.size))  # <s, y> > 0
            pairs.append((s, y))
            as_gen = [v.view(np.complex128).reshape(A.shape) for v in (s, y)]
            _kernels._remember(*mem, *as_gen, np.array([True]))
        s, y = pairs[-1]
        H_inv = (s @ y) / (y @ y) * np.eye(a.size)
        for s, y in pairs:
            rho = 1.0 / (s @ y)
            V = np.eye(a.size) - rho * np.outer(y, s)
            H_inv = V.T @ H_inv @ V + rho * np.outer(s, s)
        H, slope = _kernels._lbfgs_direction(A, gnorm2, *mem)
        expected = H_inv @ a
        error = np.max(np.abs(_kernels._real(H)[0] - expected))
        assert error < 1e-12 * np.max(np.abs(expected))
        assert slope[0] == pytest.approx(0.5 * a @ expected, rel=1e-12)

    def test_falls_back_to_the_gradient_unless_it_descends(self):
        # With no pair the direction is gamma A. Three restarts of one
        # stack with gamma = -1, 0 and 1 give the directions -A (slope
        # -|A|^2 / 2), 0 (slope 0) and A: the first two do not descend, so
        # they fall back to A with slope |A|^2 / 2.
        A, gnorm2 = self.gradient(seed=3)
        stack = np.concatenate([A, A, A])
        S, Y, rho, _ = memory(3, 4)
        H, slope = _kernels._lbfgs_direction(
            stack, np.repeat(gnorm2, 3), S, Y, rho, np.array([-1.0, 0.0, 1.0])
        )
        assert all(np.array_equal(h, A[0]) for h in H)
        assert slope[0] == slope[1] == gnorm2[0]
        assert slope[2] == pytest.approx(gnorm2[0], rel=1e-15)


class TestRemember:
    def test_stores_only_steps_that_moved_with_positive_curvature(self):
        # Four restarts, each offered the step s = A: one that did not
        # move, one with <s, y> < 0, one with <s, y> = 0, and one that is
        # stored, with rho = 1 / <s, y> and gamma = <s, y> / <y, y>.
        A, gnorm2 = TestLbfgsDirection.gradient(seed=4)
        s = np.concatenate([A, A, A, A])
        y = np.concatenate([2 * A, -A, 0 * A, 2 * A])
        S, Y, rho, gamma = mem = memory(4, 4)
        _kernels._remember(*mem, s, y, np.array([False, True, True, True]))
        assert not S[:, :3].any() and not Y[:, :3].any() and not rho[:, :3].any()
        assert np.array_equal(gamma[:3], np.ones(3))
        assert np.array_equal(S[0, 3], _kernels._real(s)[3])
        assert np.array_equal(Y[0, 3], _kernels._real(y)[3])
        assert rho[0, 3] == pytest.approx(1.0 / (4.0 * gnorm2[0]), rel=1e-14)
        assert gamma[3] == pytest.approx(0.5, rel=1e-14)
        assert not S[1:, 3].any() and not rho[1:, 3].any()

    def test_keeps_the_last_pairs_newest_first(self):
        # After MEMORY + 1 pairs (k A, A), k = 1, 2, ..., the first has
        # dropped out and the last is in front.
        A = TestLbfgsDirection.gradient(seed=6)[0]
        S, Y, rho, gamma = mem = memory(1, 4)
        for k in range(1, _kernels.MEMORY + 2):
            _kernels._remember(*mem, k * A, A, np.array([True]))
        a = _kernels._real(A)[0]
        assert S[:, 0] @ a / (a @ a) == pytest.approx([5, 4, 3, 2], rel=1e-14)

    def test_unmasked_and_masked_push_leave_the_same_memory(self):
        # Restarts 0 and 2 of a stack of three are offered MEMORY + 1 pairs
        # while restart 1 never moves, so every push is masked; the same
        # pairs offered to a stack of the two alone take the unmasked push
        # S[1:] = S[:-1]. Both leave the two restarts the same memory, and
        # restart 1's stays empty.
        A = TestLbfgsDirection.gradient(seed=6)[0]
        masked, unmasked = memory(3, 4), memory(2, 4)
        for k in range(1, _kernels.MEMORY + 2):
            s, y = np.concatenate([k * A, A, -k * A]), np.concatenate([A, A, -3 * A])
            _kernels._remember(*masked, s, y, np.array([True, False, True]))
            _kernels._remember(*unmasked, s[[0, 2]], y[[0, 2]], np.array([True, True]))
        for m_, u_ in zip(masked[:3], unmasked[:3]):
            assert np.array_equal(m_[:, [0, 2]], u_)
            assert not m_[:, 1].any()
        assert unmasked[2].all()  # every slot is filled
        assert np.array_equal(masked[3][[0, 2]], unmasked[3]) and masked[3][1] == 1.0


class TestQubitGrid:
    def test_brackets_analytic_value(self):
        # A grid minimum can only overshoot the true minimum, and the
        # overshoot shrinks with the grid spacing.
        rho = random_density(2, 2, 2)
        b = support_rows(rho.mat)
        exact = r_qubit_analytic(rho)
        coarse = _kernels.qubit_grid_min(b, 24)
        fine = _kernels.qubit_grid_min(b, 96)
        assert exact - 1e-9 <= fine <= coarse
        assert fine == pytest.approx(exact, abs=1e-3)

    def test_two_angles_reach_the_three_angle_minimum(self):
        # A third angle, a phase b on the whole second output row, moves no
        # |amplitude|^2, so the full three-angle grid has the same minimum.
        b = support_rows(random_density(2, 2, 7).mat)
        n = 16
        a = 0.5 * math.pi * np.arange(n)[:, None, None] / n
        eb = np.exp(2j * math.pi * np.arange(n) / n)[:, None]
        ec = np.exp(2j * math.pi * np.arange(n) / n)
        total = 0.0
        for u0, u1 in ((np.cos(a), -ec * np.sin(a)), (eb * np.sin(a), eb * ec * np.cos(a))):
            q = [np.abs(u0 * b[0, k] + u1 * b[1, k]) ** 2 for k in (0, 1)]
            total = total - sum(x * np.log(x) for x in q) + sum(q) * np.log(sum(q))
        assert total.shape == (n, n, n)
        grid = _kernels.qubit_grid_min(b, n)
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
