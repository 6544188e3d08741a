"""Convex-roof optimizer against the analytic qubit value and an
independent brute-force oracle, and the two-copy regularized estimate."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohrand import (
    RoofConfig,
    _kernels,
    brute_force_roof_qubit,
    c_rel_ent,
    decomposition_from_isometry,
    haar_random_pure,
    maximally_coherent_state,
    optimize_roof,
    pure_state,
    r_pure,
    r_qubit_analytic,
    random_density,
    regularized_roof_estimate,
    roof_objective,
    validate_density,
)
from cohrand import roof
from cohrand.errors import DimensionNot2, NotIsometry, RankMismatch, TooLarge
from cohrand.roof import _blocks, _ensemble, _support_rows
from cohrand.states import DensityMatrix, PureState


def qubit(seed):
    """The rank-2 qubit random_density(2, 2, seed) as a matrix, with its
    analytic roof value."""
    rho = random_density(2, 2, seed=seed)
    return rho.mat, r_qubit_analytic(rho)


BASIS_BLOCK = (np.ones((1, 1), dtype=complex), 0.0)  # |k><k|, of value 0


def direct_sum(*parts):
    """(+)_k p_k sigma_k from parts (p_k, (sigma_k, R(sigma_k))), with its
    value sum_k p_k R(sigma_k)."""
    d = sum(len(sigma) for _, (sigma, _) in parts)
    mat = np.zeros((d, d), dtype=complex)
    start = 0
    for p, (sigma, _) in parts:
        stop = start + len(sigma)
        mat[start:stop, start:stop] = p * sigma
        start = stop
    return mat, sum(p * value for p, (_, value) in parts)


def unsplit_starts(rho, config):
    """The descent's starts on the whole of rho, drawn as optimize_roof
    draws them for a rho of one block: the QR of each restart's seeded
    Gaussian, stacked, times rho's support rows."""
    b = _support_rows(rho.mat)
    r = b.shape[0]
    g = np.empty((config.restarts, r * r, r), dtype=complex)
    for i, child in enumerate(np.random.SeedSequence(config.seed).spawn(config.restarts)):
        rng = np.random.default_rng(child)
        g[i] = rng.standard_normal((r * r, r)) + 1j * rng.standard_normal((r * r, r))
    return np.linalg.qr(g)[0] @ b


# p sigma (+) (1 - p)|2><2| for (p, sigma seed, sigma rank): the four
# block inputs of the benchmark's qudit panel.
QUDIT_BLOCKS = ((0.7, 20, 2), (0.5, 21, 2), (0.3, 22, 2), (0.6, 23, 1))
QUDIT_BLOCK_CASES = [f"block {s}" for _, s, _ in QUDIT_BLOCKS]
# (a seed, b seed): products of rank-2 qubits, the panel's one-block inputs.
QUDIT_PRODUCTS = ((12, 13), (14, 15), (10, 11))
QUDIT_CONFIG = RoofConfig(restarts=4, seed=0)


def qudit_block(p, sigma_seed, sigma_rank):
    sigma = random_density(2, sigma_rank, seed=sigma_seed)
    return direct_sum((p, (sigma.mat, r_qubit_analytic(sigma))), (1.0 - p, BASIS_BLOCK))


def split_input(case):
    """A block-diagonal input by name, "block <sigma seed>" or a d = 5, 6
    case, with its exact value."""
    for p, s, rank in QUDIT_BLOCKS:
        if case == f"block {s}":
            return qudit_block(p, s, rank)
    return sums_in_dimensions_five_and_six(case)


# The ranks of each split input's blocks.
BLOCK_RANKS = {
    "block 20": (2, 1),
    "block 21": (2, 1),
    "block 22": (2, 1),
    "block 23": (1, 1),
    "d5 sum": (2, 2, 1),
    "d6 sum": (2, 2, 2),
    "d6 product": (4, 2),
}


def sums_in_dimensions_five_and_six(case):
    """The d = 5, 6 inputs with exact values, built from rank-2 qubits
    rho_s = random_density(2, 2, s). All three are block-diagonal: blocks
    {0,1}, {2,3}, {4}; {0,1}, {2,3}, {4,5}; and {0,1,3,4}, {2,5}."""
    if case == "d5 sum":
        return direct_sum((0.4, qubit(30)), (0.4, qubit(31)), (0.2, BASIS_BLOCK))
    if case == "d6 sum":
        return direct_sum((0.3, qubit(32)), (0.3, qubit(33)), (0.4, qubit(34)))
    (a, value_a), (b, value_b) = qubit(35), direct_sum((0.6, qubit(36)), (0.4, BASIS_BLOCK))
    return np.kron(a, b), value_a + value_b


class TestDecompositionFromIsometry:
    def test_identity_isometry_recovers_eigendecomposition(self):
        rho = random_density(3, 3, seed=1)
        decomp = decomposition_from_isometry(rho, np.eye(3, dtype=complex))
        assert decomp.weights.shape == (3,) and decomp.states.shape == (3, 3)
        assert sum(decomp.weights) == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(decomp.mixture() - rho.mat)) < 1e-10

    def test_larger_ensembles_still_mix_back(self):
        rho = random_density(3, 2, seed=2)
        g = np.random.default_rng(0).standard_normal((5, 2)) + 1j * np.random.default_rng(
            1
        ).standard_normal((5, 2))
        w, _ = np.linalg.qr(g)
        decomp = decomposition_from_isometry(rho, w)
        assert np.max(np.abs(decomp.mixture() - rho.mat)) < 1e-10

    def test_zero_row_is_dropped(self):
        # W (m > r) may send an ensemble element to weight 0; it is not kept.
        rho = random_density(3, 2, seed=2)
        w = np.zeros((3, 2), dtype=complex)
        w[0, 0] = w[2, 1] = 1.0
        decomp = decomposition_from_isometry(rho, w)
        assert decomp.weights.shape == (2,) and decomp.states.shape == (2, 3)
        assert np.allclose(np.sum(np.abs(decomp.states) ** 2, axis=1), 1.0)
        assert np.max(np.abs(decomp.mixture() - rho.mat)) < 1e-10

    def test_rejects_non_isometry(self):
        rho = random_density(2, 2, seed=3)
        with pytest.raises(NotIsometry):
            decomposition_from_isometry(rho, np.ones((2, 2), dtype=complex))

    def test_rejects_wrong_rank(self):
        rho = random_density(2, 2, seed=4)
        with pytest.raises(RankMismatch):
            decomposition_from_isometry(rho, np.eye(3, dtype=complex))


class TestRoofObjective:
    def test_matches_weighted_pure_randomness(self):
        rho = random_density(2, 2, seed=5)
        decomp = decomposition_from_isometry(rho, np.eye(2, dtype=complex))
        expected = sum(p * r_pure(PureState(row)) for p, row in zip(decomp.weights, decomp.states))
        assert roof_objective(decomp) == pytest.approx(expected)


class TestOptimizeRoof:
    def test_pure_state_shortcut(self):
        psi = haar_random_pure(3, 6)
        result = optimize_roof(psi.projector())
        assert result.converged
        assert result.restarts_used == 0
        assert result.value == pytest.approx(r_pure(psi), abs=1e-10)

    def test_incoherent_state_is_zero(self):
        rho = DensityMatrix(np.diag([0.2, 0.3, 0.5]).astype(complex))
        result = optimize_roof(rho, RoofConfig(restarts=4))
        assert result.value == pytest.approx(0.0, abs=1e-8)

    def test_matches_analytic_qubit_value(self):
        for i in range(10):
            rho = random_density(2, 2, seed=10 + i)
            result = optimize_roof(rho, RoofConfig(seed=i))
            assert result.value == pytest.approx(
                r_qubit_analytic(rho), abs=1e-6
            ), f"seed {10 + i}"

    def test_frozen_qubit_value(self):
        # Analytic value for random_density(2, 2, 42); the brute-force grid
        # at grid_n=256 lands at 0.663126, i.e. within its resolution.
        rho = random_density(2, 2, 42)
        result = optimize_roof(rho)
        assert result.value == pytest.approx(0.6631242185360504, abs=1e-6)

    def test_decomposition_is_consistent_with_value(self):
        rho = random_density(2, 2, seed=20)
        result = optimize_roof(rho, RoofConfig(restarts=4))
        assert roof_objective(result.best_decomposition) == pytest.approx(result.value)
        assert np.max(np.abs(result.best_decomposition.mixture() - rho.mat)) < 1e-8

    def test_seed_determinism(self):
        rho = random_density(2, 2, seed=21)
        a = optimize_roof(rho, RoofConfig(restarts=4, seed=5))
        b = optimize_roof(rho, RoofConfig(restarts=4, seed=5))
        assert a.value == b.value

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_starts_are_each_restarts_own_qr(self, d, monkeypatch):
        # The restarts' Gaussians go through one stacked QR. Each start must
        # equal, bit for bit, the QR of its own seeded Gaussian alone, at
        # (m, r) = (4, 2), (9, 3) and (16, 4).
        starts = []

        def descent(psi0, max_iter, tol_nats):
            starts.append(psi0)
            return 0.0, psi0[0], True

        monkeypatch.setattr(_kernels, "roof_descent", descent)
        m = d * d
        for seed in range(50):
            rho = random_density(d, d, seed=seed)
            optimize_roof(rho, RoofConfig(seed=seed))
            assert starts[-1].shape == (16, m, d)
            for psi, child in zip(starts[-1], np.random.SeedSequence(seed).spawn(16)):
                rng = np.random.default_rng(child)
                g = rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))
                assert np.array_equal(psi, np.linalg.qr(g)[0] @ _support_rows(rho.mat))

    def test_reports_the_ensemble_the_descent_scored(self, monkeypatch):
        # One eigendecomposition per roof: the descent's rows are the
        # reported ensemble, not rebuilt from an isometry, so the value
        # matches the kernel's own to rounding. On criterion 1's first
        # 40 states.
        support_calls, kernel_values = [], []
        support_rows, descent = roof._support_rows, _kernels.roof_descent

        def count_support_rows(rho):
            support_calls.append(rho)
            return support_rows(rho)

        def record_descent(*args):
            out = descent(*args)
            kernel_values.append(out[0])
            return out

        def no_isometry(*args):
            raise AssertionError("optimize_roof rebuilt its ensemble from an isometry")

        monkeypatch.setattr(roof, "_support_rows", count_support_rows)
        monkeypatch.setattr(_kernels, "roof_descent", record_descent)
        monkeypatch.setattr(roof, "decomposition_from_isometry", no_isometry)
        for i in range(40):
            support_calls.clear()
            kernel_values.clear()
            result = optimize_roof(random_density(2, 1 + i % 2, seed=1000 + i), RoofConfig(seed=i))
            assert len(support_calls) == 1
            # A rank-1 state (even i) is its own ensemble, with no descent.
            assert len(kernel_values) == i % 2
            for kernel_value in kernel_values:
                assert abs(result.value - kernel_value) <= 1e-15

    @pytest.mark.parametrize("d, r", [(3, 1), (3, 2), (3, 3), (4, 4)])
    def test_ensemble_has_at_most_r_squared_members(self, d, r):
        # The ensemble size is fixed at r^2; a rank-1 state is its own
        # one-member ensemble, with no descent run.
        for seed in (22, 23):
            result = optimize_roof(random_density(d, r, seed), RoofConfig(restarts=2))
            members = len(result.best_decomposition.weights)
            assert members <= r * r
            if r == 1:
                assert members == 1 and result.restarts_used == 0

    def test_no_restarts_rejected(self):
        # The batched descent needs at least one restart to stack.
        for restarts in (0, -2):
            with pytest.raises(ValueError):
                optimize_roof(random_density(2, 2, 1), RoofConfig(restarts=restarts))

    @pytest.mark.parametrize("seeds", [(12, 13), (14, 15), (10, 11)])
    def test_exact_value_of_two_qubit_product(self, seeds):
        # The roof is additive (Winter & Yang, PRL 116, 120404 (2016)), so
        # the d = 4 value of a product of qubits is the sum of two analytic
        # qubit values. 10 x 11 is the ill-conditioned one: its descent
        # converges 1.04e-9 above the exact value.
        a, b = (random_density(2, 2, seed=s) for s in seeds)
        rho = DensityMatrix(np.kron(a.mat, b.mat))
        result = optimize_roof(rho, RoofConfig(restarts=4))
        assert result.converged
        exact = r_qubit_analytic(a) + r_qubit_analytic(b)
        assert result.value == pytest.approx(exact, abs=1e-7)

    @pytest.mark.parametrize(
        "p,sigma_seed,sigma_rank,seed",
        [(0.7, 20, 2, 0), (0.5, 21, 2, 1), (0.3, 22, 2, 2), (0.6, 23, 1, 3), (0.9, 24, 2, 4)],
    )
    def test_exact_value_of_qutrit_direct_sum(self, p, sigma_seed, sigma_rank, seed):
        # rho = p sigma (+) (1 - p)|2><2| has the value p R(sigma): the
        # projections onto the blocks {0, 1} and {2} are incoherent, so
        # selective monotonicity gives >=, and mixing sigma's optimal
        # ensemble with |2> gives <=.
        sigma = random_density(2, sigma_rank, seed=sigma_seed)
        mat, exact = direct_sum((p, (sigma.mat, r_qubit_analytic(sigma))), (1.0 - p, BASIS_BLOCK))
        result = optimize_roof(DensityMatrix(mat), RoofConfig(restarts=4, seed=seed))
        assert result.converged
        assert result.value == pytest.approx(exact, abs=1e-7)

    @pytest.mark.parametrize("case", ["d5 sum", "d6 sum", "d6 product"])
    def test_exact_value_in_dimensions_five_and_six(self, case):
        # Direct sums of incoherent blocks and a product, built from rank-2
        # qubits rho_s = random_density(2, 2, s): the value of a direct sum
        # is the weighted sum of its blocks' values (as for the qutrit sums
        # above), and the roof is additive over products.
        if case == "d5 sum":
            mat, exact = direct_sum((0.4, qubit(30)), (0.4, qubit(31)), (0.2, BASIS_BLOCK))
        elif case == "d6 sum":
            mat, exact = direct_sum((0.3, qubit(32)), (0.3, qubit(33)), (0.4, qubit(34)))
        else:
            (a, value_a), (b, value_b) = qubit(35), direct_sum((0.6, qubit(36)), (0.4, BASIS_BLOCK))
            mat, exact = np.kron(a, b), value_a + value_b
        result = optimize_roof(DensityMatrix(mat), RoofConfig(restarts=4))
        assert result.converged
        assert result.value == pytest.approx(exact, abs=1e-7)

    @pytest.mark.parametrize("case", ["d5 sum", "d6 sum", "d6 product"])
    def test_unsplit_descent_in_dimensions_five_and_six(self, case):
        # optimize_roof splits these block-diagonal inputs, so the test
        # above descends blocks of d <= 4. Here the kernel descends the
        # whole d = 5, 6 rho from its unsplit starts, to the same bound.
        mat, exact = sums_in_dimensions_five_and_six(case)
        config = RoofConfig(restarts=4)
        starts = unsplit_starts(DensityMatrix(mat), config)
        assert starts.shape[-1] == len(mat)
        tol_nats = roof.TOLERANCE_BITS * _kernels.LN2
        value, _, converged = _kernels.roof_descent(starts, roof.MAX_ITERATIONS, tol_nats)
        assert converged
        assert value == pytest.approx(exact, abs=1e-7)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_dominates_rel_ent_in_dimension(self, d):
        # The roof value upper-estimates the true minimum, which itself
        # dominates the relative-entropy measure; and it never exceeds the
        # average randomness of the eigendecomposition.
        for i in range(5):
            rho = random_density(d, d, seed=30 + i)
            result = optimize_roof(rho, RoofConfig(restarts=8, seed=i))
            eigen_avg = roof_objective(
                decomposition_from_isometry(rho, np.eye(d, dtype=complex))
            )
            assert c_rel_ent(rho) - 1e-6 <= result.value <= eigen_avg + 1e-9


def criterion_one_qubits():
    return [(random_density(2, 1 + i % 2, seed=1000 + i), RoofConfig(seed=i)) for i in range(200)]


def qudit_products():
    mats = (np.kron(qubit(a)[0], qubit(b)[0]) for a, b in QUDIT_PRODUCTS)
    return [(DensityMatrix(mat), QUDIT_CONFIG) for mat in mats]


def random_panel():
    return [
        (random_density(d, r, 40 + r + 100 * s), RoofConfig(seed=s))
        for d in (3, 4)
        for r in range(1, d + 1)
        for s in (0, 1)
    ]


class TestBlockSplit:
    """R(rho) = sum_k w_k R(rho_k) over the computational-basis blocks of
    rho (Yu, Zhang, Xu & Tong, PRA 94, 060302(R) (2016)): optimize_roof
    gives each bare block P_k rho P_k its own roof, and a rho of one block
    is that one block."""

    def test_blocks_are_the_connected_components_of_the_nonzeros(self):
        chain = np.diag(np.full(5, 0.2)).astype(complex)
        for i in range(3):  # only neighbours linked: 0-1-2-3 is one block
            chain[i, i + 1] = chain[i + 1, i] = 0.05
        assert [list(b) for b in _blocks(chain)] == [[0, 1, 2, 3], [4]]
        chain[3, 4] = chain[4, 3] = 0.05
        assert [list(b) for b in _blocks(chain)] == [[0, 1, 2, 3, 4]]
        assert [list(b) for b in _blocks(np.full((3, 3), 1 / 3, dtype=complex))] == [[0, 1, 2]]
        interleaved = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
        interleaved[0, 2] = interleaved[2, 0] = interleaved[3, 1] = interleaved[1, 3] = 0.1
        assert [list(b) for b in _blocks(interleaved)] == [[0, 2], [1, 3]]
        assert [list(b) for b in _blocks(np.diag([0.5, 0.0, 0.5]))] == [[0], [1], [2]]

    def test_one_sided_entry_links_two_basis_states(self):
        # Validation allows rho_01 = 1e-12 beside rho_10 = 0; both entries
        # must vanish for 0 and 1 to lie in different blocks.
        mat = np.diag([0.5, 0.3, 0.2]).astype(complex)
        mat[0, 1] = 1e-12
        rho = validate_density(mat)
        assert [list(b) for b in _blocks(rho.mat)] == [[0, 1], [2]]
        assert [list(b) for b in _blocks(rho.mat.T)] == [[0, 1], [2]]
        result = optimize_roof(rho, RoofConfig(restarts=2))
        assert np.max(np.abs(result.best_decomposition.mixture() - rho.mat)) <= 1e-12

    def test_only_exact_zeros_split(self):
        # A coherence of 1e-300 links two basis states as any other does.
        mat = np.diag([0.5, 0.5]).astype(complex)
        mat[0, 1] = mat[1, 0] = 1e-300
        assert [list(b) for b in _blocks(mat)] == [[0, 1]]

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_diagonal_state_is_exactly_zero(self, d):
        # Every block is one basis state: one member per nonzero diagonal
        # entry, each a basis vector, and no descent.
        rng = np.random.default_rng(d)
        for r in range(1, d + 1):
            diag = np.zeros(d)
            support = rng.permutation(d)[:r]
            diag[support] = rng.dirichlet(np.ones(r))
            result = optimize_roof(DensityMatrix(np.diag(diag).astype(complex)))
            assert result.value == 0.0
            assert result.converged and result.restarts_used == 0
            decomp = result.best_decomposition
            assert len(decomp.weights) == r
            assert sorted(np.flatnonzero(decomp.states).tolist()) == [
                e * d + i for e, i in enumerate(sorted(support))
            ]

    @pytest.mark.parametrize("case", BLOCK_RANKS)
    def test_split_ensemble_has_one_ensemble_per_block(self, case):
        ranks = BLOCK_RANKS[case]
        mat, _ = split_input(case)
        rho = DensityMatrix(mat)
        result = optimize_roof(rho, QUDIT_CONFIG)
        decomp = result.best_decomposition
        assert len(decomp.weights) == sum(r * r for r in ranks)
        assert np.max(np.abs(decomp.mixture() - rho.mat)) <= 1e-12
        assert result.value == pytest.approx(roof_objective(decomp), abs=1e-15)
        # restarts_used counts the restarts when any block descended.
        assert result.restarts_used == (QUDIT_CONFIG.restarts if max(ranks) > 1 else 0)

    @pytest.mark.parametrize("case", [*QUDIT_BLOCK_CASES, "d5 sum", "d6 sum"])
    def test_exact_value_of_split_inputs(self, case):
        # Descending the blocks alone lands within rounding of exact; the
        # whole rho's descent stopped up to 4.7e-10 above.
        mat, exact = split_input(case)
        result = optimize_roof(DensityMatrix(mat), QUDIT_CONFIG)
        assert result.converged
        assert abs(result.value - exact) <= 1e-12

    def test_converged_is_the_and_over_blocks(self, monkeypatch):
        # d6 sum has three rank-2 blocks, each with its own descent; the
        # second one reports no convergence.
        calls = []
        descent = _kernels.roof_descent

        def second_unconverged(*args):
            value, psi, converged = descent(*args)
            calls.append(args[0].shape)
            return value, psi, converged and len(calls) != 2

        monkeypatch.setattr(_kernels, "roof_descent", second_unconverged)
        mat, _ = sums_in_dimensions_five_and_six("d6 sum")
        result = optimize_roof(DensityMatrix(mat), QUDIT_CONFIG)
        assert calls == [(4, 4, 2)] * 3
        assert not result.converged
        assert result.restarts_used == QUDIT_CONFIG.restarts

    @staticmethod
    @st.composite
    def interleaved_sums(draw):
        """(rho, [(w_k, rho_k)]): block-diagonal rho at d = 3-6 up to a
        random basis permutation, with 2-3 blocks rho_k =
        random_density(d_k, r_k, seed), r_k <= 3, and random weights w_k."""
        d = draw(st.integers(3, 6))
        n = draw(st.integers(2, min(3, d)))
        cuts = sorted(draw(st.lists(st.integers(1, d - 1), min_size=n - 1, max_size=n - 1, unique=True)))
        sizes = np.diff([0, *cuts, d])
        raw = [draw(st.floats(1e-4, 1.0)) for _ in sizes]
        blocks = [
            (x / sum(raw), random_density(k, draw(st.integers(1, min(k, 3))), draw(st.integers(0, 999))))
            for x, k in zip(raw, sizes)
        ]
        mat, _ = direct_sum(*((w, (b.mat, 0.0)) for w, b in blocks))
        perm = np.array(draw(st.permutations(range(d))))
        return DensityMatrix(mat[np.ix_(perm, perm)]), blocks

    def test_interleaved_sum_is_the_weighted_sum_of_its_blocks(self):
        # The split ensemble mixes to rho, and the value is within
        # TOLERANCE_BITS of sum_k w_k R(rho_k), each roof descended alone.
        gaps = []

        @settings(derandomize=True, max_examples=25, deadline=None, database=None)
        @given(self.interleaved_sums())
        def check(case):
            rho, blocks = case
            result = optimize_roof(rho, QUDIT_CONFIG)
            assert result.converged
            assert np.max(np.abs(result.best_decomposition.mixture() - rho.mat)) <= 1e-12
            parts = sum(w * optimize_roof(b, QUDIT_CONFIG).value for w, b in blocks)
            gaps.append(abs(result.value - parts))
            assert gaps[-1] <= roof.TOLERANCE_BITS

        check()
        print(f"largest gap to the sum of block roofs: {max(gaps):.2e} bits")

    def test_negligible_block_adds_no_member(self):
        # The second block's eigenvalues, about 1e-11, are below
        # RANK_THRESHOLD, so it has rank 0, as in rho's own
        # eigendecomposition; normalized, it added 3 members.
        w = 1e-11
        mat, exact = direct_sum((1 - w, qubit(5)), (w, qubit(6)))
        result = optimize_roof(DensityMatrix(mat), QUDIT_CONFIG)
        assert len(result.best_decomposition.weights) == 4
        assert result.converged
        assert abs(result.value - exact) <= 1e-10
        assert np.max(np.abs(result.best_decomposition.mixture() - mat)) <= 1e-10

    @pytest.mark.parametrize("w", [1e-3, 1e-4, 1e-5])
    def test_block_of_small_trace_reaches_its_roof(self, w):
        # (1 - w) rho_{100+s} (+) w rho_{200+s} with one restart: the small
        # block descends at a trace in [1/2, 2]. Descended at trace w, its
        # restart crawls: over s = 0-19, 12 values at w = 1e-4 and 15 at
        # w = 1e-5 stopped more than 1e-8 bits above exact, up to 7.5e-5.
        for s in range(5):
            mat, exact = direct_sum((1 - w, qubit(100 + s)), (w, qubit(200 + s)))
            result = optimize_roof(DensityMatrix(mat), RoofConfig(restarts=1, seed=s))
            assert result.converged
            assert abs(result.value - exact) <= 1e-9, f"s = {s}"

    @pytest.mark.parametrize("panel", [criterion_one_qubits, qudit_products, random_panel])
    def test_one_block_input_takes_the_unsplit_path(self, panel, monkeypatch):
        # None of these inputs has a zero entry. The kernel must run once,
        # on exactly the unsplit starts and settings, and the result must be
        # its rows, value and flag, bit for bit; a rank-1 rho is its own
        # ensemble, with no descent.
        calls = []
        descent = _kernels.roof_descent

        def record(*args):
            calls.append((args, descent(*args)))
            return calls[-1][1]

        monkeypatch.setattr(_kernels, "roof_descent", record)
        for rho, config in panel():
            calls.clear()
            assert np.all(rho.mat != 0)
            result = optimize_roof(rho, config)
            if _support_rows(rho.mat).shape[0] == 1:
                assert calls == [] and result.restarts_used == 0 and result.converged
                expected = _ensemble(rho, _support_rows(rho.mat))
            else:
                [((starts, max_iter, tol_nats), (_, psi, converged))] = calls
                assert np.array_equal(starts, unsplit_starts(rho, config))
                assert max_iter == roof.MAX_ITERATIONS
                assert tol_nats == roof.TOLERANCE_BITS * _kernels.LN2
                assert result.converged == converged
                assert result.restarts_used == config.restarts
                expected = _ensemble(rho, psi)
            decomp = result.best_decomposition
            assert np.array_equal(decomp.weights, expected.weights)
            assert np.array_equal(decomp.states, expected.states)
            assert result.value == roof_objective(expected)


class TestBruteForceOracle:
    def test_agrees_with_analytic(self):
        for i in range(5):
            rho = random_density(2, 2, seed=40 + i)
            assert brute_force_roof_qubit(rho, 96) == pytest.approx(
                r_qubit_analytic(rho), abs=1e-3
            )

    def test_pure_state_short_circuit(self):
        psi = haar_random_pure(2, 41)
        assert brute_force_roof_qubit(psi.projector(), 8) == pytest.approx(
            r_pure(psi), abs=1e-10
        )

    def test_rejects_non_qubit(self):
        with pytest.raises(DimensionNot2):
            brute_force_roof_qubit(DensityMatrix(np.eye(3, dtype=complex) / 3), 8)

    def test_upper_bounds_analytic(self):
        # A grid minimum can only overshoot the true minimum.
        rho = random_density(2, 2, seed=43)
        assert brute_force_roof_qubit(rho, 64) >= r_qubit_analytic(rho) - 1e-9


class TestMaximallyCoherent:
    def test_roof_value_is_log2_d(self):
        for d in (2, 3, 4):
            rho = maximally_coherent_state(d).projector()
            assert optimize_roof(rho).value == pytest.approx(math.log2(d), abs=1e-9)


class TestRegularizedRoof:
    def test_pure_state_additivity(self):
        psi = pure_state([math.sqrt(0.7), math.sqrt(0.3)])
        per_copy = regularized_roof_estimate(psi.projector(), RoofConfig(restarts=4))
        assert per_copy == pytest.approx(r_pure(psi), abs=1e-6)

    def test_two_copy_estimate_equals_single(self):
        # The roof is additive (Winter & Yang, PRL 116, 120404 (2016)), so
        # the two-copy per-copy value equals the single-copy value, not
        # merely stays below it.
        rho = random_density(2, 2, seed=2)
        two = regularized_roof_estimate(rho, RoofConfig(restarts=4, seed=2))
        assert abs(two - r_qubit_analytic(rho)) <= 1e-6

    def test_copies_limited(self):
        with pytest.raises(TooLarge):
            regularized_roof_estimate(random_density(5, 2, seed=4))
