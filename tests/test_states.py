"""State types, validation errors, entropies, and Bloch conversions."""

import math

import numpy as np
import pytest

from cohrand import (
    DensityMatrix,
    apply_channel,
    bloch_to_density,
    density_to_bloch,
    haar_random_pure,
    maximally_coherent_state,
    projection_partition_kraus,
    pure_state,
    random_density,
    shannon_entropy,
    validate_density,
    von_neumann_entropy,
)
from cohrand.errors import DimensionNot2, NotFinite, NotHermitian, NotPSD, TraceNotOne
from cohrand.states import (
    _complex_normals,
    _seeded_generators,
    random_densities,
    validate_densities,
)


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
            validate_densities(m[None], tol=1e-14)

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
        assert validate_densities(np.stack([good, good]))[0].shape == (2, 2, 2)


class TestPureState:
    def test_norm_enforced(self):
        with pytest.raises(ValueError):
            pure_state([1.0, 1.0])

    def test_norm_error_is_trace_not_one(self):
        # tr|psi><psi| = sum |a_i|^2, so the density check's name fits.
        for amps in ([1.0, 1.0], [0.5, 0.5j], [1e200, 0.0]):
            with pytest.raises(TraceNotOne):
                pure_state(amps)

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

    def test_maximally_coherent(self):
        psi = maximally_coherent_state(4)
        assert np.allclose(psi.probabilities(), 0.25)


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

    def test_shannon_rejects_non_finite_entries(self):
        # NaN fails every tolerance comparison, so without the finiteness
        # check [nan, 0.5, 0.5] read 1.0 and [nan, 1.0] read 0.0.
        for p in ([np.nan, 0.5, 0.5], [np.nan, 1.0], [np.inf, 0.0], [0.5, -np.inf, 0.5]):
            with pytest.raises(NotFinite):
                shannon_entropy(p)

    def test_shannon_zero_convention(self):
        assert shannon_entropy([1.0, 0.0, 0.0]) == 0.0

    def test_shannon_of_a_certain_outcome_is_positive_zero(self):
        # H = 0 on an incoherent state's distribution must print as 0.0.
        assert math.copysign(1, shannon_entropy([1.0, 0.0])) == 1


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
        for rank in (0, 4):
            with pytest.raises(ValueError, match=r"rank must be in \[1, 3\], got"):
                random_density(3, rank, seed=0)
            with pytest.raises(ValueError, match=r"rank must be in \[1, 3\], got"):
                random_densities(3, [2, rank], [0, 1])

    def test_seed_determinism(self):
        a = random_density(3, 3, seed=9)
        b = random_density(3, 3, seed=9)
        assert np.array_equal(a.mat, b.mat)

    @pytest.mark.parametrize("d", range(2, 7))
    def test_stacked_draws_are_the_per_seed_formula(self, d):
        # Ranks cycle through 1..d, so one stack mixes every rank and is
        # split by rank inside; 50 seeds per rank.
        seeds = 1000 * d + np.arange(50 * d)
        ranks = 1 + seeds % d
        stack = random_densities(d, ranks, seeds)
        assert stack.shape == (50 * d, d, d)
        for rho, rank, seed in zip(stack, ranks.tolist(), seeds.tolist()):
            rng = np.random.default_rng(seed)
            g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
            m = g @ g.conj().T
            expected = m / np.trace(m).real
            assert np.array_equal(rho, expected)
            assert np.array_equal(random_density(d, rank, seed).mat, expected)

    def test_empty_stack(self):
        assert random_densities(3, [], []).shape == (0, 3, 3)

    def test_one_rank_per_seed(self):
        with pytest.raises(ValueError, match="broadcast"):
            random_densities(3, [1, 2], [0, 1, 2])

    @pytest.mark.parametrize("shape", [(5,), (9, 3), (4, 6)], ids=["d", "m-r", "ops-d"])
    def test_complex_normals_are_the_two_call_draw(self, shape):
        # The vector of haar_random_pure, a roof start's (m, r) Gaussian and
        # a channel's (n_ops, d) weights: real parts first, bit for bit.
        g = _complex_normals([np.random.default_rng(s) for s in range(4)], 4, shape)
        assert g.shape == (4, *shape)
        for s, block in enumerate(g):
            rng = np.random.default_rng(s)
            assert np.array_equal(block, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

    def test_complex_normals_take_n_generators_from_an_iterator(self):
        rngs = iter([np.random.default_rng(s) for s in range(5)])
        first = _complex_normals(rngs, 2, (3,))
        rest = _complex_normals(rngs, 3, (3,))
        assert next(rngs, None) is None
        both = _complex_normals([np.random.default_rng(s) for s in range(5)], 5, (3,))
        assert np.array_equal(np.concatenate([first, rest]), both)

    def test_haar_random_pure_unit_norm(self):
        psi = haar_random_pure(6, 3)
        assert np.isclose(np.sum(np.abs(psi.amps) ** 2), 1.0)


class TestSeededGenerators:
    EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1]

    def seeds(self):
        random = np.random.default_rng(20261018).integers(0, 2**63, 1000, dtype=np.uint64)
        return np.concatenate([np.array(self.EDGE_SEEDS, dtype=np.uint64), random])

    def test_words_are_seed_sequence_state(self):
        seeds = self.seeds()
        for seed, rng in zip(seeds.tolist(), _seeded_generators(seeds), strict=True):
            expected = np.random.SeedSequence(seed).generate_state(4, np.uint64)
            assert np.array_equal(rng.bit_generator.seed_seq.generate_state(4, np.uint64), expected)

    def test_generators_draw_as_default_rng(self):
        seeds = self.seeds()
        for seed, rng in zip(seeds.tolist(), _seeded_generators(seeds), strict=True):
            reference = np.random.default_rng(seed)
            assert rng.bit_generator.state == reference.bit_generator.state
            assert np.array_equal(rng.standard_normal(3), reference.standard_normal(3))
            assert np.array_equal(rng.permutation(5), reference.permutation(5))

    def test_empty_stack(self):
        assert list(_seeded_generators([])) == []
        assert list(_seeded_generators(np.array([], dtype=np.int64))) == []

    def test_reads_a_list_mixing_seeds_below_and_from_2_63(self):
        # numpy stores [0, 2**63] as float64; the list's ints are still seeds.
        mats = random_densities(2, [1, 1], [0, 2**63])
        assert np.array_equal(mats[0], random_density(2, 1, 0).mat)
        assert np.array_equal(mats[1], random_density(2, 1, 2**63).mat)

    @pytest.mark.parametrize(
        "seeds",
        [[-1], [3, -1], np.array([-5]), [2**64], [2**70], [2.0]]
        + [[-1, 2**63], [0, 2**63, 2**64], [0.0, 2**63], np.array([0, 2**63], dtype=float)],
    )
    def test_rejects_seeds_outside_uint64(self, seeds):
        # A cast to uint64 would wrap the negative and oversized seeds
        # without a word; a float is no seed.
        with pytest.raises(ValueError, match="^expected non-negative integer$"):
            _seeded_generators(seeds)
        with pytest.raises(ValueError, match="^expected non-negative integer$"):
            random_densities(2, 1, seeds)


class TestDephase:
    def test_removes_off_diagonals(self):
        # Dephasing is the channel of the basis-state projectors.
        rho = maximally_coherent_state(3).projector()
        d = apply_channel(rho, projection_partition_kraus([[0], [1], [2]]))
        assert np.allclose(d.mat, np.eye(3) / 3)
