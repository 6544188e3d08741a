"""Measurement sampling, Toeplitz extraction, and the two-path pipeline."""

import math
import tracemalloc

import numpy as np
import pytest

from cohrand import (
    OutcomeStream,
    maximally_coherent_state,
    min_entropy,
    monobit_z,
    pipeline_compare,
    pure_state,
    sample_measurement,
    toeplitz_extract,
)
from cohrand.errors import RateOutOfRange


class TestMonobit:
    def test_balanced(self):
        assert monobit_z(np.array([0, 1, 0, 1])) == 0.0

    def test_all_ones(self):
        assert monobit_z(np.ones(100, dtype=np.uint8)) == pytest.approx(10.0)

    def test_empty(self):
        assert monobit_z(np.array([], dtype=np.uint8)) == 0.0


class TestSampling:
    def test_frequencies_match_born_rule(self):
        psi = pure_state([math.sqrt(0.8), math.sqrt(0.2)])
        stream = sample_measurement(psi, 20_000, seed=0)
        freq = np.mean(stream.symbols)
        # 5 sigma around p=0.2
        assert abs(freq - 0.2) < 5 * math.sqrt(0.2 * 0.8 / 20_000)

    def test_symbols_in_range(self):
        stream = sample_measurement(maximally_coherent_state(4), 1000, seed=1)
        assert stream.symbols.min() >= 0 and stream.symbols.max() <= 3

    def test_seed_determinism(self):
        psi = maximally_coherent_state(2)
        a = sample_measurement(psi, 100, seed=2)
        b = sample_measurement(psi, 100, seed=2)
        assert np.array_equal(a.symbols, b.symbols)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            sample_measurement(maximally_coherent_state(2), 0, seed=0)


class TestEntropies:
    def test_min_entropy(self):
        assert min_entropy([0.5, 0.5]) == pytest.approx(1.0)
        assert min_entropy([0.25, 0.75]) == pytest.approx(-math.log2(0.75))


class TestToeplitzExtract:
    def test_output_length(self):
        stream = OutcomeStream(np.zeros(1000, dtype=np.int64), 2, 0)
        out, report = toeplitz_extract(stream, 0.7, seed=0)
        assert report.output_length == 700
        assert len(out.symbols) == 700

    def test_rate_below_one_output_bit_gives_no_bits(self):
        out, report = toeplitz_extract(OutcomeStream(np.array([1, 0, 1]), 2, 0), 0.2, seed=0)
        assert len(out.symbols) == 0
        assert (report.output_length, report.monobit_z) == (0, 0.0)

    def test_zero_input_gives_zero_output(self):
        stream = OutcomeStream(np.zeros(256, dtype=np.int64), 2, 0)
        out, _ = toeplitz_extract(stream, 0.5, seed=1)
        assert not np.any(out.symbols)

    def test_gf2_linearity(self):
        # The hash is linear over GF(2): T(x xor y) = T(x) xor T(y) when
        # the same seed builds the same matrix.
        rng = np.random.default_rng(4)
        x = rng.integers(0, 2, 500).astype(np.int64)
        y = rng.integers(0, 2, 500).astype(np.int64)
        tx, _ = toeplitz_extract(OutcomeStream(x, 2, 0), 0.6, seed=5)
        ty, _ = toeplitz_extract(OutcomeStream(y, 2, 0), 0.6, seed=5)
        txy, _ = toeplitz_extract(OutcomeStream(x ^ y, 2, 0), 0.6, seed=5)
        assert np.array_equal(txy.symbols, tx.symbols ^ ty.symbols)

    def test_matches_dense_matrix(self):
        # Independent oracle: materialize T[i, j] = diag[i - j + n - 1] and
        # multiply mod 2 directly.
        rng = np.random.default_rng(6)
        n, m = 200, 120
        x = rng.integers(0, 2, n).astype(np.int64)
        out, _ = toeplitz_extract(OutcomeStream(x, 2, 0), m / n, seed=7)
        diag = np.random.default_rng(7).integers(0, 2, size=m + n - 1, dtype=np.uint8)
        t = np.array([[diag[i - j + n - 1] for j in range(n)] for i in range(m)])
        assert np.array_equal(out.symbols, (t @ x) % 2)

    def test_rate_out_of_range(self):
        stream = OutcomeStream(np.zeros(100, dtype=np.int64), 2, 0)
        with pytest.raises(RateOutOfRange):
            toeplitz_extract(stream, 0.0, seed=0)
        with pytest.raises(RateOutOfRange):
            toeplitz_extract(stream, 1.5, seed=0)

    def test_empty_stream_is_a_named_error(self):
        # A named error, not numpy's "negative dimensions are not allowed"
        # from drawing the Toeplitz diagonal.
        with pytest.raises(ValueError, match="empty stream"):
            toeplitz_extract(OutcomeStream(np.array([], dtype=np.int64), 2, 0), 0.5, seed=0)

    @pytest.mark.parametrize("symbols", [[0, 1, 256, 3], [0, 2], [-1, 1]])
    def test_symbols_outside_the_binary_alphabet_are_rejected(self, symbols):
        # Checked before the uint8 cast, under which 256 would hash as 0
        # and 3 as 1.
        stream = OutcomeStream(np.array(symbols), 2, 0)
        with pytest.raises(ValueError, match="binary alphabet"):
            toeplitz_extract(stream, 0.5, seed=0)

    def test_binary_only(self):
        stream = OutcomeStream(np.zeros(100, dtype=np.int64), 3, 0)
        with pytest.raises(ValueError):
            toeplitz_extract(stream, 0.5, seed=0)


class TestPipeline:
    def test_balanced_source_paths_agree(self):
        # For the balanced state both paths certify close to one bit per
        # copy (path B loses the per-group outcome entropy, path A the
        # extraction margin).
        cmp = pipeline_compare(maximally_coherent_state(2), n_groups=50, group_n=50, seed=0)
        assert cmp.path_a_bits > 0 and cmp.path_b_bits > 0
        assert abs(cmp.path_a_monobit_z) < 4
        assert abs(cmp.path_b_monobit_z) < 4

    def test_incoherent_source_yields_nothing(self):
        cmp = pipeline_compare(pure_state([1.0, 0.0]), n_groups=5, group_n=10, seed=1)
        assert cmp.path_a_bits == 0
        assert cmp.path_b_bits == 0

    def test_seed_determinism(self):
        psi = pure_state([math.sqrt(0.8), math.sqrt(0.2)])
        a = pipeline_compare(psi, n_groups=20, group_n=20, seed=2)
        b = pipeline_compare(psi, n_groups=20, group_n=20, seed=2)
        assert a.path_a_bits == b.path_a_bits and a.path_b_bits == b.path_b_bits

    def test_min_entropy_mode_more_conservative(self):
        psi = pure_state([math.sqrt(0.8), math.sqrt(0.2)])
        shannon = pipeline_compare(psi, n_groups=20, group_n=20, seed=3, entropy_mode="shannon")
        strict = pipeline_compare(psi, n_groups=20, group_n=20, seed=3, entropy_mode="min")
        assert strict.target_rate < shannon.target_rate

    def test_rejects_non_qubit(self):
        with pytest.raises(ValueError):
            pipeline_compare(maximally_coherent_state(3), n_groups=5, group_n=5, seed=0)

    def test_unknown_entropy_mode(self):
        with pytest.raises(ValueError):
            pipeline_compare(
                maximally_coherent_state(2), n_groups=5, group_n=5, seed=0, entropy_mode="x"
            )

    @pytest.mark.parametrize("p0", [0.6, 0.75, 0.85])
    @pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3])
    def test_path_a_is_the_public_composition(self, p0, seed):
        # Path A hashes its samples as uint8 bits; it must give what the
        # public int64 stream gives.
        psi = pure_state([math.sqrt(p0), math.sqrt(1.0 - p0)])
        cmp = pipeline_compare(psi, n_groups=20, group_n=500, seed=seed)
        s_sample, s_extract = np.random.default_rng(seed).integers(0, 2**63, size=4)[:2]
        raw = sample_measurement(psi, 20 * 500, int(s_sample))
        _, report = toeplitz_extract(raw, cmp.target_rate, int(s_extract))
        assert cmp.path_a_bits == report.output_length > 0
        assert cmp.path_a_monobit_z.hex() == report.monobit_z.hex()

    def test_peak_memory_at_a_million_copies(self):
        # The numpy-traced peak of one 10^6-copy call is 40.2 MiB; an int64
        # copy of the samples held through the hash takes it to 47.9.
        psi = pure_state([math.sqrt(0.6), math.sqrt(0.4)])
        tracemalloc.start()
        try:
            pipeline_compare(psi, n_groups=200, group_n=5000, seed=7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 44 * 2**20, peak / 2**20
