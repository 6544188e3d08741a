"""Tests of the benchmark's reference computations.

Run with ``python -m pytest perfbench/test_reference.py``; the repository's
own test run collects only ``tests/``.
"""

import json
import math

import numpy as np
import pytest
from scipy.stats import binom

import reference as ref


def _panel(n: int = 24):
    return [ref.random_density(2, 1 + i % 2, 1000 + i) for i in range(n)]


def _grid_roof(rho: np.ndarray, grid_n: int) -> float:
    """Minimum of the two-element roof objective over a grid of 2x2 mixing
    unitaries [[cos a, -e^{ic} sin a], [e^{ib} sin a, e^{i(b+c)} cos a]]
    applied to the eigendecomposition rows sqrt(lam_j) v_j."""
    lam, vec = np.linalg.eigh(rho)
    bt = (vec * np.sqrt(np.clip(lam, 0.0, None))).T
    a = 0.5 * math.pi * np.arange(grid_n + 1) / grid_n
    b = 2.0 * math.pi * np.arange(grid_n) / grid_n
    a, b, c = np.meshgrid(a, b, b, indexing="ij")
    u = [
        [np.cos(a), -np.exp(1j * c) * np.sin(a)],
        [np.exp(1j * b) * np.sin(a), np.exp(1j * (b + c)) * np.cos(a)],
    ]
    total = 0.0
    for e in range(2):
        row = [u[e][0] * bt[0, k] + u[e][1] * bt[1, k] for k in range(2)]
        q = np.stack([np.abs(x) ** 2 for x in row])
        p = q.sum(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            h = -np.sum(np.where(q > 0, q * np.log2(np.where(q > 0, q, 1.0)), 0.0), axis=0)
            h += np.where(p > 0, p * np.log2(np.where(p > 0, p, 1.0)), 0.0)
        total = total + h
    return float(total.min())


def test_random_density_is_a_density_matrix():
    for rho in _panel():
        assert np.allclose(rho, rho.conj().T, atol=1e-15)
        assert abs(np.trace(rho) - 1.0) < 1e-14
        assert np.linalg.eigvalsh(rho)[0] > -1e-14


def test_random_density_reproduces_the_package_panel():
    from cohrand import states

    for i in range(8):
        ours = ref.random_density(2, 1 + i % 2, 1000 + i)
        theirs = states.random_density(2, 1 + i % 2, 1000 + i).mat
        assert np.array_equal(ours, theirs)


@pytest.mark.parametrize("i", [1, 3, 6, 25, 55])
def test_qubit_roof_matches_grid_over_mixing_unitaries(i):
    rho = ref.random_density(2, 1 + i % 2, 1000 + i)
    exact = ref.qubit_roof(rho)
    grid = _grid_roof(rho, 48)
    assert grid >= exact - 1e-12
    assert grid - exact < 5e-3


def test_qubit_roof_special_cases():
    assert ref.qubit_roof(np.diag([0.3, 0.7]).astype(complex)) == pytest.approx(0.0, abs=1e-15)
    plus = np.full((2, 2), 0.5, dtype=complex)
    assert ref.qubit_roof(plus) == pytest.approx(1.0, abs=1e-12)
    assert ref.qubit_roof(np.eye(2, dtype=complex) / 2) == pytest.approx(0.0, abs=1e-15)


def test_optimal_qubit_decomposition_attains_the_closed_form():
    for rho in _panel() + [np.diag([0.2, 0.8]).astype(complex)]:
        ens = ref.qubit_optimal_decomposition(rho)
        assert sum(w for w, _ in ens) == pytest.approx(1.0, abs=1e-15)
        assert np.max(np.abs(ref.ensemble_mixture(ens) - rho)) < 1e-14
        assert ref.ensemble_entropy(ens) == pytest.approx(ref.qubit_roof(rho), abs=1e-12)


def test_block_value_is_attained_and_above_the_lower_bound():
    for p in (0.3, 0.7):
        for sigma in _panel(6):
            rho = ref.block_state(p, sigma)
            ens = [(p * w, np.append(a, 0.0)) for w, a in ref.qubit_optimal_decomposition(sigma)]
            ens.append((1.0 - p, np.array([0.0, 0.0, 1.0], dtype=complex)))
            assert np.max(np.abs(ref.ensemble_mixture(ens) - rho)) < 1e-14
            value = ref.block_value(p, sigma)
            assert ref.ensemble_entropy(ens) == pytest.approx(value, abs=1e-12)
            assert ref.rel_ent_lower_bound(rho) <= value + 1e-12


def test_product_value_is_attained_and_above_the_lower_bound():
    panel = _panel(6)
    for a, b in zip(panel[:3], panel[3:]):
        rho = np.kron(a, b)
        ens = [
            (wa * wb, np.kron(xa, xb))
            for wa, xa in ref.qubit_optimal_decomposition(a)
            for wb, xb in ref.qubit_optimal_decomposition(b)
        ]
        assert np.max(np.abs(ref.ensemble_mixture(ens) - rho)) < 1e-14
        value = ref.product_value(a, b)
        assert ref.ensemble_entropy(ens) == pytest.approx(value, abs=1e-12)
        assert ref.rel_ent_lower_bound(rho) <= value + 1e-12


def test_rel_ent_lower_bound():
    # Equal to the outcome entropy on pure states, log2 d on the maximally
    # coherent state, zero on diagonal states, and below the qubit roof.
    psi = np.array([0.6, 0.8j])
    assert ref.rel_ent_lower_bound(np.outer(psi, psi.conj())) == pytest.approx(
        ref.shannon_bits([0.36, 0.64]), abs=1e-12
    )
    plus3 = np.full((3, 3), 1.0 / 3.0, dtype=complex)
    assert ref.rel_ent_lower_bound(plus3) == pytest.approx(math.log2(3.0), abs=1e-12)
    assert ref.rel_ent_lower_bound(np.diag([0.2, 0.3, 0.5]).astype(complex)) == pytest.approx(
        0.0, abs=1e-12
    )
    for rho in _panel():
        assert ref.rel_ent_lower_bound(rho) <= ref.qubit_roof(rho) + 1e-12


@pytest.mark.parametrize("n_copies,p0", [(50, 0.8), (5000, 0.8), (5000, 0.6), (7, 0.35)])
def test_finite_n_yield_matches_the_chain_rule(n_copies, p0):
    k = np.arange(n_copies + 1)
    pk = binom.pmf(k, n_copies, 1.0 - p0)
    log2_c = np.array(
        [(math.lgamma(n_copies + 1) - math.lgamma(j + 1) - math.lgamma(n_copies - j + 1)) for j in k]
    ) / math.log(2.0)
    outcome_entropy = ref.shannon_bits(pk / pk.sum())
    # N H(p0) = H({p_k}) + sum_k p_k log2 C(N, k)
    assert n_copies * ref.binary_entropy(p0) == pytest.approx(
        outcome_entropy + float(np.sum(pk * log2_c)), rel=1e-10
    )
    assert ref.finite_n_yield(n_copies, p0) == pytest.approx(
        float(np.sum(pk * log2_c)) / n_copies, abs=1e-10
    )
    assert ref.finite_n_yield(n_copies, p0) == pytest.approx(
        ref.binary_entropy(p0) - binom.entropy(n_copies, 1.0 - p0) / math.log(2.0) / n_copies,
        abs=1e-10,
    )


def test_finite_n_yield_value_at_fifty_copies():
    assert ref.finite_n_yield(50, 0.8) == pytest.approx(0.6511, abs=1e-4)


def test_path_a_length():
    assert ref.pipeline_path_a_bits(10**6, 0.8, 0.02) == math.floor(
        10**6 * (ref.binary_entropy(0.8) - 0.02)
    )


def test_strict_json_rejects_non_finite_constants():
    assert ref.strict_json_loads('{"a": [1.5, -2e-300, 0]}') == {"a": [1.5, -2e-300, 0]}
    for bad in ('{"l1": NaN}', "[Infinity]", "[-Infinity]", json.dumps({"x": float("nan")})):
        with pytest.raises(ValueError):
            ref.strict_json_loads(bad)


def _naive_toeplitz(diag, x, out_len):
    n = len(x)
    t = np.array([[diag[i - j + n - 1] for j in range(n)] for i in range(out_len)], dtype=np.uint8)
    return (t.astype(np.int64) @ x.astype(np.int64) % 2).astype(np.uint8)


def test_probes_accept_the_naive_gf2_product():
    assert ref.toeplitz_probes(_naive_toeplitz, 97, 61, seed=3) == {
        "linearity": True,
        "shift": True,
        "columns": True,
    }


def test_linearity_probe_rejects_an_affine_map():
    def affine(diag, x, out_len):
        c = np.zeros(out_len, dtype=np.uint8)
        c[out_len // 2] = 1
        return _naive_toeplitz(diag, x, out_len) ^ c

    assert not ref.probe_linearity(affine, 97, 61, seed=3)


def test_shift_probe_rejects_a_non_toeplitz_map():
    mat = np.random.default_rng(5).integers(0, 2, size=(61, 97))

    def dense(diag, x, out_len):
        return (mat[:out_len] @ x.astype(np.int64) % 2).astype(np.uint8)

    assert ref.probe_linearity(dense, 97, 61, seed=3)
    assert not ref.probe_shift(dense, 97, 61, seed=3)


def test_column_probe_rejects_a_reversed_diagonal():
    def reversed_diag(diag, x, out_len):
        return _naive_toeplitz(diag[::-1].copy(), x, out_len)

    assert ref.probe_shift(reversed_diag, 97, 61, seed=3)
    assert not ref.probe_columns(reversed_diag, 97, 61, seed=3)
