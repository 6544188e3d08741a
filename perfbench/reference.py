"""Reference computations for the benchmark's output checks.

Nothing here imports ``cohrand``: every value the benchmark compares a
CLI output against is computed from numpy and the standard library
alone, from closed forms or exact identities.

* The qubit convex roof has the closed form H((1 + sqrt(1 - C^2)) / 2)
  with C = 2 |rho_01|, attained by two pure states with Bloch vectors
  (n_x, n_y, +-sqrt(1 - n_x^2 - n_y^2)).
* The measure is additive (Winter & Yang, PRL 116, 120404 (2016),
  arXiv:1506.07975), so R(a (x) b) = R(a) + R(b), and strongly monotone,
  so R(p sigma (+) (1 - p)|2><2|) = p R(sigma).
* The relative-entropy coherence S(diag rho) - S(rho) is a lower bound on
  the roof (distillable coherence never exceeds the coherence cost).
* The grouped distillation protocol has expected per-copy yield
  H(p0) - H(Bin(N, 1 - p0)) / N, by the chain rule
  N H(p0) = H({p_k}) + sum_k p_k log2 C(N, k).
"""

from __future__ import annotations

import json
import math

import numpy as np

# --------------------------------------------------------------------------
# Inputs
# --------------------------------------------------------------------------


def random_density(d: int, rank: int, seed: int) -> np.ndarray:
    """Ginibre density matrix G G^dag / tr, drawn with the same generator
    calls as ``cohrand.states.random_density``, so criterion 1's panel
    ``random_density(2, 1 + i % 2, 1000 + i)`` is reproduced exactly."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def block_state(p: float, sigma: np.ndarray) -> np.ndarray:
    """p sigma (+) (1 - p) |2><2| for a qubit sigma."""
    rho = np.zeros((3, 3), dtype=complex)
    rho[:2, :2] = p * sigma
    rho[2, 2] = 1.0 - p
    return rho


# --------------------------------------------------------------------------
# Exact roof values and the lower bound
# --------------------------------------------------------------------------


def shannon_bits(p) -> float:
    """H(p) in bits, 0 log 0 = 0."""
    p = np.asarray(p, dtype=float).ravel()
    p = p[p > 0]
    return float(-np.sum(p * np.log2(p)))


def binary_entropy(p: float) -> float:
    return shannon_bits([p, 1.0 - p])


def qubit_roof(rho: np.ndarray) -> float:
    """Closed-form qubit roof H((1 + sqrt(1 - C^2)) / 2), C = 2 |rho_01|."""
    c = 2.0 * abs(rho[0, 1])
    return binary_entropy((1.0 + math.sqrt(max(1.0 - c * c, 0.0))) / 2.0)


def qubit_optimal_decomposition(rho: np.ndarray) -> list:
    """Two-element ensemble [(w, amplitudes)] that attains :func:`qubit_roof`.

    Both pure states keep rho's off-diagonal entry and split its z
    component as +-s with s = sqrt(1 - n_x^2 - n_y^2) >= |n_z|, so each has
    the same outcome entropy and the weights (1 +- n_z / s) / 2 mix back
    to rho.
    """
    off = rho[0, 1]
    nz = float((rho[0, 0] - rho[1, 1]).real)
    s = math.sqrt(max(1.0 - 4.0 * abs(off) ** 2, 0.0))
    if s == 0.0:  # |rho_01| = 1/2: rho is the pure state itself
        w_plus = 1.0
    else:
        w_plus = min(max((1.0 + nz / s) / 2.0, 0.0), 1.0)
    out = []
    for w, z in ((w_plus, s), (1.0 - w_plus, -s)):
        if w <= 0.0:
            continue
        a0 = math.sqrt((1.0 + z) / 2.0)
        # |a0 a1| = |rho_01|, with rho_01's phase on a0 conj(a1)
        a1 = np.conj(off) / a0 if a0 > 0.0 else 1.0
        out.append((w, np.array([a0, a1], dtype=complex)))
    return out


def block_value(p: float, sigma: np.ndarray) -> float:
    """R(p sigma (+) (1 - p)|2><2|) = p R(sigma)."""
    return p * qubit_roof(sigma)


def product_value(a: np.ndarray, b: np.ndarray) -> float:
    """R(a (x) b) = R(a) + R(b) for qubits a and b."""
    return qubit_roof(a) + qubit_roof(b)


def von_neumann_bits(rho: np.ndarray) -> float:
    lam = np.linalg.eigvalsh(rho)
    return shannon_bits(np.clip(lam, 0.0, None))


def rel_ent_lower_bound(rho: np.ndarray) -> float:
    """S(diag rho) - S(rho), a lower bound on the roof."""
    return shannon_bits(np.clip(np.diag(rho).real, 0.0, None)) - von_neumann_bits(rho)


def ensemble_mixture(ensemble) -> np.ndarray:
    """sum_e p_e |psi_e><psi_e| for [(p_e, amplitudes)]."""
    d = len(ensemble[0][1])
    acc = np.zeros((d, d), dtype=complex)
    for p, amps in ensemble:
        acc += p * np.outer(amps, np.conj(amps))
    return acc


def ensemble_entropy(ensemble) -> float:
    """sum_e p_e H(|psi_e|^2 / ||psi_e||^2), in bits."""
    total = 0.0
    for p, amps in ensemble:
        q = np.abs(np.asarray(amps)) ** 2
        total += p * shannon_bits(q / q.sum())
    return total


# --------------------------------------------------------------------------
# Distillation yield
# --------------------------------------------------------------------------


def finite_n_yield(n_copies: int, p0: float) -> float:
    """Expected per-copy yield H(p0) - H(Bin(N, 1 - p0)) / N, in bits.

    The binomial entropy is summed from log-gamma terms, so the benchmark
    process never imports ``scipy.stats``; the tests check it against
    ``scipy.stats.binom``.
    """
    if not 0.0 < p0 < 1.0:
        return 0.0
    k = np.arange(n_copies + 1)
    log_c = np.array(
        [math.lgamma(n_copies + 1) - math.lgamma(j + 1) - math.lgamma(n_copies - j + 1) for j in k]
    )
    log_pk = log_c + k * math.log(1.0 - p0) + (n_copies - k) * math.log(p0)
    outcome_entropy = -float(np.sum(np.exp(log_pk) * log_pk)) / math.log(2.0)
    return binary_entropy(p0) - outcome_entropy / n_copies


def pipeline_path_a_bits(n_total: int, p0: float, margin: float) -> int:
    """Output length of measure-then-hash: floor(N M (H(p0) - margin))."""
    return int(math.floor(n_total * max(binary_entropy(p0) - margin, 0.0)))


# --------------------------------------------------------------------------
# Strict JSON
# --------------------------------------------------------------------------


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


def strict_json_loads(text: str):
    """json.loads that rejects NaN, Infinity and -Infinity, which are not
    JSON and which Python's json module accepts by default."""
    return json.loads(text, parse_constant=_reject_constant)


# --------------------------------------------------------------------------
# Toeplitz-hash probes
# --------------------------------------------------------------------------
#
# Each probe takes a map f(diag_bits, x_bits, out_len) -> out bits that
# claims y_i = XOR_j T[i, j] x_j with T[i, j] = diag[i - j + in_len - 1],
# and returns True when the claim survives the probe.


def _bits(rng, n: int) -> np.ndarray:
    return rng.integers(0, 2, size=n, dtype=np.uint8)


def probe_linearity(f, in_len: int, out_len: int, seed: int) -> bool:
    """f(x ^ y) = f(x) ^ f(y): a GF(2)-linear map, not an affine one."""
    rng = np.random.default_rng(seed)
    diag = _bits(rng, out_len + in_len - 1)
    x = _bits(rng, in_len)
    y = _bits(rng, in_len)
    fx = np.asarray(f(diag, x, out_len), dtype=np.uint8)
    fy = np.asarray(f(diag, y, out_len), dtype=np.uint8)
    fxy = np.asarray(f(diag, x ^ y, out_len), dtype=np.uint8)
    return fxy.shape == (out_len,) and bool(np.array_equal(fxy, fx ^ fy))


def probe_shift(f, in_len: int, out_len: int, seed: int) -> bool:
    """Toeplitz shift structure: with x_0 = 0 and x' the input shifted one
    place left, y'_i = y_{i+1}."""
    rng = np.random.default_rng(seed)
    diag = _bits(rng, out_len + in_len - 1)
    x = _bits(rng, in_len)
    x[0] = 0
    shifted = np.zeros_like(x)
    shifted[:-1] = x[1:]
    y = np.asarray(f(diag, x, out_len), dtype=np.uint8)
    ys = np.asarray(f(diag, shifted, out_len), dtype=np.uint8)
    return bool(np.array_equal(ys[:-1], y[1:]))


def probe_columns(f, in_len: int, out_len: int, seed: int) -> bool:
    """The last and first columns of T are diag[:out_len] and
    diag[in_len - 1 : in_len - 1 + out_len], which pins the indexing."""
    rng = np.random.default_rng(seed)
    diag = _bits(rng, out_len + in_len - 1)
    last = np.zeros(in_len, dtype=np.uint8)
    last[-1] = 1
    first = np.zeros(in_len, dtype=np.uint8)
    first[0] = 1
    return bool(
        np.array_equal(np.asarray(f(diag, last, out_len), dtype=np.uint8), diag[:out_len])
        and np.array_equal(
            np.asarray(f(diag, first, out_len), dtype=np.uint8),
            diag[in_len - 1 : in_len - 1 + out_len],
        )
    )


def toeplitz_probes(f, in_len: int, out_len: int, seed: int) -> dict:
    return {
        "linearity": probe_linearity(f, in_len, out_len, seed),
        "shift": probe_shift(f, in_len, out_len, seed + 1),
        "columns": probe_columns(f, in_len, out_len, seed + 2),
    }
