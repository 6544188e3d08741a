"""Closed-form coherence quantifiers.

Relative-entropy coherence, l1-norm coherence, pure-state randomness, and
the exact qubit randomness formula built on the coherence concurrence.

Each measure has one implementation, which takes an (N, d, d) stack of
density matrices and returns N values in bits; the single-state function
calls it on a stack of one.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .errors import DimensionNot2
from .states import (
    SIGMA_X,
    DensityMatrix,
    PureState,
    density_to_bloch,
    entropy_bits,
    shannon_entropy,
)


class MeasureId(str, Enum):
    REL_ENT = "rel_ent"
    L1 = "l1"
    ROOF_RANDOMNESS = "roof_randomness"
    QUBIT_ANALYTIC = "qubit_analytic"


def c_rel_ent_values(mats: np.ndarray) -> np.ndarray:
    """Relative-entropy coherence S(rho^diag) - S(rho) of each matrix.

    The minimum over incoherent states is attained at the dephased state,
    which gives this closed form (cross-checked against a grid minimizer in
    the test suite). The dephased state's spectrum is its own diagonal,
    summed in ascending order as ``eigvalsh`` returns a spectrum. S(rho)
    comes from one ``eigvalsh`` of the stack; a caller that already holds
    those spectra passes them to :func:`_c_rel_ent_values` instead.
    """
    return _c_rel_ent_values(mats, np.linalg.eigvalsh(mats))


def _c_rel_ent_values(mats: np.ndarray, spectra: np.ndarray) -> np.ndarray:
    """:func:`c_rel_ent_values` of a stack whose ascending ``eigvalsh``
    spectra, (N, d), are already known."""
    dephased = np.sort(np.diagonal(mats, axis1=1, axis2=2).real, axis=-1)
    return np.maximum(entropy_bits(dephased) - entropy_bits(spectra), 0.0)


def c_rel_ent(rho: DensityMatrix) -> float:
    """Relative-entropy coherence: S(rho^diag) - S(rho)."""
    return float(c_rel_ent_values(rho.mat[None])[0])


def c_l1_values(mats: np.ndarray) -> np.ndarray:
    """l1-norm coherence of each matrix: sum of off-diagonal magnitudes."""
    a = np.abs(mats)
    return a.reshape(len(a), -1).sum(axis=1) - np.trace(a, axis1=1, axis2=2)


def c_l1(rho: DensityMatrix) -> float:
    """l1-norm coherence: sum of off-diagonal magnitudes."""
    return float(c_l1_values(rho.mat[None])[0])


def r_pure(psi: PureState) -> float:
    """Randomness of a pure state: Shannon entropy of |a_i|^2."""
    p = psi.probabilities()
    return shannon_entropy(p / p.sum())


def coherence_concurrence_qubit(rho: DensityMatrix) -> float:
    """C_z = |sqrt(eta_1) - sqrt(eta_2)| with eta_i eigenvalues of
    rho sigma_x rho^* sigma_x (conjugation entrywise in the computational
    basis).

    For a qubit, tr M = (1 + n_x^2 + n_y^2 - n_z^2) / 2 and
    sqrt(eta_1 eta_2) = |det rho| = (1 - |n|^2) / 4, so the difference of
    square roots collapses exactly to sqrt(n_x^2 + n_y^2) = 2 |rho_01|.
    Evaluating that closed form avoids the catastrophic cancellation the
    2x2 eigenvalue route suffers for (near-)pure states, where the small
    eigenvalue of M is floating-point noise whose square root is ~1e-8.
    The eigenvalue route survives as an independent cross-check in
    :func:`concurrence_spin_flip`.
    """
    if rho.dim != 2:
        raise DimensionNot2(f"coherence concurrence needs d=2, got d={rho.dim}")
    return float(2.0 * abs(rho.mat[0, 1]))


def r_qubit_analytic_values(mats: np.ndarray) -> np.ndarray:
    """Exact qubit randomness H((1 + sqrt(1 - C_z^2)) / 2) of each matrix
    of an (N, 2, 2) stack, with C_z = 2 |rho_01| (see
    :func:`coherence_concurrence_qubit`)."""
    if mats.shape[-1] != 2:
        raise DimensionNot2(f"analytic qubit randomness needs d=2, got d={mats.shape[-1]}")
    cz = 2.0 * np.abs(mats[:, 0, 1])
    p = (1.0 + np.sqrt(np.maximum(1.0 - cz * cz, 0.0))) / 2.0
    return entropy_bits(np.stack([p, 1.0 - p], axis=-1))


def r_qubit_analytic(rho: DensityMatrix) -> float:
    """Exact qubit randomness: H((1 + sqrt(1 - C_z^2)) / 2)."""
    return float(r_qubit_analytic_values(rho.mat[None])[0])


def concurrence_bloch(rho: DensityMatrix) -> float:
    """Independent concurrence path: sqrt(n_x^2 + n_y^2) from the Bloch
    vector."""
    n = density_to_bloch(rho)
    return float(np.hypot(n[0], n[1]))


def concurrence_spin_flip(rho: DensityMatrix) -> float:
    """Independent concurrence path via the eigenvalues of
    rho sigma_x rho^* sigma_x from the 2x2 characteristic polynomial.

    Accurate to ~sqrt(machine eps) near pure states (the small eigenvalue
    is dominated by rounding noise there); used as a cross-check, not as
    the production formula.
    """
    if rho.dim != 2:
        raise DimensionNot2(f"coherence concurrence needs d=2, got d={rho.dim}")
    m = rho.mat @ SIGMA_X @ rho.mat.conj() @ SIGMA_X
    tr = float(np.real(np.trace(m)))
    det = float(np.real(np.linalg.det(m)))
    disc = max(tr * tr - 4.0 * det, 0.0)
    eta1 = max((tr + math.sqrt(disc)) / 2.0, 0.0)
    eta2 = max((tr - math.sqrt(disc)) / 2.0, 0.0)
    return abs(math.sqrt(eta1) - math.sqrt(eta2))
