"""Core quantum state types: density matrices, pure states, measurement
outcome streams, entropies, dephasing, Bloch-sphere conversions and seeded
random-state generation.

All entropies are in bits (log base 2). Every operation here is a pure
function of its inputs plus an explicit seed; returned objects are safe to
share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionNot2, NotFinite, NotHermitian, NotPSD, TraceNotOne

DEFAULT_TOL = 1e-10

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
ID2 = np.eye(2, dtype=complex)


@dataclass(frozen=True)
class DensityMatrix:
    """A validated d x d Hermitian, unit-trace, PSD complex matrix.

    Build through :func:`validate_density` unless the matrix is valid by
    construction.
    """

    mat: np.ndarray

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


@dataclass(frozen=True)
class PureState:
    """A unit-norm complex amplitude vector."""

    amps: np.ndarray

    @property
    def dim(self) -> int:
        return self.amps.shape[0]

    def projector(self) -> DensityMatrix:
        return DensityMatrix(np.outer(self.amps, self.amps.conj()))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amps) ** 2


@dataclass(frozen=True)
class OutcomeStream:
    """Computational-basis measurement outcomes of a d-level source."""

    symbols: np.ndarray  # integers in 0..dim-1
    source_dim: int
    seed: int


def _require_finite(values, what: str) -> None:
    # NaN fails every comparison, so the tolerance checks alone let it pass.
    if not np.isfinite(values).all():
        raise NotFinite(f"{what} has a NaN or infinite entry")


def validate_densities(m, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Validate an (N, d, d) stack of raw complex matrices as density
    matrices and return it as a complex array.

    Raises NotFinite / NotHermitian / TraceNotOne / NotPSD for the first
    matrix in the stack that fails, naming the offending magnitude; each
    matrix is checked in that order.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 3 or m.shape[1] != m.shape[2]:
        raise ValueError(f"expected an (N, d, d) stack, got shape {m.shape}")
    finite = np.isfinite(m).all(axis=(1, 2))
    # A matrix with a NaN or inf fails on finiteness first; its other
    # checks run on zeros, which eigvalsh accepts.
    c = m if finite.all() else np.where(finite[:, None, None], m, 0.0)
    herm_dev = np.abs(c - c.conj().swapaxes(1, 2)).max(axis=(1, 2))
    trace_dev = np.abs(np.trace(c, axis1=1, axis2=2) - 1.0)
    eigmin = np.linalg.eigvalsh(c)[:, 0]
    ok = finite & (herm_dev <= tol) & (trace_dev <= tol) & (eigmin >= -tol)
    if ok.all():
        return m
    i = int(np.argmin(ok))
    if not finite[i]:
        raise NotFinite("density matrix has a NaN or infinite entry")
    if not herm_dev[i] <= tol:
        raise NotHermitian(f"max |rho_ij - conj(rho_ji)| = {herm_dev[i]:.3e} > {tol:.1e}")
    if not trace_dev[i] <= tol:
        raise TraceNotOne(f"|Tr rho - 1| = {trace_dev[i]:.3e} > {tol:.1e}")
    raise NotPSD(f"smallest eigenvalue = {eigmin[i]:.3e} < -{tol:.1e}")


def validate_density(m, tol: float = DEFAULT_TOL) -> DensityMatrix:
    """Validate a raw square complex matrix as a density matrix: the stack
    check of :func:`validate_densities` on a stack of one."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return DensityMatrix(validate_densities(m[None], tol)[0])


def pure_state(amps, tol: float = 1e-12) -> PureState:
    """Validate a raw complex vector as a unit-norm pure state."""
    amps = np.asarray(amps, dtype=complex).ravel()
    _require_finite(amps, "amplitude vector")
    norm_dev = abs(float(np.sum(np.abs(amps) ** 2)) - 1.0)
    if norm_dev > tol:
        raise ValueError(f"|sum |a_i|^2 - 1| = {norm_dev:.3e} > {tol:.1e}")
    return PureState(amps)


def basis_state(d: int, i: int) -> PureState:
    amps = np.zeros(d, dtype=complex)
    amps[i] = 1.0
    return PureState(amps)


def maximally_coherent_state(d: int) -> PureState:
    """Equal-amplitude superposition of all d basis states."""
    return PureState(np.full(d, 1.0 / np.sqrt(d), dtype=complex))


def tensor(a: PureState, b: PureState) -> PureState:
    return PureState(np.kron(a.amps, b.amps))


def dephase(rho: DensityMatrix) -> DensityMatrix:
    """Zero all off-diagonal entries in the computational basis."""
    return DensityMatrix(np.diag(np.diag(rho.mat)))


def entropy_bits(lam: np.ndarray) -> np.ndarray:
    """-sum lambda log2 lambda over the last axis, in bits, counting only
    lambda > 0: eigenvalues at or below 0 are finite-precision PSD drift.
    Their terms are computed as 1 log2 1 = 0, and ``0.0 -`` makes a zero
    entropy read 0.0, not -0.0."""
    x = np.where(lam > 0, lam, 1.0)
    return 0.0 - np.sum(x * np.log2(x), axis=-1)


def von_neumann_entropies(mats: np.ndarray) -> np.ndarray:
    """S(rho) = -sum lambda log2 lambda, in bits, for each matrix of an
    (N, d, d) stack."""
    return entropy_bits(np.linalg.eigvalsh(mats))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) = -sum lambda log2 lambda, in bits."""
    return float(von_neumann_entropies(rho.mat[None])[0])


def shannon_entropy(p, tol: float = 1e-12) -> float:
    """H(p) = -sum p_i log2 p_i, in bits, with 0 log 0 = 0."""
    p = np.asarray(p, dtype=float).ravel()
    if np.any(p < -tol):
        raise ValueError(f"negative probability: min p_i = {p.min():.3e}")
    sum_dev = abs(float(p.sum()) - 1.0)
    if sum_dev > tol:
        raise ValueError(f"|sum p_i - 1| = {sum_dev:.3e} > {tol:.1e}")
    p = p[p > 0]
    return float(-np.sum(p * np.log2(p)))


def bloch_to_density(n) -> DensityMatrix:
    """rho = (I + n_x sigma_x + n_y sigma_y + n_z sigma_z) / 2."""
    nx, ny, nz = (float(v) for v in n)
    _require_finite([nx, ny, nz], "Bloch vector")
    norm2 = nx * nx + ny * ny + nz * nz
    if norm2 > 1.0 + 1e-10:
        raise ValueError(f"Bloch vector norm^2 = {norm2:.6f} > 1")
    return DensityMatrix((ID2 + nx * SIGMA_X + ny * SIGMA_Y + nz * SIGMA_Z) / 2.0)


def density_to_bloch(rho: DensityMatrix) -> np.ndarray:
    if rho.dim != 2:
        raise DimensionNot2(f"Bloch representation needs d=2, got d={rho.dim}")
    m = rho.mat
    nx = float(np.real(m[0, 1] + m[1, 0]))
    ny = float(np.real(1j * (m[0, 1] - m[1, 0])))
    nz = float(np.real(m[0, 0] - m[1, 1]))
    return np.array([nx, ny, nz])


def haar_random_pure(d: int, seed: int) -> PureState:
    """Haar-random pure state via a normalized complex Gaussian vector."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return PureState(v / np.linalg.norm(v))


def random_density(d: int, rank: int, seed: int) -> DensityMatrix:
    """Ginibre-style random density matrix: normalized G G^dag."""
    if not 1 <= rank <= d:
        raise ValueError(f"rank must be in [1, {d}], got {rank}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)
