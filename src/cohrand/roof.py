"""Convex-roof evaluation of the intrinsic-randomness measure.

The mixed-state value is the minimum, over all pure-state decompositions of
rho, of the ensemble average of the pure-state randomness. Decompositions of
size m are the rows W @ B of m x r isometries W applied to the support
eigendecomposition rows B; the optimizer draws its starts that way and runs
a multi-start descent on the rows themselves, also on two copies of rho for
a regularized estimate. A brute-force grid over 2x2 mixing unitaries serves
as an independent qubit oracle.

The measure is additive over direct sums (Yu, Zhang, Xu & Tong, PRA 94,
060302(R) (2016)): when rho_ij = 0 whenever i and j lie in different
blocks B_k of the computational basis, R(rho) is the sum of the roofs of
the unnormalized blocks P_k rho P_k. The roof objective is homogeneous of
degree one in the ensemble's weights, so a block's roof is its trace times
the roof of the normalized block. The optimizer splits rho along those
blocks, found from exact zeros only, and descends each bare block; a rho
of one block is one turn of the same loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DimensionNot2, NotIsometry, RankMismatch, TooLarge
from .measures import r_pure
from .states import DensityMatrix, PureState, entropy_bits

RANK_THRESHOLD = 1e-10
ELEMENT_DROP_THRESHOLD = 1e-12
# The descent's iteration budget per restart, and the tolerance of its
# stall stop (three iterations in a row each gaining under 1% of it).
MAX_ITERATIONS = 2000
TOLERANCE_BITS = 1e-8


@dataclass(frozen=True)
class Decomposition:
    """Weighted pure-state ensemble mixing to a target density matrix:
    ``weights[e]`` is p_e and row e of ``states`` is the unit vector psi_e."""

    weights: np.ndarray  # (m,)
    states: np.ndarray  # (m, d) complex

    def mixture(self) -> np.ndarray:
        return (self.weights[:, None] * self.states).T @ self.states.conj()


@dataclass(frozen=True)
class RoofConfig:
    """The number of restarts and the master seed of their starts. Every
    restart descends for at most MAX_ITERATIONS iterations and stalls out
    at TOLERANCE_BITS."""

    restarts: int = 16
    seed: int = 0


@dataclass(frozen=True)
class RoofResult:
    """The roof value, its ensemble, whether every descent converged, and
    the restarts each descent ran (0 when no descent ran).

    The ensemble is the concatenation of one ensemble per block of rho
    (see :func:`optimize_roof`): blocks of ranks r_k give sum_k r_k^2
    members, r^2 for a rho of one block, and ``cohrand roof`` prints that
    many. ``converged`` is the AND over the blocks, and ``restarts_used``
    is ``config.restarts`` when any block descended, else 0.
    """

    value: float
    best_decomposition: Decomposition
    converged: bool
    restarts_used: int


def _support_rows(mat: np.ndarray) -> np.ndarray:
    """Rows sqrt(lam_j) v_j of the support eigendecomposition of the PSD
    matrix mat, rho or one of its unnormalized blocks: B (r, d), with r = 0
    when no eigenvalue exceeds RANK_THRESHOLD. Every ensemble of mat is the
    rows of W @ B for an m x r isometry W (Hughston, Jozsa & Wootters,
    PLA 183, 14 (1993))."""
    lam, vec = np.linalg.eigh(mat)
    keep = lam > RANK_THRESHOLD
    return np.ascontiguousarray((vec[:, keep] * np.sqrt(lam[keep])).T)


def _ensemble(rho: DensityMatrix, rows: np.ndarray) -> Decomposition:
    """The decomposition of rho into the unnormalized rows psi_e (m, d): p_e
    is the squared norm of each row, and rows below ELEMENT_DROP_THRESHOLD
    are dropped."""
    p = np.sum(np.abs(rows) ** 2, axis=1)
    keep = p >= ELEMENT_DROP_THRESHOLD
    decomp = Decomposition(p[keep], rows[keep] / np.sqrt(p[keep])[:, None])
    recon_dev = float(np.max(np.abs(decomp.mixture() - rho.mat)))
    if recon_dev > 1e-8:  # pragma: no cover - construction guarantees this
        raise NotIsometry(f"ensemble reconstructs rho only to {recon_dev:.3e}")
    return decomp


def decomposition_from_isometry(rho: DensityMatrix, W: np.ndarray) -> Decomposition:
    """Ensemble |psi_e> = sum_j W_ej sqrt(lam_j) |v_j> from the support
    eigendecomposition of rho; p_e is the squared norm of each row."""
    W = np.asarray(W, dtype=complex)
    b = _support_rows(rho.mat)
    r = b.shape[0]
    if W.ndim != 2 or W.shape[1] != r:
        raise RankMismatch(
            f"isometry has {W.shape[1] if W.ndim == 2 else '?'} columns, support rank is {r}"
        )
    dev = float(np.max(np.abs(W.conj().T @ W - np.eye(r))))
    if dev > 1e-10:
        raise NotIsometry(f"max |W^dag W - I| = {dev:.3e} > 1e-10")
    return _ensemble(rho, W @ b)


def roof_objective(decomp: Decomposition) -> float:
    """Ensemble average of the pure-state randomness, in bits."""
    q = np.abs(decomp.states) ** 2
    return float(decomp.weights @ entropy_bits(q / q.sum(axis=1, keepdims=True)))


def _blocks(mat: np.ndarray) -> list:
    """Index arrays of the computational-basis blocks of rho, [arange(d)]
    for one block: the connected components of the graph with an edge
    wherever rho_ij != 0 or rho_ji != 0 (a validated rho is Hermitian only
    to a tolerance). Only exact zeros separate blocks; a tolerance would
    move the value by a continuity bound instead of keeping it exact."""
    # Squaring the reachability matrix doubles the path length it covers,
    # so it stops growing within log2(d) products.
    reach = (mat != 0) | (mat.T != 0) | np.eye(len(mat), dtype=bool)
    while not np.array_equal(grown := reach @ reach, reach):
        reach = grown
    # A block's lowest basis index is the first one its rows reach.
    lowest = np.flatnonzero(reach.argmax(axis=1) == np.arange(len(mat)))
    return [np.flatnonzero(reach[k]) for k in lowest]


def _block_rows(block: np.ndarray, config: RoofConfig):
    """Ensemble rows of one unnormalized block of rho, whether its descent
    converged and whether one ran: a block of rank 1 is its own ensemble,
    and one of rank 0 has no member."""
    b = _support_rows(block)
    r = b.shape[0]
    if r <= 1:
        return b, True, False
    m = r * r
    g = np.empty((config.restarts, m, r), dtype=complex)
    for i, child in enumerate(np.random.SeedSequence(config.seed).spawn(config.restarts)):
        rng = np.random.default_rng(child)
        g[i] = rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r))
    w0, _ = np.linalg.qr(g)
    # Until the kernel holds an L-BFGS pair its direction is the raw
    # gradient, which scales with the block's trace, and its line search
    # starts at t = 1: a block of small trace crawls. Scaling the rows by a
    # power of two, exactly and by 1 for a trace-1 rho, brings the trace
    # the kernel sees into [1/2, 2].
    scale = 2.0 ** round(-0.5 * math.log2(np.trace(block).real))
    _, psi, converged = _kernels.roof_descent(
        w0 @ b * scale, MAX_ITERATIONS, TOLERANCE_BITS * _kernels.LN2
    )
    return psi / scale, converged, True


def optimize_roof(rho: DensityMatrix, config: RoofConfig = RoofConfig()) -> RoofResult:
    """Minimize the roof objective over m = r^2 element decompositions, the
    size that always attains a rank-r roof (Uhlmann, OSID 5, 209 (1998)),
    block by block: each bare block of rho (module docstring) gets its own
    ensemble, whose rows are embedded back into C^d as they are.

    Multi-start descent: every restart starts from an isometry drawn with a
    seed derived deterministically from the master seed, all restarts
    descend in one batched kernel call, and the best is taken by lowest
    value, then lowest restart index. The returned value is an upper
    estimate of the true roof (the descent approaches it from above). Each
    block descends at a trace in [1/2, 2] (see :func:`_block_rows`), so the
    stall stop measures it at about unit trace. A block whose eigenvalues
    are all at most RANK_THRESHOLD adds no member, as rho's own
    eigendecomposition would drop them.
    """
    if config.restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {config.restarts}")
    parts, converged, descended = [], True, False
    for idx in _blocks(rho.mat):
        rows, block_converged, block_descended = _block_rows(rho.mat[np.ix_(idx, idx)], config)
        part = np.zeros((len(rows), rho.dim), dtype=complex)
        part[:, idx] = rows
        parts.append(part)
        converged &= block_converged
        descended |= block_descended
    decomp = _ensemble(rho, np.concatenate(parts))
    return RoofResult(
        roof_objective(decomp), decomp, converged, config.restarts if descended else 0
    )


def regularized_roof_estimate(rho: DensityMatrix, config: RoofConfig = RoofConfig()) -> float:
    """Per-copy roof value of rho (x) rho in the product basis."""
    if rho.dim**2 > 16:
        raise TooLarge(f"d^2 = {rho.dim**2} exceeds the optimizer bound of 16")
    result = optimize_roof(DensityMatrix(np.kron(rho.mat, rho.mat)), config)
    return result.value / 2


def brute_force_roof_qubit(rho: DensityMatrix, grid_n: int) -> float:
    """Independent oracle: exhaustive grid over 2x2 mixing unitaries
    (two angles, grid_n points each) applied to the eigendecomposition."""
    if rho.dim != 2:
        raise DimensionNot2(f"brute-force oracle needs d=2, got d={rho.dim}")
    b = _support_rows(rho.mat)
    if b.shape[0] == 1:
        return r_pure(PureState(b[0]))
    return _kernels.qubit_grid_min(b, grid_n)
