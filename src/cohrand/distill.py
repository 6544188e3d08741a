"""Pure-qubit coherence distillation.

Two modes: an exact state-vector simulation for small copy counts, which
verifies the protocol's state-level claims literally, and a statistical
bookkeeping mode for large copy counts, which tracks subspace dimensions as
log2 values and never materializes the 2^N-dimensional vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import LN2
from .errors import TooLarge
from .measures import r_pure
from .states import PureState, _draw_outcomes

EXACT_MODE_MAX_QUBITS = 20

# math.lgamma mapped over arrays, which keeps scipy off the import path.
_lgamma = np.frompyfunc(math.lgamma, 1, 1)


@dataclass(frozen=True)
class DistillationReport:
    n_copies: int  # N, copies per group
    n_groups: int  # M
    sampled_k: np.ndarray  # outcome index per group
    total_log2_dim: float
    r: int  # extracted copies of the maximally coherent qubit state
    yield_rate: float  # r / (N * M)
    input_randomness: float  # per-copy randomness of the input state, bits
    loss_actual: float
    loss_bound: float


@dataclass(frozen=True)
class ExactRun:
    n_copies: int
    probabilities: np.ndarray  # outcome probabilities, length N+1
    subspace_indices: list  # basis indices with k ones, per outcome
    subspace_states: list  # renormalized post-measurement amplitudes, or None


def log2_binomial(n: int, k) -> np.ndarray:
    """log2 C(n, k) via log-gamma; no big-integer overflow."""
    k = np.asarray(k, dtype=float)
    ln_c = math.lgamma(n + 1.0) - _lgamma(k + 1.0) - _lgamma(n - k + 1.0)
    return np.asarray(ln_c, dtype=float) / LN2


def binomial_outcome_distribution(n_copies: int, p0: float) -> tuple[np.ndarray, np.ndarray]:
    """The N+1 subspace outcomes for |alpha|^2 = p0, as two arrays indexed
    by the excitation count k: probabilities C(N,k) p0^(N-k) (1-p0)^k and
    subspace log2-dimensions log2 C(N,k)."""
    if not 0.0 <= p0 <= 1.0:
        raise ValueError(f"p0 must be in [0, 1], got {p0}")
    if n_copies < 1:
        raise ValueError("need at least one copy")
    ks = np.arange(n_copies + 1)
    log2_d = log2_binomial(n_copies, ks)
    # At p0 = 0 or 1 one log is -inf: exp(-inf) = 0 gives the point mass,
    # and np.where drops the one 0 * -inf term.
    with np.errstate(divide="ignore", invalid="ignore"):
        logp = np.where(ks < n_copies, (n_copies - ks) * np.log(p0), 0.0)
        logq = np.where(ks > 0, ks * np.log(1.0 - p0), 0.0)
    return np.exp(log2_d * LN2 + logp + logq), log2_d


def _qubit_amplitudes(psi: PureState):
    if psi.dim != 2:
        raise ValueError(f"distillation input must be a qubit, got d={psi.dim}")
    return complex(psi.amps[0]), complex(psi.amps[1])


def distill_exact(psi: PureState, n_copies: int) -> ExactRun:
    """Build the N-fold tensor power, project onto the fixed-excitation
    subspaces and renormalize.

    Each post-measurement state is checked to be maximally coherent in its
    subspace (all nonzero amplitudes of magnitude 1 / sqrt(C(N,k))).
    """
    if n_copies < 1:
        raise ValueError(f"need n_copies >= 1, got {n_copies}")
    if n_copies > EXACT_MODE_MAX_QUBITS:
        raise TooLarge(
            f"exact mode materializes 2^{n_copies} amplitudes; limit is "
            f"2^{EXACT_MODE_MAX_QUBITS}"
        )
    alpha, beta = _qubit_amplitudes(psi)
    pops = np.bitwise_count(np.arange(2**n_copies, dtype=np.uint32))
    # amplitude of a basis string with k ones is alpha^(N-k) beta^k
    amp_by_k = np.array(
        [alpha ** (n_copies - k) * beta**k for k in range(n_copies + 1)], dtype=complex
    )
    vec = amp_by_k[pops]
    probs = np.zeros(n_copies + 1)
    indices = []
    states = []
    for k in range(n_copies + 1):
        idx = np.nonzero(pops == k)[0]
        sub = vec[idx]
        p = float(np.sum(np.abs(sub) ** 2))
        probs[k] = p
        indices.append(idx)
        if p <= 1e-12:
            states.append(None)
            continue
        post = sub / math.sqrt(p)
        dev = float(np.max(np.abs(np.abs(post) - 1.0 / math.sqrt(len(idx)))))
        if dev > 1e-10:  # pragma: no cover - equal coefficients by construction
            raise AssertionError(
                f"post-measurement state for k={k} deviates from maximal coherence by {dev:.2e}"
            )
        states.append(post)
    return ExactRun(n_copies, probs, indices, states)


def distill_simulate(psi: PureState, n_copies: int, n_groups: int, seed: int) -> DistillationReport:
    """Bookkeeping mode: sample one subspace outcome per group by inverse
    CDF, accumulate log2 dimensions, and round the pooled dimension down to
    a power of two."""
    if n_copies < 1 or n_groups < 1:
        raise ValueError("need n_copies >= 1 and n_groups >= 1")
    alpha, beta = _qubit_amplitudes(psi)
    p0 = abs(alpha) ** 2
    probs, log2_d = binomial_outcome_distribution(n_copies, p0)
    sampled = _draw_outcomes(probs, n_groups, seed)
    total = float(np.sum(log2_d[sampled]))
    r = int(math.floor(total + 1e-12))
    randomness = r_pure(psi)
    loss_actual = n_copies * n_groups * randomness - r
    loss_bound = n_groups * math.log2(n_copies) + 1.0
    return DistillationReport(
        n_copies=n_copies,
        n_groups=n_groups,
        sampled_k=sampled,
        total_log2_dim=total,
        r=r,
        yield_rate=r / (n_copies * n_groups),
        input_randomness=randomness,
        loss_actual=loss_actual,
        loss_bound=loss_bound,
    )
