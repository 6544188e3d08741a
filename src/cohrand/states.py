"""Core quantum state types: density matrices, pure states, measurement
outcome streams, entropies, Bloch-sphere conversions and seeded random-state
generation.

All entropies are in bits (log base 2). Every operation here is a pure
function of its inputs plus an explicit seed; returned objects are safe to
share between threads. Stack validation also returns the spectra its PSD
check takes, so S(rho) of a validated state needs no second decomposition.
Every complex Gaussian draw of the package, the roof's starts included, is
made by :func:`_complex_normals`: one block per generator, real part first.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionNot2, NotFinite, NotHermitian, NotPSD, TraceNotOne

DEFAULT_TOL = 1e-10
NORM_TOL = 1e-12  # a pure state's norm and a distribution's sum

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
        """The Born distribution |a_i|^2, renormalized to sum to 1."""
        p = np.abs(self.amps) ** 2
        return p / p.sum()


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


def validate_densities(m, tol: float = DEFAULT_TOL):
    """Validate an (N, d, d) stack of raw complex matrices as density
    matrices. Returns (stack, spectra): the stack as a complex array and
    the ascending ``eigvalsh`` eigenvalues of each of its matrices, (N, d),
    from the one decomposition the PSD check takes, for a caller that
    needs S(rho) of the validated states.

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
    # Entries near the float limit overflow these to inf, which fails its
    # check by name, without a warning.
    with np.errstate(over="ignore"):
        herm_dev = np.abs(c - c.conj().swapaxes(1, 2)).max(axis=(1, 2))
        trace_dev = np.abs(np.trace(c, axis1=1, axis2=2) - 1.0)
    spectra = np.linalg.eigvalsh(c)
    eigmin = spectra[:, 0]
    ok = finite & (herm_dev <= tol) & (trace_dev <= tol) & (eigmin >= -tol)
    if ok.all():
        return m, spectra
    i = int(np.argmin(ok))
    if not finite[i]:
        raise NotFinite("density matrix has a NaN or infinite entry")
    if not herm_dev[i] <= tol:
        raise NotHermitian(f"max |rho_ij - conj(rho_ji)| = {herm_dev[i]:.3e} > {tol:.1e}")
    if not trace_dev[i] <= tol:
        raise TraceNotOne(f"|Tr rho - 1| = {trace_dev[i]:.3e} > {tol:.1e}")
    raise NotPSD(f"smallest eigenvalue = {eigmin[i]:.3e} < -{tol:.1e}")


def validate_density(m) -> DensityMatrix:
    """Validate a raw square complex matrix as a density matrix: the stack
    check of :func:`validate_densities` on a stack of one."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return DensityMatrix(validate_densities(m[None])[0][0])


def pure_state(amps) -> PureState:
    """Validate a raw complex vector as a unit-norm pure state. A squared
    norm off 1 raises TraceNotOne, since tr|psi><psi| = sum |a_i|^2."""
    amps = np.asarray(amps, dtype=complex).ravel()
    _require_finite(amps, "amplitude vector")
    with np.errstate(over="ignore"):  # an overflow reads inf and fails below
        norm_dev = abs(float(np.sum(np.abs(amps) ** 2)) - 1.0)
    if norm_dev > NORM_TOL:
        raise TraceNotOne(f"|sum |a_i|^2 - 1| = {norm_dev:.3e} > {NORM_TOL:.1e}")
    return PureState(amps)


def maximally_coherent_state(d: int) -> PureState:
    """Equal-amplitude superposition of all d basis states."""
    return PureState(np.full(d, 1.0 / np.sqrt(d), dtype=complex))


def entropy_bits(lam: np.ndarray) -> np.ndarray:
    """-sum lambda log2 lambda over the last axis, in bits, counting only
    lambda > 0: eigenvalues at or below 0 are finite-precision PSD drift.
    Their terms are computed as 1 log2 1 = 0, and ``0.0 -`` makes a zero
    entropy read 0.0, not -0.0."""
    x = np.where(lam > 0, lam, 1.0)
    return 0.0 - np.sum(x * np.log2(x), axis=-1)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) = -sum lambda log2 lambda, in bits."""
    return float(entropy_bits(np.linalg.eigvalsh(rho.mat)))


def _checked_probabilities(p) -> np.ndarray:
    """p as a flat float array, checked as a probability vector: every
    entry finite (else NotFinite), none below -NORM_TOL and a sum within
    NORM_TOL of 1 (else ValueError)."""
    p = np.asarray(p, dtype=float).ravel()
    _require_finite(p, "probability vector")
    if np.any(p < -NORM_TOL):
        raise ValueError(f"negative probability: min p_i = {p.min():.3e}")
    sum_dev = abs(float(p.sum()) - 1.0)
    if sum_dev > NORM_TOL:
        raise ValueError(f"|sum p_i - 1| = {sum_dev:.3e} > {NORM_TOL:.1e}")
    return p


def shannon_entropy(p) -> float:
    """H(p) = -sum p_i log2 p_i, in bits, with 0 log 0 = 0: the
    :func:`entropy_bits` of a checked probability vector."""
    return float(entropy_bits(_checked_probabilities(p)))


def _draw_outcomes(probs: np.ndarray, n: int, seed: int) -> np.ndarray:
    """n i.i.d. outcome indices of the distribution probs, by inverse CDF
    over ``default_rng(seed).random(n)``, with the CDF's last value set to 1."""
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    return np.searchsorted(cdf, np.random.default_rng(seed).random(n), side="right")


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


def _complex_normals(rngs, n: int, shape) -> np.ndarray:
    """(n, *shape) complex standard normals, block j from the next of `rngs`
    as ``standard_normal(shape) + 1j * standard_normal(shape)`` draws it.
    Exactly n generators are taken, so `rngs` may be a shared iterator."""
    g = np.empty((n, 2, *shape))
    for block, rng in zip(g, rngs):  # g first: zip then stops before a further rng
        rng.standard_normal(out=block)
    return g[:, 0] + 1j * g[:, 1]


def haar_random_pure(d: int, seed: int) -> PureState:
    """Haar-random pure state via a normalized complex Gaussian vector."""
    v = _complex_normals([np.random.default_rng(seed)], 1, (d,))[0]
    return PureState(v / np.linalg.norm(v))


def _hash_constants(init: int, mult: int, steps: int) -> np.ndarray:
    """The running constant of a SeedSequence hash, before and after each of
    `steps` hash steps, as a (steps + 1, 1) uint32 column."""
    consts = [init]
    for _ in range(steps):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    return np.array(consts, dtype=np.uint32)[:, None]


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx). Its hash
# constants step the same way whatever the seed, so they are fixed: 16
# hashmix steps mix a 4-word pool, and 8 output steps read it.
_HASHMIX = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_OUTPUT = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hash(words: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """One hash step on each row of `words`, row k with the constants
    before and after step k: xor, multiply, fold the high half down."""
    words = (words ^ consts[:-1]) * consts[1:]
    return words ^ (words >> 16)


@functools.cache
def _fixed_state():
    """A seed sequence type whose state is the words it was built with: the
    4 uint64 words, C-contiguous, that PCG64 reads its seed from. It is
    made on first use, so that importing the package loads no
    numpy.random."""

    class FixedState(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return FixedState


def _seed_array(seeds) -> np.ndarray:
    """`seeds` as an array. numpy stores a list that mixes ints below 2^63
    with ints from 2^63 up as float64, so such a list, when its ints all lie
    in [0, 2^64), is read as uint64 instead."""
    arr = np.asarray(seeds)
    if arr.dtype.kind == "f" and isinstance(seeds, list):
        if all(type(s) is int and 0 <= s < 2**64 for s in seeds):
            return np.array(seeds, dtype=np.uint64)
    return arr


def _seeded_generators(seeds):
    """A Generator per seed, each in the state ``default_rng(seed)`` gives
    it, for seeds in [0, 2^64).

    ``default_rng`` seeds PCG64 with ``SeedSequence(seed).generate_state(4,
    np.uint64)``, a fixed uint32 hash of the seed's 32-bit words. Here that
    hash runs once, over all seeds as arrays, and PCG64 seeds itself from
    each row of words."""
    seeds = _seed_array(seeds)
    if seeds.size and (seeds.dtype.kind not in "iu" or seeds.min() < 0):
        raise ValueError("expected non-negative integer")
    seeds = seeds.astype(np.uint64)
    # The entropy is the seed's low and high words, zero-padded to the
    # pool's 4 words: SeedSequence mixes in hashmix(0) past its end.
    pool = np.zeros((4, len(seeds)), dtype=np.uint32)
    pool[0] = seeds
    pool[1] = seeds >> np.uint64(32)
    pool = _hash(pool, _HASHMIX[:5])
    # Each word is hashed into the other three, in order, one step each.
    for src in range(4):
        dst = [i for i in range(4) if i != src]
        step = 4 + 3 * src
        mixed = pool[dst] * _MIX_MULT_L - _hash(pool[src], _HASHMIX[step : step + 4]) * _MIX_MULT_R
        pool[dst] = mixed ^ (mixed >> 16)
    # generate_state(4, np.uint64): 8 words that cycle through the pool,
    # read in pairs as little-endian uint64.
    words = _hash(np.tile(pool, (2, 1)), _OUTPUT).astype(np.uint64)
    state = (words[0::2] | words[1::2] << np.uint64(32)).T.copy()
    fixed = _fixed_state()
    return (np.random.Generator(np.random.PCG64(fixed(row))) for row in state)


def random_densities(d: int, ranks, seeds) -> np.ndarray:
    """Ginibre-style random density matrices, normalized G G^dag, as an
    (N, d, d) stack over paired `ranks` and `seeds`: matrix j has rank
    ``ranks[j]``, and its d x rank Gaussian G comes from
    ``default_rng(seeds[j])``, real part first.

    The seeds are hashed in one pass (:func:`_seeded_generators`); per
    rank, :func:`_complex_normals` fills one block from those seeds'
    generators, and G G^dag and the trace normalisation run once."""
    ranks, seeds = np.broadcast_arrays(np.asarray(ranks, dtype=int), _seed_array(seeds))
    if not ((ranks >= 1) & (ranks <= d)).all():
        raise ValueError(f"rank must be in [1, {d}], got {ranks[(ranks < 1) | (ranks > d)][0]}")
    out = np.empty((len(seeds), d, d), dtype=complex)
    # One generator per seed, in rank order: rank 1's seeds first.
    rngs = _seeded_generators(seeds[np.argsort(ranks, kind="stable")])
    for rank in range(1, d + 1):
        pos = np.flatnonzero(ranks == rank)
        g = _complex_normals(rngs, len(pos), (d, rank))
        m = g @ g.conj().swapaxes(1, 2)
        out[pos] = m / np.trace(m, axis1=1, axis2=2).real[:, None, None]
    return out


def random_density(d: int, rank: int, seed: int) -> DensityMatrix:
    """Ginibre-style random density matrix: :func:`random_densities` of a
    stack of one."""
    return DensityMatrix(random_densities(d, [rank], [seed])[0])
