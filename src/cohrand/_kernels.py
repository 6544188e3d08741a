"""Hot numeric kernels, one numpy implementation each.

* :func:`roof_descent` -- the convex-roof descent, all restarts in one
  batched descent, with the closed-form gradient of the objective
  (Röthlisberger, Lehmann & Loss, PRA 80, 042301 (2009)) and
  limited-memory BFGS directions on the unitary group, which fall back to
  the gradient when they do not descend, and Cayley steps, each restart
  scaled by a power of two to a trace in [1/2, 2]. Its loop keeps few,
  contiguous numpy calls per iteration: the L-BFGS memory is stored
  slot by slot, every row dot product is one np.vecdot (numpy >= 2.0),
  and a boolean mask is tested with np.count_nonzero, which costs about a
  third of .any()/.all() on a restart-sized mask;
* :func:`qubit_grid_min` -- the brute-force qubit roof oracle;
* :func:`toeplitz_gf2` -- the Toeplitz GF(2) hash, as one circular FFT product.

tests/test_kernels.py checks them against central differences, exp(tH),
the naive Toeplitz product and the analytic qubit roof, the FFT length
against a brute-force search, a batched descent against its restarts one
by one, a restart whose trials read NaN and its starts scaled by 2^k, and
the direction against the dense BFGS update, its fallback, which steps the
memory keeps and the masked push against the unmasked one.
"""

from __future__ import annotations

import functools
import math

import numpy as np

LN2 = math.log(2.0)


# --------------------------------------------------------------------------
# Convex-roof descent
# --------------------------------------------------------------------------


def _entropy_terms(psi):
    """Roof objective of each ensemble of unnormalized rows psi (..., m, d),
    a C-contiguous complex stack, in nats: sum over rows of
    p ln p - sum q ln q, with q = |row|^2 and p the row norm squared
    (0 ln 0 = 0), as two row dot products; with the mask of the q that
    are at most 1e-300, ln q (0 there) and ln p for :func:`_generator`.
    q is read off the real view of psi, (re, im) pairs of float64."""
    x = psi.view(np.float64)
    xx = x * x
    q = xx[..., ::2] + xx[..., 1::2]
    p = q.sum(axis=-1)
    # Where clamped, the log is taken of q + 1 == 1, which is exactly 0.
    zero = q <= 1e-300
    ln_q = np.log(q + zero)
    ln_p = np.log(p + (p <= 1e-300))
    flat = q.shape[:-2] + (-1,)
    f = np.vecdot(p, ln_p) - np.vecdot(q.reshape(flat), ln_q.reshape(flat))
    return f, zero, ln_q, ln_p


@functools.cache
def _off_diagonal(m):
    """2 (1 - I), m x m, read-only: the factor that doubles a generator and
    zeroes its diagonal."""
    factor = 2.0 * (1.0 - np.eye(m))
    factor.flags.writeable = False
    return factor


def _generator(psi, zero, ln_q, ln_p):
    """Gradient of the objective as anti-Hermitian generators A, one per
    ensemble of the stack psi (..., m, d), from the :func:`_entropy_terms`
    of psi.

    The objective has d/dq_ei = ln p_e - ln q_ei =: D_ei (0 where q_ei
    vanishes, its limit there). With M = psi (D o psi)^dag, A = 2 (M - M^dag)
    off the diagonal and 0 on it: for each pair j < l the generator
    coordinates are g_r = Re A[l, j] = 2 Re(M[l, j] - M[j, l]) and
    g_i = -Im A[l, j] = -2 Im(M[l, j] + M[j, l]). Diagonal generators only
    change row phases and never move the objective.
    """
    D = ln_p[..., None] - ln_q
    np.copyto(D, 0.0, where=zero)
    M = psi @ (D * psi).conj().swapaxes(-1, -2)
    return (M - M.conj().swapaxes(-1, -2)) * _off_diagonal(M.shape[-1])


MEMORY = 4  # L-BFGS pairs each restart keeps


def _real(X):
    """The (R, m, m) complex stack X as (R, 2 m^2) reals, in which the dot
    product of two rows is Re tr(X^dag Y); an (R, n) real array as itself."""
    return X.reshape(len(X), -1).view(np.float64)


def _lbfgs_direction(A, gnorm2, S, Y, rho, gamma):
    """L-BFGS direction H for each ensemble of the stack, from its gradient
    generator A and its memory of steps (Liu & Nocedal, Math. Program. 45,
    503 (1989)), and its slope 1/2 Re tr(A^dag H): minus the derivative of
    the objective along the step of :func:`roof_descent` at t = 0.

    The memory is slot-major and holds the last MEMORY pairs of each
    restart, newest first: slot i of S and Y (MEMORY, R, 2 m^2) is one
    contiguous (R, 2 m^2) block of real views, with rho[i] = 1 / <s, y>
    (rho is (MEMORY, R)), and gamma = <s, y> / <y, y> of the newest pair.
    Every dot product is a row-wise np.vecdot. An empty slot has rho = 0
    and adds nothing, and with no pair gamma = 1, so the direction is A.
    Every slot is visited, filled or not, so a restart computes the same
    numbers in any stack. Where the slope is not positive the direction
    does not descend, and it falls back to A, whose slope is gnorm2."""
    a = _real(A)
    q = a.copy()
    alpha = []
    for S_i, Y_i, rho_i in zip(S, Y, rho):
        alpha.append(rho_i * np.vecdot(S_i, q))
        q -= alpha[-1][:, None] * Y_i
    q *= gamma[:, None]
    for S_i, Y_i, rho_i, alpha_i in zip(S[::-1], Y[::-1], rho[::-1], alpha[::-1]):
        q += (alpha_i - rho_i * np.vecdot(Y_i, q))[:, None] * S_i
    slope = 0.5 * np.vecdot(a, q)
    H = q.view(np.complex128).reshape(A.shape)
    reset = slope <= 0.0
    if np.count_nonzero(reset):
        H[reset], slope[reset] = A[reset], gnorm2[reset]
    return H, slope


def _remember(S, Y, rho, gamma, s, y, moved):
    """Push the pair (s, y), as generators (R, m, m) or their real views
    (R, 2 m^2), in front of the slot-major memory of
    :func:`_lbfgs_direction`, in place, for each restart that moved and
    has <s, y> > 0; its oldest pair drops out."""
    s, y = _real(s), _real(y)
    sy = np.vecdot(s, y)
    new = moved & (sy > 0.0)
    # Usually every restart stores, and then the push shifts whole slots,
    # S[1:] = S[:-1], with no masked copies.
    new = slice(None) if np.count_nonzero(new) == len(new) else new
    for a in (S, Y, rho):
        a[1:, new] = a[:-1, new]
    S[0, new], Y[0, new], sy = s[new], y[new], sy[new]
    rho[0, new] = 1.0 / sy
    gamma[new] = sy / np.vecdot(Y[0, new], Y[0, new])


def _cayley(H, HP, psi, t, eye):
    """(I - tH/2)^-1 (I + tH/2) psi for each ensemble of the stack psi
    (R, m, d), with HP = H psi, one t each and eye the m x m identity, by
    one batched solve: for H in u(m), a unitary with tangent H at t = 0,
    the Cayley transform (Wen & Yin, Math. Program. 142, 397 (2013)).
    I - tH/2 is never singular."""
    h = 0.5 * t[:, None, None]
    return np.linalg.solve(eye - h * H, psi + h * HP)


def roof_descent(psi0, max_iter, tol_bits):
    """Local descent over the ensembles of one state from every restart at once.

    psi0 stacks R starting ensembles (R, m, d), each row an unnormalized
    pure state, each restart of any positive finite trace w (else a
    ValueError names it). Steps are the unitaries of :func:`_cayley`, which
    keep the mixture psi^T psi^* fixed;
    no eigendecomposition is taken. H in u(m) is the L-BFGS direction of
    :func:`_lbfgs_direction`, built from the closed-form gradient generator
    A of :func:`_generator` and the restart's last MEMORY steps: the
    accepted step's generator s = t H and y = A_before - A_after, both
    formed on the real views and kept only when <s, y> > 0 (on the unitary
    group under any retraction, as in Huang, Gallivan & Absil, SIAM J.
    Optim. 25, 1660 (2015)). H acts on the left, so a stored pair carries
    over to the new point as it is. H falls back to A when it is not a
    descent direction (1/2 Re tr(A^dag H) <= 0). An Armijo backtracking line
    search from t = 1 picks t. Each restart keeps its own memory, line
    search, stall count and stop rule, and leaves the active set when it
    stops, so it follows the same path it would follow alone.

    Until a restart holds a pair its direction is A, which scales with w
    while t starts at 1, so each restart descends a copy of its rows scaled
    exactly by 2^j, j = round(-log2(w) / 2), to a trace in [1/2, 2], where
    its stall stop reads tol_bits. Returns, unscaled, (objective in bits,
    final rows (m, d), converged flag) of the best restart: the lowest
    value, then the lowest index.
    """
    w = np.sum(np.abs(psi0) ** 2, axis=(1, 2))
    bad = ~(np.isfinite(w) & (w > 0))
    if np.count_nonzero(bad):
        r = int(np.argmax(bad))
        raise ValueError(f"restart {r} has trace {w[r]}; each needs a positive finite trace")
    j = np.rint(-0.5 * np.log2(w)).astype(int)
    psi = np.ascontiguousarray(psi0 * np.ldexp(1.0, j)[:, None, None], dtype=complex)
    tol_nats = tol_bits * LN2
    f, *terms = _entropy_terms(psi)
    A = _generator(psi, *terms)
    n, m = psi.shape[:2]
    eye = np.eye(m)
    idx = np.arange(n)  # psi0 index of each active restart
    stall = np.zeros(n, dtype=int)
    S, Y = np.zeros((2, MEMORY, n, 2 * m * m))
    rho, gamma = np.zeros((MEMORY, n)), np.ones(n)
    f_out, psi_out, converged = np.empty(n), np.empty_like(psi), np.zeros(n, dtype=bool)
    for _ in range(max_iter):
        if not len(idx):
            break
        # Squared norm of the (g_r, g_i) coordinates over the pairs j < l.
        a = _real(A)
        gnorm2 = 0.5 * np.vecdot(a, a)
        H, slope = _lbfgs_direction(A, gnorm2, S, Y, rho, gamma)
        stop = gnorm2 < 1e-22
        HP = H @ psi
        t = np.ones(len(idx))
        # Every trial steps every active restart; one that has passed its
        # Armijo test keeps its t, so its last trial repeats its accepted
        # step exactly. The test is written so that a NaN trial fails it.
        searching = ~stop
        for _ls in range(60):
            psi_t = _cayley(H, HP, psi, t, eye)
            f_t, *terms = _entropy_terms(psi_t)
            searching &= ~(f_t < f - 1e-4 * t * slope)
            if not np.count_nonzero(searching):
                break
            t[searching] *= 0.5
        # A restart still searching after 60 halvings stops, counted as
        # converged, as does one with a vanishing gradient; it keeps its
        # rows from before the trial and stores no pair. It leaves the
        # active set below, so its generator, taken from the trial's terms,
        # is never read.
        moved = ~(stop | searching)
        dec = f - f_t
        if np.count_nonzero(moved) < len(moved):
            f_t = np.where(moved, f_t, f)
            psi_t = np.where(moved[:, None, None], psi_t, psi)
        f, psi = f_t, psi_t
        A = _generator(psi, *terms)
        _remember(S, Y, rho, gamma, t[:, None] * _real(H), a - _real(A), moved)
        # Linear convergence means the remaining gap is a multiple of the
        # per-iteration decrease; demand decreases well below the target
        # tolerance before declaring convergence.
        stall = np.where(dec < 0.01 * tol_nats, stall + 1, 0)
        stop = ~moved | (stall >= 3)
        if np.count_nonzero(stop):
            done, keep = idx[stop], ~stop
            f_out[done], psi_out[done], converged[done] = f[stop], psi[stop], True
            # terms is not compacted: the next trial replaces it unread.
            idx, psi, f, stall, A, gamma = (x[keep] for x in (idx, psi, f, stall, A, gamma))
            S, Y, rho = (x[:, keep] for x in (S, Y, rho))
    f_out[idx], psi_out[idx] = f, psi
    values = np.ldexp(f_out / LN2, -2 * j)
    best = int(np.argmin(values))
    return float(values[best]), np.ldexp(1.0, -j[best]) * psi_out[best], bool(converged[best])


# --------------------------------------------------------------------------
# Brute-force qubit roof (independent oracle)
# --------------------------------------------------------------------------


def qubit_grid_min(b, grid_n):
    """Grid minimum, in bits, of the roof objective over 2x2 mixing
    unitaries applied to the eigendecomposition rows b0, b1 of the (2, 2)
    array b. The grid spans the two angles that move the objective,
    grid_n points each: the rows cos a b0 - e^{ic} sin a b1 and
    sin a b0 + e^{ic} cos a b1, with a in [0, pi/2) and c in [0, 2 pi). A
    phase on a whole output row moves none of its |amplitude|^2."""
    a = 0.5 * math.pi * np.arange(grid_n)[:, None, None] / grid_n
    ec = np.exp(2j * math.pi * np.arange(grid_n) / grid_n)[:, None]
    b0, b1 = b
    c, s = np.cos(a), np.sin(a)
    q = np.abs(np.stack([c * b0 - ec * s * b1, s * b0 + ec * c * b1], axis=-2)) ** 2
    # -sum q ln q + p ln p = sum q ln(p / q); a vanishing q adds its limit, 0.
    p = q.sum(axis=-1, keepdims=True)
    val = (q * np.log(p / np.maximum(q, 1e-300))).sum(axis=(-2, -1))
    return float(val.min()) / LN2


# --------------------------------------------------------------------------
# Toeplitz GF(2) matrix-vector product
# --------------------------------------------------------------------------


def _fast_len(n: int) -> int:
    """The smallest 2**a * 3**b * 5**c >= n, for n >= 1: an FFT length."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def toeplitz_gf2(diag_bits: np.ndarray, x_bits: np.ndarray, out_len: int) -> np.ndarray:
    """y_i = XOR_j T[i, j] x_j with T[i, j] = diag_bits[i - j + in_len - 1].

    Computed as one circular FFT convolution of length n >= L = len(diag_bits)
    = out_len + in_len - 1. Output i is the linear convolution at index
    k = i + in_len - 1. The circular one at k sums diag_bits[a] x_b over
    a + b = k and over a + b = k + n, but a + b <= (L - 1) + (in_len - 1)
    < k + n, since k >= in_len - 1 and n >= L: nothing wraps onto an
    output. The FFT is exact because the integer convolution values stay
    far below 2**53."""
    if out_len == 0:
        return np.zeros(0, dtype=np.uint8)
    diag_bits = np.ascontiguousarray(diag_bits, dtype=np.uint8)
    x_bits = np.ascontiguousarray(x_bits, dtype=np.uint8)
    in_len = len(x_bits)
    n = _fast_len(len(diag_bits))
    # The longer operand's spectrum becomes the product, so at most two
    # spectra are alive whether or not numpy elides the temporary, and it
    # is freed before the drift check.
    spec = np.fft.rfft(diag_bits, n)
    spec *= np.fft.rfft(x_bits, n)
    conv = np.fft.irfft(spec, n)
    del spec
    seg = conv[in_len - 1 : in_len - 1 + out_len]
    rounded = np.rint(seg)
    seg -= rounded
    if np.abs(seg, out=seg).max() > 0.1:  # pragma: no cover
        raise FloatingPointError("FFT convolution drifted from integer values")
    return (rounded.astype(np.int64) & 1).astype(np.uint8)
