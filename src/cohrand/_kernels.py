"""Hot numeric kernels, one numpy implementation each.

* :func:`roof_descent` -- the convex-roof descent, all restarts in one
  batched descent, with the closed-form gradient of the objective
  (Röthlisberger, Lehmann & Loss, PRA 80, 042301 (2009)) and
  Fletcher-Reeves conjugate directions on the unitary group, which fall
  back to the gradient when they do not descend and every 2m iterations;
* :func:`qubit_grid_min` -- the brute-force qubit roof oracle;
* :func:`toeplitz_gf2` -- the Toeplitz GF(2) hash, as one circular FFT product.

tests/test_kernels.py checks them against central differences, the naive
Toeplitz product and the analytic qubit roof, checks the FFT length
against a brute-force search, checks that a batched descent returns what
its restarts return one by one, and checks the direction's fallback and
resets.
"""

from __future__ import annotations

import math

import numpy as np

LN2 = math.log(2.0)


# --------------------------------------------------------------------------
# Convex-roof descent
# --------------------------------------------------------------------------


def _objective(psi):
    """Roof objective of each ensemble of unnormalized rows psi (..., m, d),
    in nats: sum over rows of -sum q ln q + p ln p, with q = |row|^2 and p
    the row norm squared (0 ln 0 = 0)."""
    q = psi.real * psi.real + psi.imag * psi.imag
    p = q.sum(axis=-1)
    q_ln_q = q * np.log(q, where=q > 1e-300, out=np.zeros_like(q))
    rows = p * np.log(p, where=p > 1e-300, out=np.zeros_like(p)) - q_ln_q.sum(axis=-1)
    return rows.sum(axis=-1)


def _roof_gradient(psi):
    """Gradient of the objective as anti-Hermitian generators A, one per
    ensemble of the stack psi (..., m, d).

    The objective has d/dq_ei = ln(p_e / q_ei) =: D_ei (0 where q_ei
    vanishes, its limit there). With M = psi (D o psi)^dag, A = 2 (M - M^dag)
    off the diagonal and 0 on it: for each pair j < l the generator
    coordinates are g_r = Re A[l, j] = 2 Re(M[l, j] - M[j, l]) and
    g_i = -Im A[l, j] = -2 Im(M[l, j] + M[j, l]). Diagonal generators only
    change row phases and never move the objective.
    """
    q = psi.real * psi.real + psi.imag * psi.imag
    p = q.sum(axis=-1, keepdims=True)
    D = np.log(p / np.maximum(q, 1e-300), where=q > 1e-300, out=np.zeros_like(q))
    M = psi @ (D * psi).conj().swapaxes(-1, -2)
    A = 2.0 * (M - M.conj().swapaxes(-1, -2))
    diag = np.arange(A.shape[-1])
    A[..., diag, diag] = 0.0
    return A


def _conjugate_direction(A, gnorm2, H, prev_gnorm2):
    """Fletcher-Reeves direction A + beta H, beta = gnorm2 / prev_gnorm2,
    for each ensemble of the stack, and its slope 1/2 Re tr(A^dag H): minus
    the derivative of the objective along exp(t H) at t = 0. Where the
    slope is not positive the direction does not descend, and it falls
    back to the gradient generator A, whose slope is gnorm2."""
    H = A + (gnorm2 / prev_gnorm2)[:, None, None] * H
    slope = 0.5 * np.einsum("...ij,...ij->...", A.conj(), H).real
    reset = slope <= 0.0
    H[reset], slope[reset] = A[reset], gnorm2[reset]
    return H, slope


def roof_descent(BT, W0, max_iter, tol_nats):
    """Local descent on the isometry manifold from every restart at once.

    W0 stacks R starting isometries (R, m, r); restart i's ensemble is
    psi_i = W_i @ BT (rows are unnormalized pure states). Steps move along
    geodesics W <- exp(t H) W. H is a conjugate direction in u(m) built
    from the closed-form gradient generator A of :func:`_roof_gradient`,
    H_k = A_k + beta_k H_(k-1) with the Fletcher-Reeves
    beta_k = |A_k|^2 / |A_(k-1)|^2 (Abrudan, Eriksson & Koivunen, Signal
    Processing 89, 1704 (2009)). H acts on the left, so the previous
    direction carries over to the new point as it is. H falls back to A
    when it is not a descent direction (1/2 Re tr(A^dag H) <= 0) and every
    2m iterations. An Armijo backtracking line search picks t. Each
    restart keeps its own direction, step, line search, stall count and
    stop rule, and leaves the active set when it stops, so it follows the
    same path it would follow alone.

    Returns (objective in bits, final W, converged flag) of the best
    restart: the lowest value, then the lowest index.
    """
    W = W0.copy()
    psi = W @ BT
    f = _objective(psi)
    n, m = W.shape[:2]
    idx = np.arange(n)  # W0 index of each active restart
    prev_t = np.ones(n)
    stall = np.zeros(n, dtype=int)
    H, prev_g2 = None, np.ones(n)  # H is zeroed at iteration 0, a reset
    f_out = np.empty(n)
    W_out = np.empty_like(W)
    converged = np.zeros(n, dtype=bool)
    for it in range(max_iter):
        if not len(idx):
            break
        A = _roof_gradient(psi)
        # Squared norm of the (g_r, g_i) coordinates over the pairs j < l.
        gnorm2 = 0.5 * np.einsum("...ij,...ij->...", A.conj(), A).real
        if it % (2 * m) == 0:
            H = np.zeros_like(A)
        H, slope = _conjugate_direction(A, gnorm2, H, prev_g2)
        prev_g2 = gnorm2
        stop = gnorm2 < 1e-22
        w, U = np.linalg.eigh(1j * H)
        Uh = U.conj().swapaxes(-1, -2)
        t = prev_t * 2.0
        # Every trial steps every active restart; one that has passed its
        # Armijo test keeps its t, so its last trial repeats its accepted
        # step exactly.
        searching = ~stop
        for _ls in range(60):
            E = (U * np.exp(-1j * t[:, None] * w)[:, None, :]) @ Uh
            psit = E @ psi
            ft = _objective(psit)
            searching &= ~(ft < f - 1e-4 * t * slope)
            if not searching.any():
                break
            t[searching] *= 0.5
        # A restart still searching after 60 halvings stops, counted as
        # converged, as does one with a vanishing gradient.
        moved = ~(stop | searching)
        dec = f - ft
        f = np.where(moved, ft, f)
        psi = np.where(moved[:, None, None], psit, psi)
        W = np.where(moved[:, None, None], E @ W, W)
        prev_t = t
        # Linear convergence means the remaining gap is a multiple of the
        # per-iteration decrease; demand decreases well below the target
        # tolerance before declaring convergence.
        stall = np.where(dec < 0.01 * tol_nats, stall + 1, 0)
        stop = ~moved | (stall >= 3)
        if stop.any():
            done = idx[stop]
            f_out[done], W_out[done], converged[done] = f[stop], W[stop], True
            keep = ~stop
            idx, W, psi, f, prev_t, stall, H, prev_g2 = (
                a[keep] for a in (idx, W, psi, f, prev_t, stall, H, prev_g2)
            )
    f_out[idx], W_out[idx] = f, W
    values = f_out / LN2
    best = int(np.argmin(values))
    return float(values[best]), W_out[best], bool(converged[best])


# --------------------------------------------------------------------------
# Brute-force qubit roof (independent oracle)
# --------------------------------------------------------------------------


def qubit_grid_min(b00, b01, b10, b11, grid_n):
    """Exhaustive grid over 2x2 mixing unitaries (three angles, grid_n
    points each) applied to the eigendecomposition rows (b00, b01) and
    (b10, b11). Returns the grid minimum of the roof objective in bits."""
    phases = np.exp(2j * math.pi * np.arange(grid_n) / grid_n)
    eb = phases[:, None]
    ec = phases[None, :]
    best = np.inf

    def ent2(q0, q1):
        p = q0 + q1
        out = np.zeros_like(q0)
        mask = q0 > 1e-300
        out[mask] -= q0[mask] * np.log(q0[mask])
        mask = q1 > 1e-300
        out[mask] -= q1[mask] * np.log(q1[mask])
        mask = p > 1e-300
        out[mask] += p[mask] * np.log(p[mask])
        return out

    for ia in range(grid_n):
        a = 0.5 * math.pi * ia / grid_n
        ca = math.cos(a)
        sa = math.sin(a)
        u01 = -ec * sa
        x0 = ca * b00 + u01 * b10
        x1 = ca * b01 + u01 * b11
        u10 = eb * sa
        u11 = eb * ec * ca
        y0 = u10 * b00 + u11 * b10
        y1 = u10 * b01 + u11 * b11
        val = ent2(np.abs(x0) ** 2, np.abs(x1) ** 2) + ent2(np.abs(y0) ** 2, np.abs(y1) ** 2)
        vmin = float(val.min())
        if vmin < best:
            best = vmin
    return best / LN2


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
    conv = np.fft.irfft(np.fft.rfft(diag_bits, n) * np.fft.rfft(x_bits, n), n)
    seg = conv[in_len - 1 : in_len - 1 + out_len]
    rounded = np.rint(seg)
    if np.max(np.abs(seg - rounded)) > 0.1:  # pragma: no cover
        raise FloatingPointError("FFT convolution drifted from integer values")
    return (rounded.astype(np.int64) & 1).astype(np.uint8)
