"""Shared quadrature helpers.

Kernels of the form F(x - y) have a kink on the diagonal, so all
kernel integrals here split the integration range at the kink and use
composite Gauss-Legendre panels on the smooth pieces.
"""

from __future__ import annotations

import math

import numpy as np

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}

# entries of F(x_i - y) that kernel_apply_on_grid holds at once (2 MB per
# float64 temporary)
_BLOCK_ENTRIES = 2 ** 18

# Gauss-Legendre points per cell of the smoothing transforms, the [0, 1]
# rule below and the concentration functional
GL_POINTS = 6
# panels of the [0, 1] rule of the exp inner products, which resolves
# e^{i lam x} to 1e-12 up to |lam| = 2 UNIT_PANELS; for the sampling formula it
# is a floor, refined to the spectrum by rkhs.resolving_panels
UNIT_PANELS = 256
# bound on rate x span of a cumsum block in the prefix-moment apply (e^300 is finite)
_DECAY_SPAN = 300.0


def gl_rule(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [-1, 1], cached."""
    if m not in _GL_CACHE:
        _GL_CACHE[m] = np.polynomial.legendre.leggauss(m)
    return _GL_CACHE[m]


def panel_nodes(a: float, b: float, n_panels: int, m: int = 4):
    """Nodes and weights of composite m-point Gauss-Legendre on [a, b]."""
    nodes, weights = cell_gl_layout(np.linspace(a, b, n_panels + 1), m)
    return nodes.ravel(), weights.ravel()


def split_panel_nodes(a: float, b: float, n_panels: int = 64, m: int = 6, split_points=()):
    """Nodes and weights of composite m-point GL on [a, b] split at the
    interior split points, each piece with its share of n_panels (>= 2)."""
    pts = [a] + sorted(p for p in split_points if a < p < b) + [b]
    pieces = [panel_nodes(lo, hi, max(2, int(np.ceil(n_panels * (hi - lo) / (b - a)))), m)
              for lo, hi in zip(pts[:-1], pts[1:]) if hi > lo]
    return np.concatenate([x for x, _ in pieces]), np.concatenate([w for _, w in pieces])


def integrate(f, a: float, b: float, n_panels: int = 64, m: int = 6,
              split_points=()) -> complex:
    """Composite GL integral of a callable, with optional interior splits."""
    x, w = split_panel_nodes(a, b, n_panels, m, split_points)
    return np.sum(w * f(x))


def simpson_weights(n_points: int, h: float) -> np.ndarray:
    """Composite Simpson weights for a uniform grid (odd point count)."""
    if n_points < 3 or n_points % 2 == 0:
        raise ValueError("Simpson rule needs an odd number of points >= 3")
    w = np.ones(n_points)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def simpson(values: np.ndarray, grid: np.ndarray):
    """Composite Simpson on a uniform grid; trapezoid fallback on the
    last cell when the point count is even."""
    n = len(grid)
    if n < 2:
        return 0.0
    h = grid[1] - grid[0]
    if n % 2 == 1:
        return np.sum(simpson_weights(n, h) * values, axis=-1)
    head = np.sum(simpson_weights(n - 1, h) * values[..., :-1], axis=-1)
    return head + 0.5 * h * (values[..., -2] + values[..., -1])


def bracketed_roots(f, lo, hi, df=None) -> np.ndarray:
    """One root of a vectorized ``f`` in each bracket [lo_i, hi_i] across
    which it changes sign, all brackets at once; a bracket without a sign
    change is refused.  Each step evaluates f at one point x strictly inside
    each bracket and keeps the half that still changes sign, so x becomes
    an end.  A bracket stops when its ends are adjacent floats, and returns
    the end with the smaller |f|.

    Without ``df`` every x is the midpoint: bisection.  With ``df``, the
    derivative of f, x is the Newton step from the last x where that lands
    strictly inside the bracket and is at most half the Newton step before
    it, and the midpoint elsewhere; the first x is the midpoint.  A run of
    Newton steps thus shrinks geometrically, and a ``df`` too poor for that
    falls back to bisection.  A bracket also stops where f is exactly 0 at
    an end, or once two Newton steps in a row converge: the last was at most
    one ulp of the far end max(|lo|, |hi|), or the next, at most half the
    last, would not move x.  Near a simple root, a ``df`` off by a constant
    factor c shrinks successive Newton steps by |1 - 1/c|, which fails the
    halving test unless 2/3 <= c <= 2, so such a ``df`` stops by the
    bracket alone."""
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    flo, fhi = np.asarray(f(lo)), np.asarray(f(hi))
    if np.any(np.sign(flo) * np.sign(fhi) > 0.0):
        from .kernels import DomainError   # kernels imports this module
        raise DomainError("f does not change sign across every bracket")
    # the last x, the Newton step from it, the Newton step that reached it
    # and the one before; NaN where a step is none (a midpoint, or no x yet)
    x = step = reached = before = np.full(lo.shape, np.nan)
    while True:
        mid = 0.5 * (lo + hi)
        live = (lo < mid) & (mid < hi)
        if df is not None:
            target = x - step
            converged = ((target == x) & (np.abs(step) <= 0.5 * reached)) | (
                (reached <= np.spacing(np.maximum(np.abs(lo), np.abs(hi))))
                & (reached <= 0.5 * before))
            live &= (flo != 0.0) & (fhi != 0.0) & ~converged
            newton = (lo < target) & (target < hi) & ~(np.abs(step) > 0.5 * reached)
            mid = np.where(newton, target, mid)
        if not live.any():
            break
        fmid = np.asarray(f(mid))
        # fmid == 0 moves hi onto that exact root, and the final pick keeps it
        right = live & (np.sign(fmid) == np.sign(flo))
        left = live & ~right
        lo, flo = np.where(right, mid, lo), np.where(right, fmid, flo)
        hi, fhi = np.where(left, mid, hi), np.where(left, fmid, fhi)
        if df is not None:
            x = np.where(live, mid, x)
            before = np.where(live, reached, before)
            reached = np.where(live, np.where(newton, np.abs(step), np.nan), reached)
            step = np.where(live, fmid / np.asarray(df(mid)), step)
    return np.where(np.abs(fhi) < np.abs(flo), hi, lo)


def cell_gl_layout(grid: np.ndarray, m: int = 4):
    """Per-cell GL nodes/weights for a uniform grid of cell boundaries.

    Returns (nodes, weights) with shape (n_cells, m); targets on the grid
    then see every cell entirely to their left or right, which keeps the
    |x - y| kink on cell boundaries.
    """
    t, w = gl_rule(m)
    lo = grid[:-1]
    hi = grid[1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = mid[:, None] + half[:, None] * t[None, :]
    weights = half[:, None] * w[None, :]
    return nodes, weights


def kernel_apply_on_grid(F, grid: np.ndarray, g, m: int = 4) -> np.ndarray:
    """Evaluate x_i -> integral of F(x_i - y) g(y) dy over the grid span:
    the dense test oracle of convolution_apply and poly_exp_kernel_apply.

    F and g are vectorized callables; every grid point is a cell boundary,
    so the kernel kink at y = x_i never falls inside a panel.  Time is
    O(n^2 m) for n grid points; F(x_i - y) is evaluated in row blocks of
    about _BLOCK_ENTRIES entries, so memory is O(n m + block), not
    O(n^2 m).  Each row is reduced on its own, so the result is
    bit-identical to the one-shot (n, n m) broadcast.
    """
    nodes, weights = cell_gl_layout(grid, m)
    y = nodes.ravel()
    gy = g(y) * weights.ravel()
    rows = max(1, _BLOCK_ENTRIES // len(y))
    return np.concatenate([(F(grid[i:i + rows, None] - y[None, :]) * gy[None, :]).sum(axis=1)
                           for i in range(0, len(grid), rows)])


def convolution_apply(F, dF, grid: np.ndarray, g, m: int = GL_POINTS):
    """(T_F g, (T_F g)') on a uniform grid by FFT convolution; the
    derivative is None when dF is.  The sums are kernel_apply_on_grid's.

    Node q of cell c of the per-cell GL rule is y = x_0 + (c + s_q) h with
    s_q = (1 + t_q)/2, so x_i - y = (i - c - s_q) h and, over n cells, the
    apply is sum_q of the linear convolutions of b_q[c] = w g(y) with
    A_q[k] = F((k - s_q) h), k = 1 - n..n: 2 n m calls of F (and of dF),
    and one transform of each b_q serves both.  The outputs i = 0..n are
    entries n - 1..2n - 1 of a convolution of length 3n - 1, so any cyclic
    length L >= 2n wraps only discarded entries onto them.  A non-uniform
    grid raises DomainError.
    """
    from scipy.fft import next_fast_len
    from .kernels import simpson_grid   # kernels imports this module
    grid = simpson_grid(grid)
    n = len(grid) - 1
    h = (grid[-1] - grid[0]) / n
    t, _ = gl_rule(m)
    nodes, weights = cell_gl_layout(grid, m)
    b = (weights * g(nodes)).T
    offsets = (np.arange(1 - n, n + 1)[None, :] - 0.5 * (1.0 + t)[:, None]) * h
    A = [f(offsets) for f in ((F,) if dF is None else (F, dF))]
    cplx = np.iscomplexobj(b) or any(np.iscomplexobj(a) for a in A)
    # The transforms run in long double: in float64 their rounding, relative
    # to the largest term, reaches the smallest outputs and costs digits the
    # dense sum keeps; in long double only the float64 inputs' rounding,
    # which the dense sum shares, is left.
    dtype, fwd, inv = ((np.clongdouble, np.fft.fft, np.fft.ifft) if cplx
                       else (np.longdouble, np.fft.rfft, np.fft.irfft))
    L = next_fast_len(2 * n, real=True)
    B = fwd(b.astype(dtype), L)
    out = [inv(np.sum(B * fwd(a.astype(dtype), L), axis=0), L)[n - 1:2 * n]
           .astype(complex if cplx else float) for a in A]
    return out[0], (out[1] if dF is not None else None)


def poly_exp_kernel_apply(coeffs, rate: float, grid: np.ndarray, g, m: int = GL_POINTS):
    """(T f)(x_i) = int F(x_i - y) g(y) dy and its x-derivative for
    F(t) = e^{-rate |t|} sum_j coeffs[j] |t|^j, O(n m deg^2).

    On the same per-cell GL rule as kernel_apply_on_grid: the moments
    int e^{-rate d} v^p g over each cell (v = y - c, c the grid's midpoint,
    d the distance to the cell's right or left edge) are prefix-summed from
    both ends, and the binomial expansion of (u - v)^j, u = x_i - c, turns
    them into both integrals at every grid point in one pass.  F' is
    sign(t) e^{-rate |t|} sum_j ((j + 1) coeffs[j+1] - rate coeffs[j]) |t|^j.
    """
    nodes, weights = cell_gl_layout(grid, m)
    c = 0.5 * (grid[0] + grid[-1])
    wg = weights * g(nodes)
    v = nodes - c
    # each cell's moments discounted to its right edge (seen from the targets
    # right of it) and to its left edge (from the targets left of it); the
    # two coincide at rate 0
    wg = wg * np.exp(-rate * np.stack([grid[1:, None] - nodes, nodes - grid[:-1, None]])) \
        if rate else wg[None]
    cells = np.array([np.sum(wg * v ** p, axis=-1) for p in range(len(coeffs))])
    # left[p, i] = int_{y < x_i} e^{-rate (x_i - y)} v^p g ; right[p, i] likewise for y > x_i
    left = _decayed_prefix(cells[:, 0], grid, rate)
    right = _decayed_prefix(cells[:, -1, ::-1], -grid[::-1], rate)[:, ::-1]
    u = grid - c
    # F' flips sign across t = 0: the same sums with the right part negated
    dcoeffs = [(j + 1) * c1 - rate * c0
               for j, (c0, c1) in enumerate(zip(coeffs, [*coeffs[1:], 0.0]))]
    return _two_sided(coeffs, u, left, right, 1.0), _two_sided(dcoeffs, u, left, right, -1.0)


def _decayed_prefix(cells, grid, rate: float) -> np.ndarray:
    """out[:, i] = sum_{k < i} e^{-rate (x_i - x_{k+1})} cells[:, k], x = grid.

    A cumsum of cells[:, k] e^{-rate (x_e - x_{k+1})}, rescaled by
    e^{rate (x_e - x_i)}, with x_e the end of a block of cells whose ends
    span at most _DECAY_SPAN / rate, so that no factor overflows; each block
    adds the total carried in from the last one, discounted to x_e.  A cell
    wider than that starts a block.  At rate 0 this is one plain cumsum."""
    out = [np.zeros((len(cells), 1), dtype=cells.dtype)]
    ends = grid[1:]
    span = rate * (ends - grid[0])
    cuts = np.searchsorted(span, _DECAY_SPAN * np.arange(1, span[-1] // _DECAY_SPAN + 1))
    bounds = np.unique([0, *cuts, len(ends)])
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        x = ends[lo:hi]
        scale = np.exp(rate * (x[-1] - x))
        carry = np.exp(-rate * (x[-1] - grid[lo])) * out[-1][:, -1:]
        out.append(scale * (np.cumsum(cells[:, lo:hi] / scale, axis=1) + carry))
    return np.concatenate(out, axis=1)


def _two_sided(coeffs, u, left, right, sign: float):
    """sum_j coeffs[j] (int_{y < x} (x - y)^j g + sign int_{y > x} (y - x)^j g),
    each part with its discount, from the moment prefix sums, with (u - v)^j
    expanded binomially."""
    out = np.zeros(left.shape[1], dtype=left.dtype)
    for j, cj in enumerate(coeffs):
        if cj == 0:
            continue
        for p in range(j + 1):
            b = cj * math.comb(j, p)
            out += b * u ** (j - p) * ((-1) ** p * left[p] + sign * (-1) ** (j - p) * right[p])
    return out


def exp_kernel_apply(grid: np.ndarray, g, m: int = GL_POINTS):
    """poly_exp_kernel_apply for F(t) = e^{-|t|}."""
    return poly_exp_kernel_apply((1.0,), 1.0, grid, g, m)
