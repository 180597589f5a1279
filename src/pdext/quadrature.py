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
# panels of the [0, 1] rule of the exp inner products and the sampling formula;
# it resolves e^{i lam x} to 1e-12 up to |lam| = 2 UNIT_PANELS
UNIT_PANELS = 256


def gl_rule(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [-1, 1], cached."""
    if m not in _GL_CACHE:
        _GL_CACHE[m] = np.polynomial.legendre.leggauss(m)
    return _GL_CACHE[m]


def panel_nodes(a: float, b: float, n_panels: int, m: int = 4):
    """Nodes and weights of composite m-point Gauss-Legendre on [a, b]."""
    nodes, weights = cell_gl_layout(np.linspace(a, b, n_panels + 1), m)
    return nodes.ravel(), weights.ravel()


def integrate(f, a: float, b: float, n_panels: int = 64, m: int = 6,
              split_points=()) -> complex:
    """Composite GL integral of a callable, with optional interior splits."""
    pts = [a] + sorted(p for p in split_points if a < p < b) + [b]
    total = 0.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        if hi <= lo:
            continue
        k = max(2, int(np.ceil(n_panels * (hi - lo) / (b - a))))
        x, w = panel_nodes(lo, hi, k, m)
        total = total + np.sum(w * f(x))
    return total


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
    """Evaluate x_i -> integral of F(x_i - y) g(y) dy over the grid span.

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


def poly_abs_kernel_apply(coeffs, grid: np.ndarray, g, m: int = 6):
    """(T f)(x_i) = int F(x_i - y) g(y) dy and its x-derivative for
    F(t) = sum_j coeffs[j] |t|^j, O(n m deg^2).

    On the same per-cell GL rule as kernel_apply_on_grid: the moments
    int v^p g over each cell (v = y - c, c the grid's midpoint) are
    prefix-summed from both ends, and the binomial expansion of
    (u - v)^j, u = x_i - c, turns them into both integrals at every grid
    point in one pass.
    """
    nodes, weights = cell_gl_layout(grid, m)
    c = 0.5 * (grid[0] + grid[-1])
    wg = weights * g(nodes)
    v = nodes - c
    cells = np.array([np.sum(wg * v ** p, axis=1) for p in range(len(coeffs))])
    zero = np.zeros((len(coeffs), 1), dtype=cells.dtype)
    # left[p, i] = int_{y < x_i} v^p g ; right[p, i] = int_{y > x_i} v^p g
    left = np.concatenate([zero, np.cumsum(cells, axis=1)], axis=1)
    right = np.concatenate([np.cumsum(cells[:, ::-1], axis=1)[:, ::-1], zero], axis=1)
    u = grid - c
    # F' = sum_j j c_j sign(t) |t|^{j-1}: the same sums with the right part negated
    values = _two_sided(coeffs, u, left, right, 1.0)
    derivs = _two_sided([j * cj for j, cj in enumerate(coeffs)][1:], u, left, right, -1.0)
    return values, derivs


def _two_sided(coeffs, u, left, right, sign: float):
    """sum_j coeffs[j] (int_{y < x} (x - y)^j g + sign int_{y > x} (y - x)^j g)
    from the moment prefix sums, with (u - v)^j expanded binomially."""
    out = np.zeros(left.shape[1], dtype=left.dtype)
    for j, cj in enumerate(coeffs):
        if cj == 0:
            continue
        for p in range(j + 1):
            b = cj * math.comb(j, p)
            out += b * u ** (j - p) * ((-1) ** p * left[p] + sign * (-1) ** (j - p) * right[p])
    return out


def exp_kernel_apply(grid: np.ndarray, g, m: int = 6):
    """(T f)(x_i) = int e^{-|x_i-y|} f(y) dy and its x-derivative, O(n m).

    Uses e^{-|x-y|} = e^{-x}e^{y} (y < x), e^{x}e^{-y} (y > x): cumulative
    per-cell GL sums give both the value and the derivative at every grid
    point in one pass.
    """
    nodes, weights = cell_gl_layout(grid, m)
    gv = g(nodes)
    # per-cell integrals of e^{y} g and e^{-y} g, shifted to the cell's
    # left/right edge to avoid overflow for wide grids
    lo = grid[:-1][:, None]
    hi = grid[1:][:, None]
    cell_left = np.sum(weights * np.exp(nodes - hi) * gv, axis=1)
    cell_right = np.sum(weights * np.exp(lo - nodes) * gv, axis=1)
    n = len(grid)
    left = np.zeros(n, dtype=np.result_type(gv.dtype, float))
    right = np.zeros_like(left)
    # left[i] = int_0^{x_i} e^{y-x_i} g dy ; right[i] = int_{x_i}^a e^{x_i-y} g dy
    decay = np.exp(grid[:-1] - grid[1:])
    for i in range(1, n):
        left[i] = left[i - 1] * decay[i - 1] + cell_left[i - 1]
    for i in range(n - 2, -1, -1):
        right[i] = right[i + 1] * decay[i] + cell_right[i]
    values = left + right
    derivs = -left + right
    return values, derivs
