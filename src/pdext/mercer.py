"""Nystrom discretization of the Mercer operator T_F and its uses.

(T_F f)(x) = int_0^a f(y) F(x - y) dy on L^2(0, a).  The midpoint rule keeps
the discrete trace exactly equal to a (diagonal entries are F(0) = 1 and the
weights sum to a), which is what the trace identity check relies on.  On
uniform nodes the matrix h F(x_i - x_j) depends only on |i - j|, so it is
the symmetric Toeplitz matrix of one kernel row.  Such a matrix is also
centrosymmetric: it commutes with the reversal of the nodes about a/2, so its
eigenvectors are even or odd there and the spectrum splits into two
half-size blocks (even and odd) in place of one n-square matrix.  Both blocks
keep every eigenvalue and their traces add up to the matrix trace, so the
trace identity check still reads sum lam.

``discretize`` computes only the eigenvalues.  For a kernel whose
``poly_exp`` is second order (``kernels.boundary_equation``: exp, the
triangle, ``bsplinex:2`` at a <= 1) they are the roots of one discrete
boundary equation per block, found in O(n) memory: the discrete form of the
paper's correspondence between T_F^{-1} and a boundary value problem, whose
h = 0 case is the continuous Mercer spectrum.  Every other kernel runs
``eigvalsh`` on each block.

Most callers read nothing but the eigenvalues.  The eigenfunctions are
computed on first access to ``MercerDecomposition.eigenfunctions``, by
``eigh`` on the two blocks rebuilt from the kernel row, whichever route set
the eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .kernels import (EPS_PSD, DomainError, PdKernel, boundary_equation,
                      descriptor_for_kernel, kernel_from_name)
from .quadrature import exp_kernel_apply


@dataclass(frozen=True)
class NystromConfig:
    node_count: int = 400

    def __post_init__(self):
        if self.node_count < 16:
            raise DomainError("node_count must be >= 16")


@dataclass(frozen=True)
class MercerDecomposition:
    """Quadrature nodes/weights plus the discrete spectrum of T_F.

    ``eigenvalues`` (descending) are fixed at construction.  The
    eigenfunctions are not: ``_row`` is the kernel row h F(x_k - x_0) and
    ``_column`` maps the even block's eigenvalues (ascending) and then the
    odd block's to their places in ``eigenvalues``.
    """

    kernel: PdKernel
    nodes: np.ndarray
    weights: np.ndarray
    eigenvalues: np.ndarray
    _row: np.ndarray = field(repr=False)
    _column: np.ndarray = field(repr=False)

    @cached_property
    def eigenfunctions(self) -> np.ndarray:
        """``eigenfunctions[:, n]`` holds xi_n at the nodes, L^2-orthonormal
        under the quadrature weights.  Computed on first access by ``eigh``
        on the even and odd blocks of ``discretize`` (the n^2 result, plus
        one block and its eigenvectors at a time); the k-th vector of a
        block goes to the column of that block's k-th eigenvalue, so
        ``eigenvalues`` never changes.  Each block's eigenvectors / sqrt(h),
        unfolded to [u; (middle); J u] / sqrt 2 or [u; (0); -J u] / sqrt 2,
        are the node samples of xi_n.
        """
        n = len(self.nodes)
        h = self.weights[0]
        p, q = n // 2, n - n // 2
        ce, co = self._column[:q], self._column[q:]
        # row m of xt is xi_m at the nodes: whole rows are written, and xt.T
        # serves columns to the consumers
        xt = np.empty((n, n))
        U = np.linalg.eigh(_parity_block(self._row, odd=False))[1]
        U[:p] /= np.sqrt(2.0 * h)
        U[p:] /= np.sqrt(h)              # the middle node of odd n
        xt[ce, :q] = U.T
        xt[ce, q:] = U[:p][::-1].T
        del U                            # before the odd block's eigh
        U = np.linalg.eigh(_parity_block(self._row, odd=True))[1]
        U /= np.sqrt(2.0 * h)
        xt[co, :p] = U.T
        xt[co, p:q] = 0.0
        np.negative(U, out=U)
        xt[co, q:] = U[::-1].T
        return xt.T

    @property
    def rank(self) -> int:
        return len(self.eigenvalues)

    def trace(self) -> float:
        return float(np.sum(self.eigenvalues))

    def eigenfunction_at(self, n, x) -> np.ndarray:
        """Nystrom extension xi_n(x) = (1/lam_n) sum_j w_j F(x - x_j) xi_n(x_j),
        with the stored sample where x is a node; for a slice or list n, one
        column per xi_n."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        d = x[:, None] - self.nodes[None, :]
        out = (self.kernel(d) * self.weights) @ self.eigenfunctions[:, n] / self.eigenvalues[n]
        at = np.abs(d) <= 1e-14
        hit = at.any(axis=1)
        out[hit] = self.eigenfunctions[np.argmax(at[hit], axis=1)][:, n]
        return out

    def coefficients(self, values_at_nodes: np.ndarray, m: int) -> np.ndarray:
        """<xi_n, h>_2 for n < m by nodal quadrature."""
        if m > self.rank:
            raise DomainError(f"rank {m} exceeds available rank {self.rank}")
        return (self.eigenfunctions[:, :m].conj().T
                @ (self.weights * values_at_nodes))

    def to_csv_rows(self):
        return [(n + 1, lam) for n, lam in enumerate(self.eigenvalues)]

    def to_json(self, top: Optional[int] = None) -> str:
        import json
        m = self.rank if top is None else min(top, self.rank)
        return json.dumps({"eigenvalues": self.eigenvalues[:m].tolist(),
                           "trace": self.trace(),
                           "node_count": len(self.nodes)})

    def eigenfunction_table(self, indices, xs) -> list[tuple]:
        """Plot rows (x, xi_{n1}(x), xi_{n2}(x), ...) via Nystrom extension."""
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        cols = self.eigenfunction_at(list(indices), xs).real
        return [tuple([x] + [float(c) for c in row]) for x, row in zip(xs, cols)]


def _parity_block(row: np.ndarray, odd: bool) -> np.ndarray:
    """The even or odd half block (see ``discretize``) of the symmetric
    Toeplitz matrix of ``row``, read through a strided view of the row."""
    n = len(row)
    T = sliding_window_view(np.concatenate([row[:0:-1], row]), n)[::-1]
    p, q = n // 2, n - n // 2          # q = p + 1 holds the middle node of odd n
    if odd:
        return T[:p, :p] - T[:p, q:][:, ::-1]
    even = T[:q, :q] + T[:q, p:][:, ::-1]
    even[p:] /= np.sqrt(2.0)
    even[:, p:] /= np.sqrt(2.0)
    return even


def _boundary_spectrum(kernel: PdKernel, n: int) -> Optional[np.ndarray]:
    """The even block's eigenvalues and then the odd block's, each ascending:
    ``boundary_equation`` at h = a/n, None without its capability.

    The Nystrom matrix A has the inverse M = [tridiag(-w, 2w + g, -w), end
    diagonal entries e] / s.  For c0 e^{-r|t|}, A = h c0 rho^{|i-j|} with
    rho = e^{-rh} (Kac-Murdock-Szego): w = rho, g = (1 - rho)^2, e = 1 and
    s = h c0 (1 - rho^2).  For c0 + c1 |t|, with beta = -c1 h: w = 1, g = 0,
    s = 2 beta h, e = 1 + gamma and gamma = beta / (2 c0 - beta (n - 1)) also
    in the corners (0, n-1) and (n-1, 0); gamma lies in (0, 1), as the root
    count needs, exactly when |c1| a < 2 c0.  An interior row takes
    cos((j - c) omega h) and sin((j - c) omega h), c = (n - 1)/2, to the
    eigenvalue (g + 4 w sin^2(omega h/2)) / s of M; row 0, with the corner
    folded in by the parity, leaves one phase equation a block.  For the
    triangle the blocks tend to the paper's root families cos(k/4) = 0 (odd)
    and tan(k/4) = 4/(3k) (even) as h -> 0.
    """
    equation = boundary_equation(kernel.poly_exp, kernel.half_width, kernel.half_width / n)
    if equation is None:
        return None
    omega = equation[0](n)
    # omega ascends, so lam descends within each block
    return equation[1](np.concatenate([omega[0::2][::-1], omega[1::2][::-1]]))


def discretize(kernel: PdKernel, cfg: NystromConfig = NystromConfig()) -> MercerDecomposition:
    """Midpoint Nystrom matrix h F(x_i - x_j) on n uniform nodes: its
    eigenvalues, with the eigenfunctions left to first access.

    The entry depends only on |i - j| (F(x - y) is a convolution and Re F is
    even), so the matrix T is the symmetric Toeplitz matrix of the row
    h F(x_k - x_0), read through a strided view with no n^2 copy.  T commutes
    with the reversal J of the nodes about a/2, so each eigenvector is even
    or odd and the spectrum splits exactly into two half-size blocks.  With
    n = 2p or 2p + 1, B = T[:p, :p] and CJ = T[:p, -p:] reversed by column:

    * even, [u; (middle); J u] / sqrt 2: B + CJ, bordered for odd n by the
      middle node's row and column (2 T_pj and 2 T_pp in the folded sum)
      divided by sqrt 2, so the block stays symmetric and the middle sample
      is the eigenvector entry itself;
    * odd, [u; (0); -J u] / sqrt 2: B - CJ.

    Each block's eigenvalues come from one of two routes:

    * the capability of ``kernels.boundary_equation``: T^{-1} is a second
      difference with two boundary rows, and lam are the roots of one
      boundary equation per block (``_boundary_spectrum``): O(n) time per
      safeguarded Newton step of ``bracketed_roots``, a few of them
      whatever n is, and O(n) memory;
    * every other kernel: ``np.linalg.eigvalsh`` on each block, built one
      at a time, so the peak is one block (n^2 / 4 doubles) and eigvalsh's
      copy of it.

    Every eigenvalue of both blocks is kept, so the trace of the pair,
    2 tr B + (T_pp for odd n), is tr T = n h F(0) and trace() = sum lam
    keeps its meaning.  The two ascending lists merge into one descending
    order; a kernel whose smallest eigenvalue is below -EPS_PSD is refused.
    The decomposition keeps the row and the merge permutation, from which
    ``eigenfunctions`` runs ``eigh`` on the same blocks when first read.
    """
    n = cfg.node_count
    a = kernel.half_width
    h = a / n
    nodes = (np.arange(n) + 0.5) * h
    weights = np.full(n, h)
    row = h * kernel(nodes - nodes[0]).real
    lam = _boundary_spectrum(kernel, n)
    if lam is None:
        lam = np.concatenate([np.linalg.eigvalsh(_parity_block(row, odd=False)),
                              np.linalg.eigvalsh(_parity_block(row, odd=True))])
    order = np.argsort(lam)[::-1]
    lam = lam[order]
    if lam[-1] < -EPS_PSD:
        raise DomainError(
            f"kernel '{kernel.family}' rejected: Nystrom matrix has eigenvalue "
            f"{lam[-1]:.3e} < -{EPS_PSD}")
    column = np.empty(n, dtype=np.intp)
    column[order] = np.arange(n)
    return MercerDecomposition(kernel, nodes, weights, lam, row, column)


def kernel_reconstruct(dec: MercerDecomposition, N: int, x: float, y: float) -> complex:
    """Truncated Mercer expansion sum_{n<N} lam_n xi_n(x) conj(xi_n(y));
    off-node points use the Nystrom extension."""
    if N > dec.rank:
        raise DomainError("N exceeds rank")
    fx, fy = dec.eigenfunction_at(slice(N), [float(x), float(y)])
    return complex(np.sum(dec.eigenvalues[:N] * fx * np.conj(fy)))


def hf_inner_via_inverse(h_nodes: np.ndarray, k_nodes: np.ndarray,
                         dec: MercerDecomposition, m: int) -> complex:
    """<h, k>_{H_F} ~ sum_{n<m} lam_n^{-1} <h, xi_n>_2 <xi_n, k>_2 (spectrally
    truncated inverse; T_F^{-1} is never formed).  When k is h, its
    coefficients are computed once."""
    ch = dec.coefficients(np.asarray(h_nodes), m)
    ck = ch if k_nodes is h_nodes else dec.coefficients(np.asarray(k_nodes), m)
    return complex(np.sum(np.conj(ch) * ck / dec.eigenvalues[:m]))


def volterra_apply(f: Callable[[np.ndarray], np.ndarray], n: int = 800,
                   grid: Optional[np.ndarray] = None):
    """T_F f for the exp kernel at the grid points (default the n + 1
    uniform points of [0, 1]): exp_kernel_apply on the n uniform cells of
    [0, 1] split at the grid points, so the quadrature resolves f however
    few points are asked for.  Returns (grid, values).
    """
    lattice = np.linspace(0.0, 1.0, n + 1)
    grid = lattice if grid is None else np.asarray(grid, dtype=float)
    full = np.union1d(lattice, grid)
    values, _ = exp_kernel_apply(full, f)
    idx = np.searchsorted(full, grid)
    return grid, values[idx]


def apply_operator(kernel: PdKernel, f: Callable, xs) -> np.ndarray:
    """Oracle-grade (T_F f)(x) by adaptive quadrature split where the
    integrand is not smooth: the kink at y = x and y = x -+ t for each of the
    kernel's knots t; independent of both the Nystrom matrix and
    exp_kernel_apply.  A table has a knot at every node, so each integral
    runs over about as many pieces as the table has nodes: the offsets are
    checked once, F is evaluated without the per-call domain check, and the
    imaginary part is integrated only for a complex-valued integrand."""
    from scipy.integrate import quad
    a = kernel.half_width
    knots = np.asarray(kernel.knots, dtype=float)
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    kernel(np.concatenate([xs, xs - a]))      # DomainError if some x - y leaves [-a, a]
    F = lambda t: kernel.evaluate(np.abs(t))
    out = np.empty(len(xs), dtype=complex)
    for i, x in enumerate(xs):
        pts = np.concatenate([[x], x - knots, x + knots])
        pts = np.unique(pts[(pts > 0) & (pts < a)])
        out[i] = quad(lambda y: F(x - y) * f(y), 0.0, a,
                      complex_func=np.iscomplexobj(F(0.0) * f(x)),
                      points=pts if pts.size else None, limit=200 + pts.size)[0]
    return out if np.max(np.abs(out.imag)) > 1e-13 else out.real


def _fd_second_derivative(values: np.ndarray, h: float) -> np.ndarray:
    """4th-order central second derivative on the interior (2 cells trimmed
    at each end)."""
    v = values
    return (-v[:-4] + 16 * v[1:-3] - 30 * v[2:-2] + 16 * v[3:-1] - v[4:]) / (12 * h * h)


@dataclass(frozen=True)
class GreensInverseResult:
    grid: np.ndarray            # interior grid (two cells trimmed per side)
    values: np.ndarray          # recovered phi
    boundary_ok: bool
    boundary_residuals: tuple[float, ...]   # one per descriptor boundary row


def greens_inverse_apply(grid, values: Optional[np.ndarray] = None,
                         dvalues: Optional[np.ndarray] = None,
                         kernel: Union[PdKernel, str] = "exp") -> GreensInverseResult:
    """Invert T_F on its range through the kernel's elliptic descriptor
    P(xi) = c0 + c2 xi^2: phi = P(-i d/dx) f = c0 f - c2 f'', with f'' by
    4th-order differences on the interior grid (exp: (f - f'')/2, triangle:
    -f''/2).

    ``kernel`` is a PdKernel or a name for kernel_from_name; a kernel
    without a descriptor raises DomainError.  Accepts either (grid, values,
    dvalues) arrays or a Sampled element as the first argument.  With
    derivative samples, the descriptor's boundary rows are applied to
    (f(0), f'(0), f(a), f'(a)); residuals above 1e-6 max(1, max|f|) are
    flagged, not enforced.
    """
    if isinstance(kernel, str):
        kernel = kernel_from_name(kernel)
    desc = descriptor_for_kernel(kernel)
    c0, _, c2 = desc.poly_coeffs
    if values is None:          # Sampled element passed directly
        el = grid
        grid, values, dvalues = el.grid, el.values, el.dvalues
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values)
    h = grid[1] - grid[0]
    fpp = _fd_second_derivative(values, h)
    phi = c0 * values[2:-2] - c2 * fpp
    if dvalues is None:
        return GreensInverseResult(grid[2:-2], phi, True,
                                   (np.nan,) * len(desc.boundary_rows))
    res = desc.boundary_residuals(values[0], dvalues[0], values[-1], dvalues[-1])
    scale = max(1.0, float(np.max(np.abs(values))))
    return GreensInverseResult(grid[2:-2], phi, all(r < 1e-6 * scale for r in res), res)
