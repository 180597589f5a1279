"""Elements of the reproducing kernel Hilbert space H_F and their inner products.

Three element representations:

* ``KernelCombo``  -- finite combinations sum_j c_j F(. - x_j); inner products
                      are exact kernel evaluations.
* ``Smoothed``     -- a test function phi on (0, a); the element is the
                      integral transform F_phi = T_F phi; calling it
                      evaluates phi (``fn``, else its samples interpolated).
* ``Sampled``      -- values and derivative values on a uniform grid of [0, a]
                      plus boundary data, optionally backed by callables for
                      high-order quadrature.

For the exp kernel the H_F inner product has the Sobolev boundary form

    <h, k> = (1/2)(<h, k>_2 + <h', k'>_2) + (1/2)(conj(h(0)) k(0) + conj(h(1)) k(1)).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .kernels import (EXP_DESCRIPTOR, MEASURE_GRID_POINTS, DomainError, MeasureOnInterval,
                      PdKernel, csv_columns, descriptor_for_kernel, simpson_grid)
from .quadrature import (_BLOCK_ENTRIES, GL_POINTS, UNIT_PANELS, convolution_apply, gl_rule,
                         integrate, poly_exp_kernel_apply, simpson, split_panel_nodes)


@dataclass(frozen=True)
class BoundaryData:
    h0: complex
    dh0: complex
    ha: complex
    dha: complex


@dataclass(frozen=True)
class KernelCombo:
    """sum_j c_j F(. - x_j) with centers x_j in [0, a]."""
    coeffs: tuple[tuple[complex, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs",
                           tuple((complex(c), float(x)) for c, x in self.coeffs))


@dataclass(frozen=True)
class Smoothed:
    """Test function phi on (0, a); represents the element F_phi = T_F phi."""
    grid: np.ndarray
    values: np.ndarray
    fn: Optional[Callable] = None

    def __post_init__(self):
        object.__setattr__(self, "grid", np.asarray(self.grid, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values))

    def __call__(self, t):
        if self.fn is not None:
            return self.fn(t)
        g, v = self.grid, self.values
        return np.interp(t, g, v.real) + (
            1j * np.interp(t, g, v.imag) if np.iscomplexobj(v) else 0.0)


@dataclass(frozen=True)
class Sampled:
    """Function samples h(x_i) and h'(x_i) on a uniform grid of [0, a].
    ``dvalues`` may be None for elements whose derivative is unavailable;
    operations that need it (the Sobolev-form inner product) then raise.
    ``kinks`` lists interior points where the derivative jumps, so that
    quadrature panels can be split there."""
    grid: np.ndarray
    values: np.ndarray
    dvalues: Optional[np.ndarray]
    boundary: BoundaryData
    fn: Optional[Callable] = None
    dfn: Optional[Callable] = None
    kinks: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "grid", simpson_grid(self.grid))
        object.__setattr__(self, "values", np.asarray(self.values))
        if self.dvalues is not None:
            object.__setattr__(self, "dvalues", np.asarray(self.dvalues))

    def interpolator(self):
        if self.fn is not None:
            return self.fn
        from scipy.interpolate import CubicHermiteSpline
        dv = self.dvalues
        if dv is None:
            dv = fd_derivative(self.values, self.grid[1] - self.grid[0])
        return CubicHermiteSpline(self.grid, self.values, dv)


RkhsElement = Union[KernelCombo, Smoothed, Sampled]


def fd_derivative(values: np.ndarray, h: float) -> np.ndarray:
    """4th-order first derivative on a uniform grid, one-sided at the ends."""
    v = np.asarray(values)
    d = np.empty_like(v)
    d[2:-2] = (v[:-4] - 8 * v[1:-3] + 8 * v[3:-1] - v[4:]) / (12 * h)
    for i in (0, 1):
        d[i] = (-25 * v[i] + 48 * v[i + 1] - 36 * v[i + 2]
                + 16 * v[i + 3] - 3 * v[i + 4]) / (12 * h)
        d[-1 - i] = (25 * v[-1 - i] - 48 * v[-2 - i] + 36 * v[-3 - i]
                     - 16 * v[-4 - i] + 3 * v[-5 - i]) / (12 * h)
    return d


def sampled_from_callable(fn: Callable, kernel_or_a, n: int = 2000,
                          dfn: Optional[Callable] = None,
                          kinks: tuple[float, ...] = ()) -> Sampled:
    """Sampled element from a callable; derivative by 4th-order differences
    when no analytic derivative is supplied."""
    a = kernel_or_a.half_width if isinstance(kernel_or_a, PdKernel) else float(kernel_or_a)
    grid = np.linspace(0.0, a, n + 1)
    values = fn(grid)
    dvalues = dfn(grid) if dfn is not None else fd_derivative(values, grid[1] - grid[0])
    bd = BoundaryData(values[0], dvalues[0], values[-1], dvalues[-1])
    return Sampled(grid, values, dvalues, bd, fn=fn, dfn=dfn, kinks=kinks)


def complex_exponential(lam: float, a: float = 1.0, n: int = 2000) -> Sampled:
    """e_lambda(x) = e^{i lambda x} as a Sampled element with exact callables."""
    fn = lambda x: np.exp(1j * lam * np.asarray(x, dtype=float))
    dfn = lambda x: 1j * lam * np.exp(1j * lam * np.asarray(x, dtype=float))
    return sampled_from_callable(fn, a, n=n, dfn=dfn)


def e_lambda_weights(lams) -> np.ndarray:
    """1/||e_lam||^2 = 2/(lam^2 + 3) for the exp kernel on [0, 1].
    extensions._tail_bound's trigamma majorant of the excluded weights
    assumes this form."""
    return 2.0 / (np.asarray(lams, dtype=float) ** 2 + 3.0)


def exp_sum(lams, coeffs, x) -> np.ndarray:
    """sum_n c_n e^{i lam_n x}, with the shape of x.  e^{i lam_n x} is formed
    for about _BLOCK_ENTRIES (x, lam) pairs at a time and each x is reduced
    on its own, so memory stays O(len(x) + len(lams) + block)."""
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    rows = max(1, _BLOCK_ENTRIES // max(1, len(lams)))
    return np.concatenate([np.exp(1j * np.outer(flat[i:i + rows], lams)) @ coeffs
                           for i in range(0, max(1, flat.size), rows)]).reshape(x.shape)


def resolving_panels(lambdas) -> int:
    """Panels of the GL_POINTS-point rule on [0, 1] that resolve e^{-i lam y}
    for every lam: the smallest power of two >= max(UNIT_PANELS, max|lam|/2)."""
    top = float(np.max(np.abs(lambdas), initial=0.0)) / 2.0
    return UNIT_PANELS if top <= UNIT_PANELS else 1 << math.ceil(math.log2(top))


def lattice_fourier(f: Callable, lambdas) -> np.ndarray:
    """int_0^1 f(y) e^{-i lam y} dy for every lam, on P = resolving_panels
    GL panels of width h = 1/P.  Node q of panel B alpha + beta (B about
    sqrt P) is y = (B alpha + beta + s_q) h, so e^{-i lam y} is
    e^{-i lam B alpha h} e^{-i lam beta h} e^{-i lam s_q h}: the sum over beta
    is one matrix product, the sums over alpha and q are reductions of its
    result, and each lam needs P/B + B + GL_POINTS exponentials, not
    GL_POINTS P.  Time is O(len(lambdas) P); lam is taken _BLOCK_ENTRIES / P
    at a time, so memory stays O(P + _BLOCK_ENTRIES)."""
    lambdas = np.asarray(lambdas, dtype=float)
    _, fw, s = _panel_samples(f, resolving_panels(lambdas))
    return _lattice_sum(fw, s, lambdas)


def _panel_samples(f: Callable, P: int):
    """The GL_POINTS-point rule on P panels of [0, 1]: nodes y[p, q] =
    (p + s_q)/P, the samples f(y) times the weights, both of shape
    (P, GL_POINTS), and the offsets s in [0, 1]."""
    t, wq = gl_rule(GL_POINTS)
    s = 0.5 * (1.0 + t)
    y = (np.arange(P)[:, None] + s) / P
    fw = np.asarray(f(y.ravel())) * np.tile(0.5 * wq / P, P)
    return y, fw.reshape(P, GL_POINTS), s


def _lattice_sum(fw: np.ndarray, s: np.ndarray, lambdas: np.ndarray) -> np.ndarray:
    """sum_{p, q} fw[p, q] e^{-i lam (p + s_q)/P} for every lam, factored
    over the panel lattice as ``lattice_fourier`` describes."""
    P = len(fw)
    B = 1 << (P.bit_length() - 1) // 2
    # v[beta, (alpha, q)], complex once rather than inside every product
    v = fw.reshape(P // B, B, GL_POINTS).transpose(1, 0, 2).reshape(B, -1).astype(complex)

    def block(lam):
        phase = lambda steps: np.exp(-1j * np.outer(lam, steps / P))
        m = (phase(np.arange(B)) @ v).reshape(len(lam), P // B, GL_POINTS)   # over beta
        m = (phase(np.arange(0, P, B))[:, None, :] @ m)[:, 0]                # over alpha
        return (m * phase(s)).sum(axis=1)                                    # over q

    rows = max(1, _BLOCK_ENTRIES // P)
    return np.concatenate([block(lambdas[i:i + rows])
                           for i in range(0, max(1, len(lambdas)), rows)])


# |eps| = |lam - shift - 2 pi j| up to which shifted_lattice_fourier sums the
# FFT series; 2/64 covers Lambda_theta past |lam| = 64, where |eps| <= 2/|lam|
LATTICE_EPS = 2.0 / 64.0
# terms of the series: the smallest K with LATTICE_EPS^K / K! <= eps
_SERIES_TERMS = next(K for K in range(1, 64)
                     if LATTICE_EPS ** K / math.factorial(K) <= np.finfo(float).eps)


def shifted_lattice_fourier(f: Callable, lambdas, shift: float) -> np.ndarray:
    """``lattice_fourier(f, lambdas)``, on the same nodes, for lam near the
    lattice shift + 2 pi Z.  With lam = shift + 2 pi j + eps and node
    y = (p + s_q)/P,

        phihat(lam) = sum_k (-i eps)^k / k! sum_q e^{-2 pi i j s_q/P}
                      FFT_p[fw y^k e^{-i shift y}](j mod P),

    fw the weighted samples: GL_POINTS FFTs of length P per term k, and
    O(GL_POINTS) work per lam.  The series runs to _SERIES_TERMS, so its
    remainder is below eps int|f| for |eps| <= LATTICE_EPS; the other lam
    go to the lattice-factored sum.  Time is O(P log P + len(lambdas))
    plus O(P) per lam off the lattice."""
    lambdas = np.asarray(lambdas, dtype=float)
    P = resolving_panels(lambdas)
    y, fw, s = _panel_samples(f, P)
    j = np.round((lambdas - shift) / (2.0 * math.pi))
    eps = (lambdas - shift) - 2.0 * math.pi * j
    near = np.abs(eps) <= LATTICE_EPS
    out = np.empty(len(lambdas), dtype=complex)
    out[~near] = _lattice_sum(fw, s, lambdas[~near])
    if not np.any(near):
        return out
    j, eps = j[near].astype(int), eps[near]
    phase, rows = np.exp(-2j * math.pi * np.outer(s, j) / P), j % P   # [q, lam]
    # rows q of fw e^{-i shift y}, e^{-i shift y} factored as panel x offset
    g = (fw * np.exp(-1j * shift / P * np.arange(P))[:, None]
         * np.exp(-1j * shift / P * s)).T.copy()
    yq = y.T.copy()
    sums = []
    for _ in range(_SERIES_TERMS):
        sums.append(np.einsum("qm,qm->m", np.fft.fft(g)[:, rows], phase))
        g *= yq
    total = sums[-1]
    for k in range(_SERIES_TERMS - 1, 0, -1):           # Horner in -i eps
        total = sums[k - 1] + (-1j * eps / k) * total
    out[near] = total
    return out


# ---------------------------------------------------------------------------
# inner products
# ---------------------------------------------------------------------------

def _combo_matrix(combos: Sequence[KernelCombo]):
    """Distinct centers X and coefficients C with combos[i] = sum_j C[i, j] F(. - X[j])."""
    pairs = [p for cb in combos for p in cb.coeffs]
    rows = np.repeat(np.arange(len(combos)), [len(cb.coeffs) for cb in combos])
    centers, cols = np.unique([x for _, x in pairs], return_inverse=True)
    C = np.zeros((len(combos), len(centers)), dtype=complex)
    np.add.at(C, (rows, cols), [c for c, _ in pairs])
    return centers, C


def combo_gram(combos: Sequence[KernelCombo], kernel: PdKernel) -> np.ndarray:
    """[<combos[i], combos[j]>] = conj(C) F(X - X^T) C^T by exact kernel arithmetic."""
    X, C = _combo_matrix(combos)
    return C.conj() @ kernel(X[:, None] - X[None, :]) @ C.T


def combo_eval(combos: Sequence[KernelCombo], kernel: PdKernel, xs) -> np.ndarray:
    """[combos[j](xs[i])], shape (len(xs), len(combos))."""
    X, C = _combo_matrix(combos)
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    return kernel(xs[:, None] - X[None, :]) @ C.T


def inner_product_combo(a: KernelCombo, b: KernelCombo, kernel: PdKernel) -> complex:
    """<sum c_i F_{x_i}, sum d_j F_{y_j}> = sum conj(c_i) d_j F(x_i - y_j)."""
    return complex(combo_gram([a, b], kernel)[0, 1])


def _l2_pair(h: Sampled, k: Sampled, use_deriv: bool) -> complex:
    """int conj(h) k (or conj(h') k') over the grid span; composite GL when
    both sides carry callables (panels split at declared kinks), Simpson on
    the shared grid otherwise."""
    hf = h.dfn if use_deriv else h.fn
    kf = k.dfn if use_deriv else k.fn
    if hf is not None and kf is not None:
        return complex(integrate(lambda x: np.conj(hf(x)) * kf(x), h.grid[0], h.grid[-1],
                                 UNIT_PANELS, GL_POINTS, split_points=set(h.kinks) | set(k.kinks)))
    if len(h.grid) != len(k.grid) or not np.allclose(h.grid, k.grid):
        raise DomainError("sampled elements live on different grids")
    hv = h.dvalues if use_deriv else h.values
    kv = k.dvalues if use_deriv else k.values
    return complex(simpson(np.conj(hv) * kv, h.grid))


def _check_unit_sobolev(*els: Sampled):
    """The exp kernel's Sobolev form needs derivative samples on [0, 1]."""
    if any(el.dvalues is None for el in els):
        raise DomainError("exp_inner_product requires derivative samples")
    if any(abs(el.grid[-1] - 1.0) > 1e-12 for el in els):
        raise DomainError("exp_inner_product is defined on [0, 1]")


def exp_inner_product(h: Sampled, k: Sampled) -> complex:
    """H_F inner product of the exp kernel in Sobolev boundary form (domain
    [0, 1]); requires derivative samples on both arguments."""
    _check_unit_sobolev(h, k)
    val = 0.5 * (_l2_pair(h, k, False) + _l2_pair(h, k, True))
    hb, kb = h.boundary, k.boundary
    val += 0.5 * (np.conj(hb.h0) * kb.h0 + np.conj(hb.ha) * kb.ha)
    return complex(val)


def exp_norm_sq(h: Sampled) -> float:
    return exp_inner_product(h, h).real


def _unit_fourier(h: Sampled, lambdas: np.ndarray, use_deriv: bool) -> np.ndarray:
    """int_0^1 e^{-i lam x} h(x) dx (or h') for every lam, on the nodes
    _l2_pair pairs e_lam with h on: GL split at h's kinks when h carries a
    callable (an exp_sum over those nodes), Simpson on h.grid otherwise,
    128 lam at a time."""
    f = h.dfn if use_deriv else h.fn
    if f is not None:
        x, w = split_panel_nodes(0.0, 1.0, UNIT_PANELS, GL_POINTS, h.kinks)
        return exp_sum(x, w * f(x), -lambdas)
    v = h.dvalues if use_deriv else h.values
    blocks = np.split(lambdas, np.arange(128, len(lambdas), 128))
    return np.concatenate([simpson(np.exp(-1j * np.outer(lams, h.grid)) * v, h.grid)
                           for lams in blocks])


def exp_basis_coefficients(h: Sampled, lambdas: Sequence[float]) -> np.ndarray:
    """c_n = <e_n, h> / ||e_n||^2 over e_n = e^{i lam_n x} on [0, 1], all
    lam at once: with f^(lam) = int_0^1 e^{-i lam x} f dx, the Sobolev form
    gives <e_lam, h> = (1/2)(h^(lam) - i lam h'^(lam)) + (1/2)(h(0) + e^{-i lam} h(1)).
    |lam| above 2 UNIT_PANELS, beyond the resolution of the [0, 1] rule, raises."""
    lambdas = np.asarray(lambdas, dtype=float)
    if np.any(np.abs(lambdas) > 2 * UNIT_PANELS):
        raise DomainError(f"|lambda| = {np.max(np.abs(lambdas)):.6g} above {2 * UNIT_PANELS}, "
                          "where the [0, 1] quadrature no longer resolves e_lambda")
    _check_unit_sobolev(h)
    hat, dhat = _unit_fourier(h, lambdas, False), _unit_fourier(h, lambdas, True)
    b = h.boundary
    inner = 0.5 * (hat - 1j * lambdas * dhat) + 0.5 * (b.h0 + np.exp(-1j * lambdas) * b.ha)
    return inner * e_lambda_weights(lambdas)


# ---------------------------------------------------------------------------
# the smoothing transform F_phi = T_F phi
# ---------------------------------------------------------------------------

def _apply(kernel: PdKernel, grid, g, deriv: bool = True):
    """(T_F g, (T_F g)') on the grid: the O(n) prefix-moment apply of the
    kernel's ``poly_exp`` when attached, else FFT convolution on the uniform
    grid (the derivative only when asked for)."""
    if kernel.poly_exp is not None:
        return poly_exp_kernel_apply(*kernel.poly_exp, grid, g, GL_POINTS)
    return convolution_apply(kernel, kernel.deriv if deriv else None, grid, g, GL_POINTS)


def smooth(phi, kernel: PdKernel, n: int = 2000) -> Sampled:
    """F_phi(x) = int_0^a phi(y) F(x - y) dy with derivative
    F_phi'(x) = int phi(y) F'(x - y) dy and boundary data from the same
    quadrature.  phi must vanish at the interval endpoints."""
    a = kernel.half_width
    grid = np.linspace(0.0, a, n + 1)
    phi_fn = phi if callable(phi) else Smoothed(*phi)
    ends = np.max(np.abs(np.asarray([phi_fn(np.array([0.0]))[0],
                                     phi_fn(np.array([a]))[0]])))
    probe = np.max(np.abs(phi_fn(np.linspace(0, a, 257))))
    if probe > 0 and ends > 1e-9 * probe:
        raise DomainError("test function must vanish at the endpoints")
    values, dvalues = _apply(kernel, grid, phi_fn)
    bd = BoundaryData(values[0], dvalues[0], values[-1], dvalues[-1])
    return Sampled(grid, values, dvalues, bd)


def inner_product_smoothed(phi, psi, kernel: PdKernel, n: int = 2000) -> complex:
    """<F_phi, F_psi> = double integral of conj(phi(x)) psi(y) F(x - y),
    evaluated as int conj(phi) (T_F psi) with the kink-split inner transform."""
    a = kernel.half_width
    grid = np.linspace(0.0, a, n + 1)
    phi_fn = phi if callable(phi) else Smoothed(*phi)
    psi_fn = psi if callable(psi) else Smoothed(*psi)
    tpsi, _ = _apply(kernel, grid, psi_fn, deriv=False)
    return complex(simpson(np.conj(phi_fn(grid)) * tpsi, grid))


def reproducing_eval(xi: RkhsElement, x: float, kernel: PdKernel) -> complex:
    """<F(. - x), xi> = xi(x), evaluated per representation."""
    x = float(x)
    if isinstance(xi, KernelCombo):
        return complex(combo_eval([xi], kernel, x)[0, 0])
    if isinstance(xi, Smoothed):
        return complex(integrate(lambda y: xi(y) * kernel(x - y), 0.0, kernel.half_width,
                                 2000, GL_POINTS, split_points=(x,)))
    return complex(xi.interpolator()(x))


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MembershipReport:
    verdict: str                  # "in" | "out" | "indeterminate"
    bound: float                  # largest Rayleigh quotient seen
    estimates: tuple[float, ...]  # bound at increasing basis sizes


def membership_test(h: Callable, kernel: PdKernel, basis_size: int,
                    dec=None) -> MembershipReport:
    """Estimate the least A with |int phi h|^2 <= A ||F_phi||^2 by maximizing
    over test functions in the span of the top Mercer eigenfunctions.

    The maximum over the span of xi_1..xi_m is exactly
    sum_{n<=m} |<xi_n, h>_2|^2 / lam_n, so the estimates are the truncated
    T_F^{-1/2} norms; membership shows up as stabilization under basis
    growth, non-membership as sustained geometric growth.
    """
    from . import mercer as _mercer
    if dec is None:
        dec = _mercer.discretize(kernel, _mercer.NystromConfig(
            node_count=max(256, 2 * basis_size)))
    if basis_size > dec.rank:
        raise DomainError(f"basis_size {basis_size} exceeds Mercer rank {dec.rank}")
    hv = h(dec.nodes) if callable(h) else np.asarray(h)
    sizes = [max(2, basis_size // 4), max(3, basis_size // 2), basis_size]
    ests = [_mercer.hf_inner_via_inverse(hv, hv, dec, m).real for m in sizes]
    a1, a2, a3 = ests
    if a3 <= a1 * 1.05:
        verdict = "in"
    elif a3 > 10.0 * a1 or (a2 >= 1.5 * a1 and a3 >= 1.5 * a2):
        verdict = "out"
    else:
        verdict = "indeterminate"
    return MembershipReport(verdict, a3, tuple(ests))


# ---------------------------------------------------------------------------
# measure representations of elements
# ---------------------------------------------------------------------------

def element_from_measure(mu: MeasureOnInterval, kernel: PdKernel,
                         n: int = 2000) -> Sampled:
    """F_mu(x) = int_0^a F(x - y) dmu(y); atoms exactly, density by
    kink-split panel quadrature."""
    a = kernel.half_width
    grid = np.linspace(0.0, a, n + 1)
    values = np.zeros(n + 1, dtype=complex)
    dvalues = np.zeros(n + 1, dtype=complex)
    if len(mu.grid) > 1 and np.max(np.abs(mu.density)) > 0:
        dens_fn = mu.density_fn if mu.density_fn is not None else Smoothed(mu.grid, mu.density)
        v, dv = _apply(kernel, grid, dens_fn)
        values += v
        dvalues += dv
    dleft, dright = kernel.deriv_at_zero
    for loc, w in mu.atoms:
        t = grid - loc
        # at x == loc the kernel kinks; take the one-sided limit pointing
        # into the interval (average for interior atoms)
        kink = dright if loc <= grid[0] + 1e-15 else \
            dleft if loc >= grid[-1] - 1e-15 else 0.5 * (dleft + dright)
        values += w * kernel(t)
        dvalues += w * np.where(np.abs(t) <= 1e-15, kink, kernel.deriv(t))
    if np.max(np.abs(values.imag)) < 1e-14 and np.max(np.abs(dvalues.imag)) < 1e-14:
        values = values.real
        dvalues = dvalues.real
    bd = BoundaryData(values[0], dvalues[0], values[-1], dvalues[-1])
    return Sampled(grid, values, dvalues, bd)


def _e_lambda_mixture(lams, coeffs) -> MeasureOnInterval:
    """sum_n c_n mu_{lam_n} (see e_lambda_measure) on the uniform
    MEASURE_GRID_POINTS grid of [0, 1]; its density is also its density_fn."""
    lams = np.asarray(lams, dtype=float)
    halves = coeffs * 0.5 * (1.0 + lams ** 2)
    density_fn = lambda y: exp_sum(lams, halves, y)
    atoms = ((0.0, complex(np.sum(coeffs * 0.5 * (1.0 - 1j * lams)))),
             (1.0, complex(np.sum(coeffs * 0.5 * (1.0 + 1j * lams) * np.exp(1j * lams)))))
    grid = np.linspace(0.0, 1.0, MEASURE_GRID_POINTS)
    return MeasureOnInterval.from_density((0.0, 1.0), grid, density_fn(grid), atoms,
                                          density_fn=density_fn)


def e_lambda_measure(lam: float) -> MeasureOnInterval:
    """The measure mu_lambda with F_{mu_lambda} = e^{i lambda x} for the exp
    kernel on (0, 1):

        dmu = (1/2)(1+lam^2) e^{i lam y} dy
              + (1/2)[(1 - i lam) delta_0 + (1 + i lam) e^{+i lam} delta_1].

    (Direct integration of e^{-|x-y|} against the density leaves the rest
    (1/2)(1-i lam) e^{-x} + (1/2)(1+i lam) e^{i lam} e^{x-1}, which pins the
    endpoint weights; the positive sign in the delta_1 exponent is forced.)
    Total variation (1+lam^2)/2 + sqrt(1+lam^2).
    """
    return _e_lambda_mixture(np.array([lam]), np.array([1.0]))


def element_measure_expansion(h: Sampled, lambdas: Sequence[float],
                              kernel: PdKernel) -> MeasureOnInterval:
    """dmu_h = sum_n (<e_n, h>/||e_n||^2) dmu_n over the spectrum Lambda_theta
    (exp kernel); element_from_measure of the result approximates h with the
    Parseval tail as the error budget.  The mu_n are built from the exp
    descriptor (1/2)(1 + xi^2) and its Robin rows; other kernels raise."""
    if descriptor_for_kernel(kernel) != EXP_DESCRIPTOR:
        raise DomainError("measure expansion needs the exp kernel's elliptic descriptor")
    return _e_lambda_mixture(lambdas, exp_basis_coefficients(h, lambdas))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def element_to_json(el: RkhsElement) -> str:
    if isinstance(el, KernelCombo):
        return json.dumps({"kind": "combo",
                           "coeffs": [[c.real, c.imag, x] for c, x in el.coeffs]})
    if isinstance(el, Smoothed):
        return json.dumps({"kind": "smoothed", "grid": el.grid.tolist(),
                           "values_re": np.real(el.values).tolist(),
                           "values_im": np.imag(el.values).tolist()})
    b = el.boundary
    return json.dumps({
        "kind": "sampled", "grid": el.grid.tolist(),
        "values_re": np.real(el.values).tolist(),
        "values_im": np.imag(el.values).tolist(),
        "dvalues_re": np.real(el.dvalues).tolist(),
        "dvalues_im": np.imag(el.dvalues).tolist(),
        "boundary": [[z.real, z.imag] for z in
                     (complex(b.h0), complex(b.dh0), complex(b.ha), complex(b.dha))],
    })


def element_from_json(text: str) -> RkhsElement:
    d = json.loads(text)
    if d["kind"] == "combo":
        return KernelCombo(tuple((complex(re, im), x) for re, im, x in d["coeffs"]))
    if d["kind"] == "smoothed":
        vals = np.asarray(d["values_re"]) + 1j * np.asarray(d["values_im"])
        return Smoothed(np.asarray(d["grid"]), vals)
    vals = np.asarray(d["values_re"]) + 1j * np.asarray(d["values_im"])
    dvals = np.asarray(d["dvalues_re"]) + 1j * np.asarray(d["dvalues_im"])
    if np.max(np.abs(vals.imag)) == 0 and np.max(np.abs(dvals.imag)) == 0:
        vals, dvals = vals.real, dvals.real
    bvals = [complex(re, im) for re, im in d["boundary"]]
    return Sampled(np.asarray(d["grid"]), vals, dvals, BoundaryData(*bvals))


def load_test_function_csv(path: str):
    """Load a test function phi from CSV rows (y, phi(y))."""
    return Smoothed(*csv_columns(path, "y", 2))
