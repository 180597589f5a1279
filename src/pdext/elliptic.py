"""Elliptic-operator view of T_F^{-1} and the Mercer roots.

The inverse Mercer operator extends a constant-coefficient second order
operator with kernel-determined boundary conditions.  The paper's root
equations, which ``solve_transcendental`` checks the roots of
``kernels.boundary_equation`` at h = 0 against:

* exp: (1/2)(I - d^2/dx^2) on (0, 1), h(0) = h'(0), h(1) = -h'(1);
  tan k = 2k/(k^2 - 1) with k^2 = 2 lam_D - 1 > 1, Mercer eigenvalue 2/(1 + k^2).
* triangle: -(1/2) d^2/dx^2 on (0, 1/2), h'(0) + h'(1/2) = 0 and
  h(0) + h(1/2) = (3/2) h'(0); the boundary determinant
  4 (1 + cos(k/2)) - 3 k sin(k/2) = 2 cos(k/4) [4 cos(k/4) - 3 k sin(k/4)]
  carries both root families, tan(k/4) = 4/(3k) and k = 2 pi (2m - 1), and
  dropping either breaks the trace sum; T_F > 0 forces k^2 = +2/lam.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

# the kernel structure lives in kernels; re-exported here for its users
from .kernels import (DomainError, EllipticDescriptor, PdKernel,  # noqa: F401
                      TranscendentalSpec, boundary_equation, bspline_autoconvolution,
                      descriptor_for_kernel, exp_bvp_spec, spec_for_kernel,
                      triangle_bvp_spec)
from .mercer import MercerDecomposition, hf_inner_via_inverse
# bracketed_roots lives in quadrature; re-exported here for its users
from .quadrature import bracketed_roots, panel_nodes, simpson  # noqa: F401

# bound on the normalized residual of a root k, in units of eps max(1, k):
# over the first 8000 roots of both printed equations it is at most 1.11 there,
# and a root moved by 1e-9 relative reads at least 134
ROOT_RESIDUAL_EPS = 8.0


def solve_transcendental(spec: TranscendentalSpec, count: int) -> np.ndarray:
    """First ``count`` positive roots: ``boundary_equation`` at h = 0 for the
    spec's (poly_exp, a), one root in each bracket [j pi/a, (j + 1) pi/a].
    A root k whose normalized residual in the spec's printed equation exceeds
    ROOT_RESIDUAL_EPS eps max(1, k) raises DomainError."""
    if count < 1:
        raise DomainError("count must be >= 1")
    roots = boundary_equation(*spec.second_order)[0](count)
    bound = ROOT_RESIDUAL_EPS * np.finfo(float).eps * np.maximum(1.0, roots)
    loose = np.abs(spec.normalized_residual(roots)) > bound
    if loose.any():
        raise DomainError(f"poorly converged root near k = {roots[loose][0]}")
    return roots


@dataclass(frozen=True)
class MercerMatchReport:
    matched: list            # (index, nystrom eigenvalue, root k, mapped root value, rel error)
    unmatched: list          # (index, nystrom eigenvalue)
    max_rel_error: float

    @property
    def all_matched(self) -> bool:
        return not self.unmatched


def verify_against_mercer(spec: TranscendentalSpec, dec: MercerDecomposition,
                          N: int) -> MercerMatchReport:
    """Match the top N Nystrom eigenvalues with mapped transcendental roots;
    eigenvalues with no root within 1e-3 relative are reported, not hidden.
    N above the decomposition's rank raises DomainError."""
    if N > dec.rank:
        raise DomainError(f"{N} eigenvalues asked of a rank {dec.rank} decomposition")
    roots = solve_transcendental(spec, max(2 * N + 8, 16))
    mapped = spec.mercer_map(roots)
    lam = dec.eigenvalues[:N]
    j = np.argmin(np.abs(mapped[None, :] - lam[:, None]), axis=1)
    rel = np.abs(mapped[j] - lam) / lam
    ok = rel < 1e-3
    matched = [(i, float(lam[i]), float(roots[j[i]]), float(mapped[j[i]]), float(rel[i]))
               for i in np.flatnonzero(ok).tolist()]
    unmatched = [(i, float(lam[i])) for i in np.flatnonzero(~ok).tolist()]
    return MercerMatchReport(matched, unmatched, float(np.max(rel[ok], initial=0.0)))


# ---------------------------------------------------------------------------
# distributional identities
# ---------------------------------------------------------------------------

def mollifier(center: float, width: float):
    """C_c^infty bump exp(-1/(1-u^2)) on |u| < 1, u = (x-center)/width,
    with analytic first and second derivatives.  A center that is not
    finite, a width <= 0, or a width whose square is not a finite normal
    float (the second derivative divides by it) raises DomainError."""
    square = float(width) * float(width)
    if not (np.isfinite(center) and width > 0 and np.isfinite(square)
            and square >= np.finfo(float).tiny):
        raise DomainError(f"mollifier needs a finite center and a width > 0 whose square "
                          f"is a finite normal float, got center {center!r}, width {width!r}")

    def parts(x):
        u = (np.asarray(x, dtype=float) - center) / width
        inside = np.abs(u) < 1.0
        u = np.where(inside, u, 0.0)
        denom = 1.0 - u * u
        f = np.where(inside, np.exp(-1.0 / np.where(inside, denom, 1.0)), 0.0)
        g1 = -2.0 * u / denom ** 2
        g2 = -2.0 * (1.0 + 3.0 * u ** 2) / denom ** 3
        return f, np.where(inside, f * g1 / width, 0.0), \
            np.where(inside, f * (g1 * g1 + g2) / width ** 2, 0.0)

    return (lambda x: parts(x)[0], lambda x: parts(x)[1], lambda x: parts(x)[2])


@dataclass(frozen=True)
class DeltaCheckRow:
    center: float
    width: float
    lhs: float                 # int F psi''
    rhs: float                 # distributional prediction
    error: float


def distributional_derivative_check(kernel: PdKernel, test_functions):
    """Verify the delta identity of the descriptor P(xi) = c0 + c2 xi^2,
    c0 T_F - c2 (T_F)'' = delta_0 in distributions:

        int F psi'' dx = (c0 int F psi dx - psi(0)) / c2

    (triangle: -2 psi(0); exp: int F psi - 2 psi(0)) for smooth psi compactly
    supported in (-a, a).  Kernels without a descriptor raise DomainError."""
    c0, _, c2 = descriptor_for_kernel(kernel).poly_coeffs
    a = kernel.half_width
    rows = []
    x, w = panel_nodes(-a, a, 600, 8)
    for psi, dpsi, d2psi, center, width in test_functions:
        # keep the kernel kink at 0 on a panel edge
        neg = x < 0
        lhs = float(np.sum(w[neg] * kernel(x[neg]) * d2psi(x[neg])) +
                    np.sum(w[~neg] * kernel(x[~neg]) * d2psi(x[~neg])))
        psi0 = float(psi(np.array([0.0]))[0])
        rhs = (c0 * float(np.sum(w * kernel(x) * psi(x))) - psi0) / c2
        rows.append(DeltaCheckRow(center, width, lhs, rhs, abs(lhs - rhs)))
    return rows


def delta_report_json(rows: Sequence[DeltaCheckRow]) -> str:
    import json
    return json.dumps([{"center": r.center, "width": r.width, "lhs": r.lhs,
                        "rhs": r.rhs, "error": r.error} for r in rows])


def root_table_rows(spec: TranscendentalSpec, count: int):
    """CSV rows (i, k_i, mapped eigenvalue, normalized residual)."""
    roots = solve_transcendental(spec, count)
    return [(i + 1, float(k), float(spec.mercer_map(k)),
             abs(float(spec.normalized_residual(k))))
            for i, k in enumerate(roots)]


def standard_bumps(kernel: PdKernel, seed: int = 0, count: int = 10):
    """Random bumps supported in (-a, a), plus one centered at 0."""
    a = kernel.half_width
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        if i == 0:
            c, wdt = 0.0, 0.6 * a
        else:
            c = rng.uniform(-0.4 * a, 0.4 * a)
            wdt = rng.uniform(0.2 * a, 0.55 * a)
        f, df, d2f = mollifier(c, wdt)
        out.append((f, df, d2f, c, wdt))
    return out


# ---------------------------------------------------------------------------
# ellipticity and the B-spline operator bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EllipticityReport:
    verdict: str               # "elliptic" | "not elliptic at this resolution"
    constant: float
    stabilized: bool = False   # < 10% relative change between the two ranks


def ellipticity_check(kernel: PdKernel, dec: MercerDecomposition,
                      samples, m: Optional[int] = None) -> EllipticityReport:
    """Estimate C = max <h, T_F^{-1} h>_2 / (||h||_2^2 + ||h'||_2^2) over the
    samples at truncation ranks m and 2m; > 2x growth between the ranks
    means "not elliptic at this resolution", and < 10% change marks the
    constant as stabilized."""
    if m is None:
        m = dec.rank // 4
    if 2 * m > dec.rank:
        raise DomainError("rank 2m exceeds the decomposition rank")
    ratios = {m: 0.0, 2 * m: 0.0}
    for h in samples:
        spl = h.interpolator()
        hv = spl(dec.nodes)
        if h.dfn is not None:
            dv = h.dfn(dec.nodes)
        else:
            eps = 1e-6
            dv = (spl(dec.nodes + eps) - spl(dec.nodes - eps)) / (2 * eps)
        denom = float(np.sum(dec.weights * (np.abs(hv) ** 2 + np.abs(dv) ** 2)))
        for rank in (m, 2 * m):
            num = hf_inner_via_inverse(hv, hv, dec, rank).real
            ratios[rank] = max(ratios[rank], num / denom)
    c_m, c_2m = ratios[m], ratios[2 * m]
    stabilized = abs(c_2m - c_m) < 0.1 * c_2m
    if c_2m > 2.0 * c_m:
        return EllipticityReport("not elliptic at this resolution", c_2m, stabilized)
    return EllipticityReport("elliptic", c_2m, stabilized)


@dataclass(frozen=True)
class OperatorBoundReport:
    k: int
    bound_sq: float            # (k/2)^2
    ratios: np.ndarray
    passed: bool


def bspline_operator_bound(k: int, trials: int = 50, seed: int = 0,
                           a: float = 0.5) -> OperatorBoundReport:
    """Estimate ||D F_phi||^2 / ||F_phi||^2 for the sinc^k kernel through the
    spectral form int u^2 |phihat|^2 dmu_k / int |phihat|^2 dmu_k, where
    mu_k is the box autoconvolution B^{*k} and phihat is the Fourier
    transform in the normalized frequency u of mu_k's support [-k/2, k/2].
    Every ratio is bounded by (k/2)^2 since |u| <= k/2 on the support."""
    if k < 1:
        raise DomainError("k must be >= 1")
    rng = np.random.default_rng(seed)
    u = np.linspace(-0.5 * k, 0.5 * k, 4001)
    dens = bspline_autoconvolution(k, u)
    y, w = panel_nodes(0.0, a, 200, 6)
    phases = np.exp(-2j * np.pi * np.outer(u, y))   # trial-independent
    ratios = np.empty(trials)
    for t in range(trials):
        n_bump = rng.integers(1, 4)
        phi_y = np.zeros_like(y)
        for _ in range(n_bump):
            c = rng.uniform(0.2 * a, 0.8 * a)
            wd = rng.uniform(0.1 * a, 0.3 * a)
            amp = rng.uniform(0.5, 2.0)
            phi_y += amp * mollifier(c, wd)[0](y)
        phihat = phases @ (w * phi_y)
        p2 = np.abs(phihat) ** 2
        num = simpson(u * u * p2 * dens, u)
        den = simpson(p2 * dens, u)
        ratios[t] = num / den
    bound = (0.5 * k) ** 2
    return OperatorBoundReport(k, bound, ratios,
                               bool(np.all(ratios <= bound + 1e-6)))


@dataclass(frozen=True)
class SupportReport:
    k: int
    support: tuple[float, float]
    max_outside: float
    max_dev_from_closed_form: float
    passed: bool


def support_check(k: int) -> SupportReport:
    """Confirm B^{*k} vanishes outside [-k/2, k/2] and agrees with a direct
    numerical autoconvolution of the box indicator (compared away from the
    breakpoints -k/2 + j, where the k = 1 indicator jumps)."""
    if k < 1:
        raise DomainError("k must be >= 1")
    half = 0.5 * k
    u = np.linspace(-half - 2.0, half + 2.0, 20001)
    vals = bspline_autoconvolution(k, u)
    outside = np.abs(u) > half + 1e-9
    max_out = float(np.max(np.abs(vals[outside]))) if np.any(outside) else 0.0
    # numeric oracle: repeated grid convolution of the indicator
    h = u[1] - u[0]
    box = ((u > -0.5) & (u < 0.5)).astype(float)
    conv = box.copy()
    for _ in range(k - 1):
        conv = np.convolve(conv, box, mode="same") * h
    breakpoints = -half + np.arange(k + 1)
    near_break = np.min(np.abs(u[:, None] - breakpoints[None, :]), axis=1) < 2 * h
    dev = float(np.max(np.abs(conv[~near_break] - vals[~near_break])))
    return SupportReport(k, (-half, half), max_out, dev,
                         max_out < 1e-12 and dev < 5e-3)
