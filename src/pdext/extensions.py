"""Selfadjoint-extension spectra and positive definite extensions to the line.

For F(x) = e^{-|x|} on (-1, 1) the derivative operator has defect vectors
e^{-x}, e^{x-1}; the selfadjoint extensions A_theta are indexed by
theta in [0, 2pi) and their spectra Lambda_theta solve

    e^{i lam} (1 + i lam) = e^{i theta} (1 - i lam),

equivalently the strictly monotone phase equation
lam + 2 arctan(lam) = theta + 2 pi n, one root per branch n.  The arctan
form of the same condition hides a branch choice, so all branches are
solved at once in the phase form and residuals are reported for the
complex equation with the 2 pi n multiple removed exactly.

Type-1 extensions: F_theta = sum 2/(lam^2+3) e^{i lam x} is the ThetaExpansion
of F_0 = e^{-x} over the orthogonal basis {e_lam : lam in Lambda_theta} of
H_F, in which U(t) = e^{i t A_theta} acts diagonally.
Type-2 family: G_r with exponential tails of rate r glued at |x| = 1; its
spectral measure is an ordinary SpectralMeasure (grid density, atom at r = 0,
cosine and sine tail terms), read by the same bochner_transform as every
other measure.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .kernels import (EPS_PSD, DomainError, PdKernel, SpectralMeasure,
                      TailDescriptor, bochner_transform)
from .quadrature import bracketed_roots
from .rkhs import (Sampled, e_lambda_weights, exp_basis_coefficients, exp_sum,
                   sampled_from_callable, shifted_lattice_fourier)


# ---------------------------------------------------------------------------
# the spectra Lambda_theta
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThetaSpectrum:
    """Discrete spectrum of A_theta: branch indices n, eigenvalues lam_n and
    residuals of the complex boundary equation (phase-reduced, so residuals
    stay meaningful for distant branches)."""

    theta: float
    branches: np.ndarray        # integer branch indices
    lambdas: np.ndarray
    residuals: np.ndarray

    def weights(self) -> np.ndarray:
        """ONB weights 1/||e_lam||^2."""
        return e_lambda_weights(self.lambdas)


def solve_theta_spectrum(theta: float, N: int) -> ThetaSpectrum:
    """Solve lam + 2 arctan(lam) = theta + 2 pi n for n in [-N, N].

    Each branch window (theta + (2n-1) pi, theta + (2n+1) pi) holds exactly
    one root since the phase is strictly increasing; all windows are solved
    at once in the offset t = lam - theta - (2n-1) pi by safeguarded Newton
    steps on the phase's derivative 1 + 2/(1 + lam^2).  The residual
    |e^{i lam}(1+i lam) - e^{i theta}(1-i lam)| evaluates e^{i lam} as
    -e^{i(theta+t)}, an exact reduction of the 2 pi n multiple.  theta
    outside [0, 2pi) is reduced modulo 2 pi.
    """
    if N < 1:
        raise DomainError("N must be >= 1")
    theta = float(theta) % (2.0 * math.pi)
    ns = np.arange(-N, N + 1)
    base = theta + (2 * ns - 1) * math.pi
    lo = np.full(len(ns), 1e-14)
    t = bracketed_roots(lambda t: (t - math.pi) + 2.0 * np.arctan(base + t),
                        lo, 2.0 * math.pi - lo,
                        lambda t: 1.0 + 2.0 / (1.0 + (base + t) ** 2))
    lams = base + t
    resids = np.abs(-np.exp(1j * (theta + t)) * (1.0 + 1j * lams)
                    - np.exp(1j * theta) * (1.0 - 1j * lams))
    if np.any(np.diff(lams) <= 0):
        raise DomainError("branch eigenvalues failed to be strictly increasing")
    return ThetaSpectrum(theta, ns, lams, resids)


def boundary_condition_check(h: Sampled, theta: float) -> float:
    """|h(1) + h'(1) - e^{i theta}(h(0) - h'(0))|; ~0 on dom(A_theta)."""
    b = h.boundary
    return float(abs(b.ha + b.dha - np.exp(1j * theta) * (b.h0 - b.dh0)))


# ---------------------------------------------------------------------------
# type 1 extensions
# ---------------------------------------------------------------------------

def _trigamma(x: float) -> float:
    """psi_1(x) = sum_{k>=0} (x+k)^{-2} for x > 0, without scipy.special
    on the import path: the recurrence psi_1(x) = psi_1(x+1) + 1/x^2 shifts
    x to y = x + n >= 20, where the asymptotic series
    1/y + 1/(2y^2) + sum_k B_2k / y^(2k+1) through B_14 is exact to double
    precision; fsum adds the n + 1 terms."""
    n = max(0, math.ceil(20.0 - x))
    y = x + n
    t = 1.0 / (y * y)
    tail = (1.0 + 0.5 / y + t * (1 / 6 + t * (-1 / 30 + t * (1 / 42 + t * (
        -1 / 30 + t * (5 / 66 + t * (-691 / 2730 + t * 7 / 6))))))) / y
    return math.fsum([tail] + [1.0 / ((x + k) * (x + k)) for k in range(n)])


def _tail_bound(theta: float, N: int) -> float:
    """Closed-form majorant of sum_{|n|>N} 2/(lam_n^2+3): every excluded
    eigenvalue obeys |lam_n| >= (2|n|-1) pi - theta (window membership), and
    sum_{n>N} ((2n-1) pi +- theta)^{-2} is a trigamma value."""
    th = float(theta) % (2.0 * math.pi)
    s = _trigamma(N + 0.5 + th / (2 * math.pi)) \
        + _trigamma(N + 0.5 - th / (2 * math.pi))
    return float(2.0 * s / (4.0 * math.pi ** 2))


@dataclass(frozen=True)
class ThetaExpansion:
    """Coefficients of an element over {e_lam : lam in Lambda_theta}:
    h = sum_n c_n e_{lam_n}."""

    spectrum: ThetaSpectrum
    coeffs: np.ndarray

    @property
    def lambdas(self) -> np.ndarray:
        return self.spectrum.lambdas

    def __call__(self, x) -> np.ndarray:
        return exp_sum(self.lambdas, self.coeffs, np.atleast_1d(x))

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.coeffs) ** 2 / self.spectrum.weights()))

    def to_element(self, n: int = 2000) -> Sampled:
        lams, cs = self.lambdas, self.coeffs
        return sampled_from_callable(lambda x: exp_sum(lams, cs, x), 1.0, n=n,
                                     dfn=lambda x: exp_sum(lams, 1j * lams * cs, x))


@dataclass(frozen=True)
class TypeOneExtension(ThetaExpansion):
    """F_theta(x) = sum_{|n|<=N} w_n e^{i lam_n x}: the expansion of F_0 = e^{-x},
    whose coefficients <e_lam, F_0>/||e_lam||^2 = e_lam(0)/||e_lam||^2 are the
    weights w_n; restriction to (-1, 1) matches e^{-|x|} up to the tail bound."""

    theta: float
    tail_bound: float

    @property
    def truncation(self) -> int:
        return int(np.max(self.spectrum.branches))

    @property
    def atom_weights(self) -> np.ndarray:
        return self.coeffs

    def restriction_error(self, xs) -> np.ndarray:
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        if np.any(np.abs(xs) >= 1.0):
            raise DomainError("restriction error is defined on (-1, 1)")
        return np.abs(self(xs) - np.exp(-np.abs(xs)))


def extend_type1(theta: float, N: int) -> TypeOneExtension:
    spec = solve_theta_spectrum(theta, N)
    return TypeOneExtension(spec, spec.weights(), spec.theta, _tail_bound(spec.theta, N))


def extension_measure(ext: TypeOneExtension) -> SpectralMeasure:
    """Purely atomic spectral measure sum w_n delta_{lam_n}; its Bochner
    transform reproduces the truncated extension exactly."""
    atoms = tuple((float(l), float(w))
                  for l, w in zip(ext.lambdas, ext.atom_weights))
    return SpectralMeasure(np.array([]), np.array([]), atoms=atoms)


def sample_via_spectrum(phi: Callable, ext: TypeOneExtension, x):
    """(T_F phi)(x) = sum_n w_n phihat(lam_n) e^{i lam_n x} with
    phihat(lam) = int_0^1 phi(y) e^{-i lam y} dy; a complex number for a
    point x, an array of the shape of x otherwise.  phihat is taken on P GL
    panels, P the smallest power of two >= max(UNIT_PANELS, max|lam|/2),
    which resolves e^{-i lam y} to 1e-12 for every lam of the spectrum.
    Lambda_theta lies near the lattice (theta - pi) + 2 pi Z: lam =
    (theta - pi) + 2 pi j + eps with eps = 2 atan(1/lam), so |eps| <= 2/|lam|,
    and ``rkhs.shifted_lattice_fourier`` sums phihat there as a short series
    in eps of FFTs over the panels, O(P log P + len(lam)); the few lam with
    |lam| below about 64 take the lattice-factored sum of
    ``rkhs.lattice_fourier``, O(P) each."""
    xs = np.asarray(x, dtype=float)
    if not np.all((0.0 < xs) & (xs < 1.0)):
        raise DomainError("sampling formula holds on (0, 1)")
    phihat = shifted_lattice_fourier(phi, ext.lambdas, ext.theta - math.pi)
    out = exp_sum(ext.lambdas, ext.coeffs * phihat, xs)
    return complex(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# unitary evolution in the e_lambda basis
# ---------------------------------------------------------------------------

def expand_in_theta_basis(h: Sampled, ext: TypeOneExtension) -> ThetaExpansion:
    """c_n = <e_n, h> / ||e_n||^2 by the Sobolev-form inner product."""
    return ThetaExpansion(ext.spectrum, exp_basis_coefficients(h, ext.lambdas))


def unitary_evolve(h, t: float, ext: TypeOneExtension) -> ThetaExpansion:
    """U(t): multiply the n-th coefficient by e^{i lam_n t}.  Accepts either
    a Sampled element (expanded first) or a ThetaExpansion over ext's
    spectrum; an expansion over another Lambda_theta raises."""
    exp_h = h if isinstance(h, ThetaExpansion) else expand_in_theta_basis(h, ext)
    if not np.array_equal(exp_h.lambdas, ext.lambdas):
        raise DomainError("the expansion and the extension have different spectra")
    return ThetaExpansion(exp_h.spectrum, exp_h.coeffs * np.exp(1j * exp_h.lambdas * t))


# ---------------------------------------------------------------------------
# defect vectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DefectPair:
    """Candidate defect vectors e^{-x} (for D* xi = +xi) and e^{x-a}
    (for D* xi = -xi) with their H_F norms from the dyadic Parseval sum.
    ``indices`` is (0,0) when the Parseval sums diverge."""

    xi_plus: Optional[Sampled]
    xi_minus: Optional[Sampled]
    norms: Optional[tuple[float, float]]
    indices: tuple[int, int]
    raw_norm_sq: dict


def defect_vectors(kernel: PdKernel, depth: int = 14) -> DefectPair:
    from . import dyadic as _dyadic
    a = kernel.half_width
    reports = {}
    for label, fn in (("e^-x", lambda x: np.exp(-x)), ("e^x", np.exp)):
        reports[label] = _dyadic.membership_by_coefficients(fn, kernel, depth)
    if any(r.verdict == "out" for r in reports.values()):
        return DefectPair(None, None, None, (0, 0),
                          {k: r.parseval_sum for k, r in reports.items()})
    xi_plus = sampled_from_callable(lambda x: np.exp(-x), a,
                                    dfn=lambda x: -np.exp(-x))
    xi_minus = sampled_from_callable(lambda x: np.exp(x - a), a,
                                     dfn=lambda x: np.exp(x - a))
    norm_plus = reports["e^-x"].parseval_sum
    norm_minus = reports["e^x"].parseval_sum * math.exp(-2.0 * a)
    return DefectPair(xi_plus, xi_minus,
                      (math.sqrt(norm_plus), math.sqrt(norm_minus)),
                      (1, 1),
                      {k: r.parseval_sum for k, r in reports.items()})


# ---------------------------------------------------------------------------
# type 2 extensions: the G_r family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TypeTwoExtension:
    """G_r extension: e^{-|x|} inside (-1, 1), exponential tails e^{-1}
    e^{r(1 -|x|)} outside; spectral density ghat_r = G_r_hat / 2 pi (plus a
    point mass e^{-1} delta_0 when r = 0)."""

    r: float

    def __post_init__(self):
        if not (0.0 <= self.r <= 1.0):
            raise DomainError("r must lie in [0, 1]")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        inner = np.exp(-np.abs(x))
        outer = math.exp(-1.0) * np.exp(self.r * (1.0 - np.abs(x)))
        return np.where(np.abs(x) < 1.0, inner, outer)

    def density(self, lam) -> np.ndarray:
        """ghat_r(l) = G_r_hat(l) / 2 pi, G_r_hat(l) = 2/(1+l^2) + (2/e)[(r/(r^2+l^2)
        - 1/(1+l^2)) cos l + l (1/(1+l^2) - 1/(r^2+l^2)) sin l], summed over one
        denominator for r > 0; for r = 0 only the continuous part (l sin l / l^2 = sinc)."""
        lam, r = np.asarray(lam, dtype=float), self.r
        if r > 0:
            num = 2.0 * math.e * (lam ** 2 + r * r) + 2.0 * (r - 1.0) * (
                np.cos(lam) * (lam ** 2 - r) + lam * (r + 1.0) * np.sin(lam))
            return num / (math.e * (lam ** 2 + 1.0) * (lam ** 2 + r * r)) / (2.0 * np.pi)
        val = 2.0 / (1.0 + lam ** 2) + (2.0 / math.e) * (-np.cos(lam) / (1.0 + lam ** 2)
                                                         + lam * np.sin(lam) / (1.0 + lam ** 2)
                                                         - np.sinc(lam / np.pi))
        return val / (2.0 * np.pi)

    @functools.cached_property
    def measure(self) -> SpectralMeasure:
        """ghat_r dl (+ e^{-1} delta_0 at r = 0): the density on a grid with
        steps h <= r/10, which Simpson needs for the peak r/(r^2+l^2) at 0, h
        a power of two so that Simpson's spacing grid[1] - grid[0] is exact;
        >= 20,000 steps each side, to |l| >= 10.  Past it, six orders of each
        1/(1+l^2) = sum (-1)^i l^{-2-2i}, r/(r^2+l^2) = sum (-1)^i r^{2i+1} l^{-2-2i}
        and l/(1+l^2) - l/(r^2+l^2) = sum_{i>=1} (-1)^i (1 - r^{2i}) l^{-1-2i}."""
        r, k, e = self.r, 1.0 / np.pi, math.e
        if 0.0 < r < 1e-4:
            raise DomainError("the G_r measure needs r = 0 or r >= 1e-4 (2.6e6 grid points)")
        h = 2.0 ** min(-7, math.floor(math.log2(r / 10.0))) if r > 0 else 2.0 ** -7
        m = max(20000, int(10.0 / h))
        cos = [(k * (-1) ** i, 0.0, 2 + 2 * i) for i in range(6)]
        cos += [(k / e * (-1) ** i * (r ** (2 * i + 1) - 1.0), 1.0, 2 + 2 * i) for i in range(6)]
        sin = [(k / e * (-1) ** i * (1.0 - r ** (2 * i)), 1.0, 1 + 2 * i) for i in range(1, 7)]
        grid = h * np.arange(-m, m + 1)
        atoms = ((0.0, math.exp(-1.0)),) if r == 0.0 else ()
        return SpectralMeasure(grid, self.density(grid), atoms=atoms,
                               tail=TailDescriptor.from_terms(cos, sin))

    def mass(self) -> float:
        """int ghat_r dl (+ atom)."""
        return self.measure.total_mass()

    def reconstruct(self, x: float) -> float:
        """int e^{i l x} ghat_r(l) dl (+ atom): G_r(x) by Bochner."""
        return bochner_transform(self.measure, x).real

    def density_min_on_grid(self) -> float:
        return float(np.min(self.measure.density))


def g_r_extension(r: float) -> TypeTwoExtension:
    return TypeTwoExtension(float(r))


# ---------------------------------------------------------------------------
# discrete-subset isometry criterion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IsometryReport:
    passed: bool
    max_gap: float
    gaps: np.ndarray
    psd_ok: bool
    witness: Optional[np.ndarray] = None


def discrete_isometry_check(S: Sequence[float], F_vals: Callable,
                            mu: SpectralMeasure, trials: int = 100,
                            tol: float = 1e-6) -> IsometryReport:
    """Compare the Gram quadratic form sum conj(c_j) c_k F(s_j - s_k) with
    int |sum c_k e^{-i s_k l}|^2 dmu = sum conj(c_j) c_k mu_hat(s_j - s_k)
    over random coefficient vectors.

    F_vals is a callable on the difference set.  Fails immediately (with an
    eigenvector witness) when the Gram matrix is not PSD.
    """
    S = np.asarray(S, dtype=float)
    if not np.all(np.isfinite(S)):
        raise DomainError(f"isometry points must be finite, got {S.tolist()}")
    n = len(S)
    # both sides on D[j, k] = s_j - s_k, evaluated once per distinct difference
    diffs, inverse = np.unique(S[:, None] - S[None, :], return_inverse=True)
    inverse = inverse.reshape(n, n)
    G = np.asarray([F_vals(d) for d in diffs], dtype=complex)[inverse]
    if np.max(np.abs(G - G.conj().T)) > 1e-12:
        raise DomainError("F_vals is not Hermitian on S - S")
    evals, evecs = np.linalg.eigh(0.5 * (G + G.conj().T))
    if evals[0] < -EPS_PSD:
        return IsometryReport(False, math.inf, np.array([]), False,
                              witness=evecs[:, 0])
    # one transform of the distinct |d|; mu real, so mu_hat(-d) = conj mu_hat(d)
    dist, fold = np.unique(np.abs(diffs), return_inverse=True)
    folded = bochner_transform(mu, dist)[fold]
    mu_hat = np.where(diffs < 0, folded.conj(), folded)[inverse]
    # trial t draws its n real parts, then its n imaginary parts
    z = np.random.default_rng(0).standard_normal((trials, 2, n))
    c = z[:, 0] + 1j * z[:, 1]
    form = lambda M: ((c.conj() @ M) * c).sum(axis=1).real
    lhs = form(G)
    gaps = np.abs(lhs - form(mu_hat)) / np.maximum(np.abs(lhs), 1e-300)
    return IsometryReport(bool(np.all(gaps < tol)), float(np.max(gaps)),
                          gaps, True)
