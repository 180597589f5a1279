"""Positive definite kernels on a symmetric interval and their spectral measures.

Built-in families:

* ``exp``       -- F(x) = e^{-|x|} on (-1, 1), spectral density dl/(pi(1+l^2))
* ``triangle``  -- F(x) = 1 - |x| on (-1/2, 1/2), density (1/2pi) sinc^2(l/2pi)
* ``bspline:k`` -- F(x) = (sin pi x / pi x)^k, density = box autoconvolution
                   (compactly supported in frequency)
* ``bsplinex:k``-- normalized k-fold box autoconvolution in x (k = 2 is the
                   triangle), density ~ sinc^k (heavy frequency tail for k = 2,
                   integrable second moment for k >= 4)
* ``table:<csv>``-- cubic-Hermite interpolation of tabulated x, F(x), F'(x)

All Bochner transforms use the convention mu_hat(x) = int e^{i l x} dmu(l),
under which every built-in measure reproduces its kernel on (-a, a).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .quadrature import GL_POINTS, bracketed_roots, exp_kernel_apply, integrate, simpson

EPS_PSD = 1e-9

# grid points of the built-in measures on an interval (Lebesgue, uniform, mu_lambda)
MEASURE_GRID_POINTS = 2001


class DomainError(ValueError):
    """Argument outside the kernel or measure domain."""


def simpson_grid(grid) -> np.ndarray:
    """The grid as floats; DomainError unless it is finite, strictly increasing
    and uniform (spacings equal to 1e-9 relative), as Simpson's rule assumes."""
    grid = np.asarray(grid, dtype=float)
    if not np.all(np.isfinite(grid)):
        raise DomainError("grid has non-finite points")
    h = np.diff(grid)
    if len(h) and np.min(h) <= 0:
        raise DomainError("grid is not strictly increasing")
    if len(h) and np.max(h) - np.min(h) > 1e-9 * np.mean(h):
        raise DomainError("grid is not uniform")
    return grid


def bspline_autoconvolution(k: int, u) -> np.ndarray:
    """k-fold autoconvolution of the unit box indicator on (-1/2, 1/2).

    Closed form: B^{*k}(u) = sum_j (-1)^j C(k,j) (u + k/2 - j)_+^{k-1} / (k-1)!.
    Supported in [-k/2, k/2]; k = 2 is the unit triangle, k = 4 the cubic
    B-spline.  For k = 1 this is the indicator itself.
    """
    if k < 1:
        raise DomainError("k must be >= 1")
    u = np.asarray(u, dtype=float)
    if k == 1:
        return ((u > -0.5) & (u < 0.5)).astype(float) + 0.5 * ((u == -0.5) | (u == 0.5))
    out = np.zeros_like(u)
    for j in range(k + 1):
        t = np.maximum(u + 0.5 * k - j, 0.0)
        out += ((-1.0) ** j) * math.comb(k, j) * t ** (k - 1)
    return out / math.gamma(k)


# ---------------------------------------------------------------------------
# spectral measures on the real line
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailDescriptor:
    """The density past the grid cutoff as ``terms``, triples (c, w, p) for
    c cos(w l) |l|^{-p} with w >= 0, and ``sine_terms``, triples (s, w, p)
    for s sin(w |l|) |l|^{-p} with w > 0; every p an integer >= 2.
    ``exponent`` and ``coeff`` are its envelope coeff |l|^{-exponent}
    (averaged over oscillations), which ``second_moment`` reads: derived from
    the terms by ``_envelope``, refused when given otherwise, and the one
    term (coeff, 0, exponent) when given alone.  ``TailDescriptor.none()``
    declares compact support; a measure with ``tail=None`` has an *unknown*
    tail that second_moment must fit from the samples."""

    exponent: float
    coeff: float
    terms: tuple[tuple[float, float, int], ...] = ()
    sine_terms: tuple[tuple[float, float, int], ...] = ()

    def __post_init__(self):
        terms, sines = tuple(self.terms), tuple(self.sine_terms)
        if not terms and not sines and self.coeff != 0.0:
            terms = ((self.coeff, 0.0, self.exponent),)
        if any(w < 0 or not float(p).is_integer() or p < 2 for _, w, p in terms + sines) \
                or any(w == 0 for _, w, _ in sines):
            raise DomainError("tail terms need an integer p >= 2 and w >= 0 (w > 0 for sines)")
        normal = lambda t: tuple((float(c), float(w), int(p)) for c, w, p in t)
        terms, sines = normal(terms), normal(sines)
        envelope = _envelope(terms, sines) if terms or sines else (self.exponent, self.coeff)
        if envelope != (self.exponent, self.coeff):
            raise DomainError(f"tail envelope {(self.exponent, self.coeff)} is not {envelope}, "
                              "the one its terms give")
        for name, value in zip(("exponent", "coeff", "terms", "sine_terms"),
                               (*envelope, terms, sines)):
            object.__setattr__(self, name, value)

    @staticmethod
    def none() -> "TailDescriptor":
        return TailDescriptor(math.inf, 0.0)

    @staticmethod
    def from_terms(terms, sine_terms=()) -> "TailDescriptor":
        """The exact tail given by its terms, with the envelope they imply."""
        terms, sine_terms = tuple(terms), tuple(sine_terms)
        if not terms and not sine_terms:
            raise DomainError("from_terms needs at least one term")
        return TailDescriptor(*_envelope(terms, sine_terms), terms, sine_terms)


def _envelope(terms, sine_terms) -> tuple[float, float]:
    """(exponent, coeff) of a tail: the smallest p over both kinds of term,
    and the sum of c over the w = 0 cosine terms with that p."""
    p_min = min(p for _, _, p in terms + sine_terms)
    return float(p_min), sum((float(c) for c, w, p in terms if w == 0 and p == p_min), 0.0)


@dataclass(frozen=True)
class SpectralMeasure:
    """Finite positive Borel measure: density on a uniform grid, atoms, and
    the density past the grid cutoff L.

    A declared ``tail`` gives that density as terms, integrated in closed
    form; ``TailDescriptor.none()`` and ``tail=None`` put no mass past the
    grid (``second_moment`` reads a declared tail's envelope and fits an
    exponent to the samples for ``tail=None``).  Any tail with terms starts
    at -L and at L, so it needs a symmetric grid.
    """

    grid: np.ndarray
    density: np.ndarray
    atoms: tuple[tuple[float, float], ...] = ()
    tail: Optional[TailDescriptor] = None

    def __post_init__(self):
        grid = simpson_grid(self.grid)
        dens = np.asarray(self.density, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "density", dens)
        if grid.shape != dens.shape:
            raise DomainError("grid and density must have matching shapes")
        if len(grid) and np.min(dens) < -1e-12:
            raise DomainError("density must be nonnegative")
        for _, w in self.atoms:
            if w <= 0:
                raise DomainError("atom weights must be positive")
        if _has_terms(self.tail) and (len(grid) < 2 or grid[0] != -grid[-1]):
            raise DomainError("a tail past the grid needs a symmetric grid, grid[0] = -grid[-1]")

    @property
    def cutoff(self) -> float:
        return float(np.max(np.abs(self.grid))) if len(self.grid) else 0.0

    def tail_mass(self) -> float:
        return _tail_fourier(self, 0.0)

    def total_mass(self) -> float:
        return bochner_transform(self, 0.0).real

    def to_json(self) -> str:
        payload = {
            "grid": self.grid.tolist(),
            "density": self.density.tolist(),
            "atoms": [[loc, w] for loc, w in self.atoms],
            "tail": None if self.tail is None else
                    {"exponent": self.tail.exponent, "coeff": self.tail.coeff,
                     "terms": [list(t) for t in self.tail.terms],
                     "sine_terms": [list(t) for t in self.tail.sine_terms]},
        }
        return json.dumps(payload)

    @staticmethod
    def from_json(text: str) -> "SpectralMeasure":
        """Inverse of ``to_json``; a tail written without terms of either
        kind (the envelope alone) reads as its single term."""
        d = json.loads(text)
        tail = d.get("tail")
        if tail is not None:
            tail = TailDescriptor(tail["exponent"], tail["coeff"], tail.get("terms", ()),
                                  tail.get("sine_terms", ()))
        return SpectralMeasure(
            grid=np.asarray(d["grid"], dtype=float),
            density=np.asarray(d["density"], dtype=float),
            atoms=tuple((float(a), float(w)) for a, w in d.get("atoms", [])),
            tail=tail,
        )


def _expint_cf(n: int, z: np.ndarray) -> np.ndarray:
    """E_n(z) = int_1^inf e^{-zt} t^{-n} dt by its continued fraction
    (modified Lentz), which converges fast for |z| > n."""
    b = z + n
    c = np.full_like(z, 1e300)
    d = 1.0 / b
    h = d
    for i in range(1, 1000):
        a = -i * (n - 1 + i)
        b = b + 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        h = h * c * d
        if np.all(np.abs(c * d - 1.0) <= np.finfo(float).eps):
            break
    return h * np.exp(-z)


def _power_integrals(b: np.ndarray, L: float, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows n = 0..n_max of J_n(b) = int_L^inf cos(b l) l^{-n} dl and
    K_n(b) = int_L^inf sin(b l) l^{-n} dl for b >= 0, as L^{1-n} Re and Im
    of E_n(-ibL); rows 0 and 1 hold for b > 0 only.

    Upward, from E_1(-iy) = -Ci(y) + i(pi/2 - Si(y)) by
    E_n = (e^{iy} + iy E_{n-1}) / (n-1), which for J is
    J_n = [cos(bL) L^{1-n} - b K_{n-1}] / (n-1).
    That multiplies the absolute error of E_1 by about y^{n-1}/(n-1)!, so J_n
    and K_n carry eps b^{n-1}/(n-1)!: harmless for b <= 1 or y <= n_max.  Past
    both, E_{n_max} comes from its continued fraction and the recursion runs
    downward, E_{n-1} = (e^{iy} - (n-1) E_n) / (-iy), where y > n_max damps
    errors.  At b = 0, E_1 diverges but enters only times y = 0, which
    gives J_n = L^{1-n} / (n-1) and K_n = 0."""
    from scipy.special import sici
    y = b * L
    E = np.zeros((n_max + 1, len(b)), dtype=complex)
    up = (b <= 1.0) | (y <= n_max)
    yu = y[up]
    si, ci = sici(np.where(yu > 0, yu, 1.0))
    E[1, up] = np.where(yu > 0, -ci + 1j * (0.5 * np.pi - si), 0.0)
    for n in range(2, n_max + 1):
        E[n, up] = (np.exp(1j * yu) + 1j * yu * E[n - 1, up]) / (n - 1)
    yd = y[~up]
    E[n_max, ~up] = _expint_cf(n_max, -1j * yd)
    for n in range(n_max, 1, -1):
        E[n - 1, ~up] = (np.exp(1j * yd) - (n - 1) * E[n, ~up]) / (-1j * yd)
    scale = L ** (1.0 - np.arange(n_max + 1))[:, None]
    return scale * E.real, scale * E.imag


def _closed_form_tail(tail: TailDescriptor, L: float, x: float) -> float:
    """int_{|l| > L} e^{i l x} density(l) dl for a tail's terms, real since
    the tail is even: c cos(w l) |l|^{-p} gives c [J_p(|x - w|) + J_p(|x + w|)],
    s sin(w |l|) |l|^{-p} gives s [K_p(w + x) + K_p(w - x)], K_p being odd;
    one ``sici`` call over the distinct |b|."""
    c, w, p = (np.array(v) for v in zip(*(tail.terms + tail.sine_terms)))
    n = len(tail.terms)
    signed = np.concatenate([x - w[:n], x + w[:n], w[n:] + x, w[n:] - x])
    b, inverse = np.unique(np.abs(signed), return_inverse=True)
    J, K = _power_integrals(b, L, int(p.max()))
    twice = lambda v: np.concatenate([v, v])
    total = np.dot(twice(c[:n]), J[twice(p[:n]), inverse[:2 * n]])
    if tail.sine_terms:
        total += np.dot(twice(c[n:]) * np.sign(signed[2 * n:]), K[twice(p[n:]), inverse[2 * n:]])
    return float(total)


def _has_terms(tail: Optional[TailDescriptor]) -> bool:
    return tail is not None and bool(tail.terms or tail.sine_terms)


def _tail_fourier(measure: SpectralMeasure, x: float) -> float:
    """int_{|l| > L} e^{i l x} density(l) dl past the cutoff L: the closed
    form of a declared tail's terms, 0 for ``TailDescriptor.none()`` and
    for ``tail=None``."""
    return _closed_form_tail(measure.tail, measure.cutoff, x) if _has_terms(measure.tail) else 0.0


def bochner_transform(measure: SpectralMeasure, x: float) -> complex:
    """mu_hat(x) = int e^{i l x} dmu(l) at a finite x (DomainError
    otherwise); atoms summed exactly, grid density by Simpson, the density
    past the cutoff by ``_tail_fourier`` in closed form.  No path uses
    QUADPACK.  ``total_mass`` is mu_hat(0)."""
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"bochner_transform needs a finite x, got {x!r}")
    total = 0.0 + 0.0j
    if len(measure.grid) > 1:
        total += simpson(measure.density * np.exp(1j * measure.grid * x), measure.grid)
    for loc, w in measure.atoms:
        total += w * np.exp(1j * loc * x)
    total += _tail_fourier(measure, x)
    return complex(total)


@dataclass(frozen=True)
class SecondMomentResult:
    value: float               # int_{|l| <= cutoff} l^2 dmu
    verdict: str               # "finite" | "divergent" | "indeterminate"
    tail_exponent: Optional[float] = None

    @property
    def divergent(self) -> bool:
        return self.verdict == "divergent"


def _fit_tail_exponent(measure: SpectralMeasure) -> Optional[float]:
    """Log-log slope of the block-averaged density on the outer grid; None
    when the fit is too noisy to trust."""
    grid, dens = measure.grid, measure.density
    L = measure.cutoff
    mask = np.abs(grid) > 0.5 * L
    lam = np.abs(grid[mask])
    rho = dens[mask]
    if len(lam) < 32:
        return None
    order = np.argsort(lam)
    lam, rho = lam[order], rho[order]
    nblk = 16
    edges = np.linspace(0, len(lam), nblk + 1).astype(int)
    lam_b, rho_b = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi > lo:
            lam_b.append(np.mean(lam[lo:hi]))
            rho_b.append(np.mean(rho[lo:hi]))
    lam_b, rho_b = np.asarray(lam_b), np.asarray(rho_b)
    if np.any(rho_b <= 0):
        return None
    X = np.log(lam_b)
    Y = np.log(rho_b)
    slope, intercept = np.polyfit(X, Y, 1)
    resid = Y - (slope * X + intercept)
    ss_tot = np.sum((Y - Y.mean()) ** 2)
    if ss_tot <= 0 or 1.0 - np.sum(resid ** 2) / ss_tot < 0.9:
        return None
    return -float(slope)


def second_moment(measure: SpectralMeasure, cutoff: float) -> SecondMomentResult:
    """Truncated second moment plus a divergence verdict from the tail
    exponent p (divergent iff p <= 3, guard band [2.8, 3.2])."""
    if cutoff <= 0:
        raise DomainError("cutoff must be positive")
    grid, dens = measure.grid, measure.density
    value = 0.0
    if len(grid) > 1:
        mask = np.abs(grid) <= cutoff
        if mask.sum() >= 3:
            g, d = grid[mask], dens[mask]
            value += float(simpson(g * g * d, g))
    for loc, w in measure.atoms:
        if abs(loc) <= cutoff:
            value += w * loc * loc
    L = measure.cutoff
    if cutoff > L and measure.tail is not None:     # coeff 0 adds nothing
        p, c = measure.tail.exponent, measure.tail.coeff
        if abs(p - 3.0) < 1e-12:
            value += 2.0 * c * math.log(cutoff / L)
        else:
            value += 2.0 * c * (cutoff ** (3.0 - p) - L ** (3.0 - p)) / (3.0 - p)

    if measure.tail is None:
        if len(grid) == 0:
            # atoms only: the moment is a finite sum
            return SecondMomentResult(value, "finite", None)
        p = _fit_tail_exponent(measure)
        if p is None:
            return SecondMomentResult(value, "indeterminate", None)
    else:
        p = measure.tail.exponent
    if p <= 2.8:
        verdict = "divergent"
    elif p >= 3.2:
        verdict = "finite"
    else:
        verdict = "indeterminate"
    return SecondMomentResult(value, verdict, p)


# ---------------------------------------------------------------------------
# complex measures on [0, a]
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeasureOnInterval:
    """Complex measure of bounded variation on [lo, hi]: one complex density
    array of the uniform grid's shape (both empty for atoms only) plus
    complex atoms; ``density_fn`` optionally carries the exact density."""

    interval: tuple[float, float]
    grid: np.ndarray
    density: np.ndarray
    atoms: tuple[tuple[float, complex], ...] = ()
    density_fn: Optional[Callable] = None

    def __post_init__(self):
        lo, hi = self.interval
        object.__setattr__(self, "grid", simpson_grid(self.grid))
        object.__setattr__(self, "density", np.asarray(self.density, dtype=complex))
        if self.density.shape != self.grid.shape:
            raise DomainError(f"density of shape {self.density.shape} on a grid of "
                              f"shape {self.grid.shape}")
        for loc, _ in self.atoms:
            if not (lo - 1e-12 <= loc <= hi + 1e-12):
                raise DomainError("atom outside the interval")

    @staticmethod
    def from_density(interval, grid, values, atoms=(), density_fn=None) -> "MeasureOnInterval":
        return MeasureOnInterval(tuple(interval), grid, values,
                                 tuple((float(l), complex(w)) for l, w in atoms), density_fn)

    @staticmethod
    def delta(x: float, interval=None) -> "MeasureOnInterval":
        interval = (x, x) if interval is None else tuple(interval)
        return MeasureOnInterval(interval, np.array([]), np.array([]), ((float(x), 1.0 + 0.0j),))

    @staticmethod
    def lebesgue(interval) -> "MeasureOnInterval":
        grid = np.linspace(*interval, MEASURE_GRID_POINTS)
        return MeasureOnInterval.from_density(interval, grid, np.ones_like(grid))

    @staticmethod
    def uniform_probability(interval) -> "MeasureOnInterval":
        lo, hi = interval
        grid = np.linspace(lo, hi, MEASURE_GRID_POINTS)
        return MeasureOnInterval.from_density(interval, grid, np.full_like(grid, 1.0 / (hi - lo)))

    @property
    def is_complex(self) -> bool:
        return bool(np.max(np.abs(self.density.imag), initial=0.0) > 1e-15) or \
            any(abs(w.imag) > 1e-15 for _, w in self.atoms)

    def total_mass(self) -> complex:
        m = simpson(self.density, self.grid) if len(self.grid) > 1 else 0.0
        return complex(m + sum(w for _, w in self.atoms))

    def total_variation(self) -> float:
        tv = simpson(np.abs(self.density), self.grid) if len(self.grid) > 1 else 0.0
        return float(tv + sum(abs(w) for _, w in self.atoms))

    def to_json(self) -> str:
        return json.dumps({
            "interval": list(self.interval),
            "grid": self.grid.tolist(),
            "density_re": self.density.real.tolist(),
            "density_im": self.density.imag.tolist(),
            "atoms": [[loc, w.real, w.imag] for loc, w in self.atoms],
        })

    @staticmethod
    def from_json(text: str) -> "MeasureOnInterval":
        d = json.loads(text)
        grid = np.asarray(d.get("grid", []), dtype=float)
        re = np.asarray(d.get("density_re", []), dtype=float)
        im = np.asarray(d.get("density_im", np.zeros_like(re)), dtype=float)
        if re.shape != grid.shape or im.shape != grid.shape:
            raise DomainError(f"density_re of shape {re.shape} and density_im of shape "
                              f"{im.shape} on a grid of shape {grid.shape}")
        atoms = [(a[0], complex(a[1], a[2] if len(a) > 2 else 0.0)) for a in d.get("atoms", [])]
        return MeasureOnInterval.from_density(tuple(d["interval"]), grid, re + 1j * im, atoms)


# ---------------------------------------------------------------------------
# kernel structure: T_F^{-1} as an elliptic operator and its spectrum
# ---------------------------------------------------------------------------

def boundary_equation(poly_exp, a: float, h: float = 0.0):
    """The second-order boundary equation of F on (-a, a) with step h: its
    roots give the n Nystrom eigenvalues at h = a/n (``mercer._boundary_spectrum``)
    and the Mercer spectrum at h = 0 (``elliptic.solve_transcendental``).
    None unless ``poly_exp`` is c0 e^{-r|t|} with r, c0 > 0, or c0 + c1 |t|
    with c0 > 0 > c1 and |c1| a < 2 c0; else ``(roots, eigenvalue)``.

    ``roots(count)`` gives one omega in each bracket [j pi/a, (j + 1) pi/a],
    j < count: with T = tan(omega h/2)/h, the root of

        omega a/2 - atan2(K_e, T) = k pi   (even block, j = 2k),
        omega a/2 + atan2(T, K_o) = k pi   (odd block, j = 2k - 1),

    K_e = K_o = tanh(rh/2)/h, or K_e = |c1|/(2 c0 - |c1| a) and K_o = 0, whose
    odd roots are the left bracket ends.  Each phase rises strictly, so each
    bracket holds one simple root, which ``bracketed_roots`` finds by
    safeguarded Newton steps on the phase's derivative

        a/2 + K T'/(T^2 + K^2),   T' = (1 + (hT)^2)/2 (1/2 at h = 0),

    K = K_e or K_o.  ``eigenvalue`` is
    lam = s/(g + 4 w sin^2(omega h/2)), s, g and w as in ``_boundary_spectrum``.
    As h -> 0, T, K_e = K_o and lam become omega/2, r/2 and 2 r c0/(r^2 + omega^2)
    or 2 |c1|/omega^2.  T is read at omega h/2 <= pi/2, past which the top
    bracket end may round."""
    if poly_exp is None:
        return None
    coeffs, rate = poly_exp
    if rate > 0 and len(coeffs) == 1 and coeffs[0] > 0:
        c0, rh = coeffs[0], rate * h
        k_even, s, g = ((math.tanh(0.5 * rh) / h, h * c0 * -math.expm1(-2.0 * rh),
                         math.expm1(-rh) ** 2) if h > 0 else
                        (0.5 * rate, 2.0 * rate * c0, rate * rate))
        k_odd, w = k_even, math.exp(-rh)
    elif rate == 0 and len(coeffs) == 2 and coeffs[0] > 0 > coeffs[1] \
            and 2.0 * coeffs[0] > -coeffs[1] * a:
        k_even, k_odd = -coeffs[1] / (2.0 * coeffs[0] + coeffs[1] * a), 0.0
        s, g, w = -2.0 * coeffs[1] * (h * h if h > 0 else 1.0), 0.0, 1.0
    else:
        return None
    # T and 2 sin(omega h/2), whose limits (as the latter over h) are omega/2 and omega
    if h > 0:
        tangent = lambda om: np.tan(np.minimum(0.5 * h * om, 0.5 * np.pi)) / h
        chord = lambda om: 2.0 * np.sin(0.5 * (om * h))
    else:
        tangent, chord = (lambda om: 0.5 * om), (lambda om: om)

    def roots(count: int) -> np.ndarray:
        j = np.arange(count)
        omega = np.pi * j / a
        live = (j % 2 == 0) | (k_odd > 0)
        j = j[live]
        odd, k_pi = j % 2 == 1, np.pi * ((j + 1) // 2)
        K = np.where(odd, k_odd, k_even)

        def phase(om):
            # atan2(T, K_o) = -atan2(-T, K_o): one atan2 serves both blocks
            T = tangent(om)
            y, x = np.where(odd, -T, k_even), np.where(odd, k_odd, T)
            return 0.5 * a * om - np.arctan2(y, x) - k_pi

        def slope(om):
            # T' = (1 + (hT)^2)/2, which is 1/2 at h = 0
            T = tangent(om)
            return 0.5 * a + 0.5 * K * (1.0 + (h * T) ** 2) / (T * T + K * K)

        omega[live] = bracketed_roots(phase, omega[live], np.pi * (j + 1) / a, slope)
        return omega

    def eigenvalue(omega):
        return s / (g + w * chord(np.asarray(omega, dtype=float)) ** 2)

    return roots, eigenvalue


@dataclass(frozen=True)
class TranscendentalSpec:
    """The paper's printed root equation of one second-order kernel: the
    positive roots k of ``residual`` are the roots of
    ``boundary_equation(*second_order)`` at h = 0, and ``mercer_map`` maps
    them to Mercer eigenvalues.  ``curves(k)`` samples the two curves whose
    intersections locate the roots; ``k_min`` is where they start."""

    residual: Callable[[np.ndarray], np.ndarray]
    curves: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    k_min: float
    second_order: tuple          # (poly_exp, a) of the kernel

    def mercer_map(self, k):
        return boundary_equation(*self.second_order)[1](k)

    def normalized_residual(self, k):
        return self.residual(k) / (1.0 + np.asarray(k, dtype=float) ** 2)


def exp_bvp_spec() -> TranscendentalSpec:
    """tan k = 2k/(k^2-1), cleared of tan poles: (k^2-1) sin k - 2k cos k."""
    return TranscendentalSpec(
        residual=lambda k: (np.asarray(k) ** 2 - 1.0) * np.sin(k) - 2.0 * np.asarray(k) * np.cos(k),
        curves=lambda k: (np.tan(k), 2 * k / (k ** 2 - 1.0)),
        k_min=1.0,
        second_order=(((1.0,), 1.0), 1.0),
    )


def triangle_bvp_spec() -> TranscendentalSpec:
    """Full boundary determinant 4(1 + cos(k/2)) - 3k sin(k/2); the curves
    are those of its factor tan(k/4) = 4/(3k)."""
    return TranscendentalSpec(
        residual=lambda k: 4.0 * (1.0 + np.cos(np.asarray(k) / 2.0))
        - 3.0 * np.asarray(k) * np.sin(np.asarray(k) / 2.0),
        curves=lambda k: (np.tan(k / 4.0), 4.0 / (3.0 * k)),
        k_min=1e-6,
        second_order=(((1.0, -1.0), 0.0), 0.5),
    )


@dataclass(frozen=True)
class EllipticDescriptor:
    """P(xi) >= 0 with T_F^{-1} extending P(-i d/dx); boundary conditions as
    linear functionals on (h(0), h'(0), h(a), h'(a))."""

    poly_coeffs: tuple[float, ...]          # P(xi) = sum c_j xi^j
    boundary_rows: tuple[tuple[float, float, float, float], ...]

    def poly(self, xi):
        xi = np.asarray(xi, dtype=float)
        out = np.zeros_like(xi)
        for j, c in enumerate(self.poly_coeffs):
            out += c * xi ** j
        return out

    def is_nonnegative(self) -> bool:
        return bool(np.min(self.poly(np.linspace(-50.0, 50.0, 2001))) >= -1e-12)

    def boundary_residuals(self, h0, dh0, ha, dha) -> tuple[float, ...]:
        """|row . (h(0), h'(0), h(a), h'(a))| for each boundary row."""
        return tuple(float(abs(r0 * h0 + r1 * dh0 + r2 * ha + r3 * dha))
                     for r0, r1, r2, r3 in self.boundary_rows)


# (1/2)(1 + xi^2); h(0)-h'(0)=0, h(1)+h'(1)=0
EXP_DESCRIPTOR = EllipticDescriptor(
    (0.5, 0.0, 0.5), ((1.0, -1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 1.0)))
# (1/2) xi^2 on (0, 1/2); h'(0)+h'(a)=0, h(0)+h(a)-(3/2)h'(0)=0
TRIANGLE_DESCRIPTOR = EllipticDescriptor(
    (0.0, 0.0, 0.5), ((0.0, 1.0, 0.0, 1.0), (1.0, -1.5, 1.0, 0.0)))

# the paper's two printed boundary problems, keyed by the (poly_exp, a) of
# the kernel and width they hold for
_PRINTED_PROBLEMS = {spec.second_order: (desc, spec) for desc, spec in
                     ((EXP_DESCRIPTOR, exp_bvp_spec()),
                      (TRIANGLE_DESCRIPTOR, triangle_bvp_spec()))}


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PdKernel:
    """Real, even, continuous p.d. function on (-a, a), F(0) = 1 for built-ins.

    ``evaluate``/``derivative`` are vectorized on [0, a]; ``__call__`` and
    ``deriv`` alone extend them to [-a, a], as evaluate(|x|) and
    sign(x) derivative(|x|), so every kernel is exactly even.  The one-sided
    limits of F' at 0 are recorded separately.

    The built-in factories attach the structure their kernel has:
    ``poly_exp = (coeffs, rate)`` when F(t) = e^{-rate |t|} sum_j coeffs[j] |t|^j
    on [-a, a] -- ((1,), 1) for exp, ((1, -1), 0) for the triangle, the exact
    coefficients with rate 0 for ``bsplinex:k`` with a <= 1 -- which
    ``smooth`` and the other apply callers in ``rkhs`` pass to
    ``poly_exp_kernel_apply`` for (T_F g, (T_F g)') on the grid in O(n m),
    and FFT convolution (``convolution_apply``) without it, and which
    ``boundary_equation`` reads for the Nystrom and Mercer spectra and
    ``spec_for_kernel``/``descriptor_for_kernel`` for the paper's printed
    boundary problem at (poly_exp, a).  ``knots`` are the offsets
    t in (0, a], besides the kink at 0, where F'' jumps (the x nodes of a
    table, the integer knots of ``bsplinex:k``); the quadrature oracle
    ``mercer.apply_operator`` splits its integrals there.
    """

    family: str
    half_width: float
    evaluate: Callable[[np.ndarray], np.ndarray]
    derivative: Callable[[np.ndarray], np.ndarray]
    deriv_at_zero: tuple[float, float] = (0.0, 0.0)   # (left, right) limits
    measure: Optional[SpectralMeasure] = None
    poly_exp: Optional[tuple[tuple[float, ...], float]] = None
    knots: tuple[float, ...] = ()

    def _abs(self, x):
        """min(|x|, a) for x in [-a, a] (up to 1e-12 relative), else DomainError."""
        t = np.abs(np.asarray(x, dtype=float))
        if np.any(t > self.half_width * (1 + 1e-12)):
            raise DomainError(
                f"|x| > {self.half_width} outside the domain of kernel '{self.family}'")
        return np.minimum(t, self.half_width)

    def __call__(self, x):
        return self.evaluate(self._abs(x))

    def deriv(self, x):
        return np.sign(x) * self.derivative(self._abs(x))


def _cauchy_measure() -> SpectralMeasure:
    grid = np.linspace(-200.0, 200.0, 20001)
    # 1/(pi(1 + l^2)) = sum_i (-1)^i l^{-2-2i} / pi for |l| > 1; past l = 200
    # the terms after the sixth are below 2.5e-5^6 relative
    tail = TailDescriptor.from_terms(((-1.0) ** i / np.pi, 0.0, 2 + 2 * i) for i in range(6))
    return SpectralMeasure(grid, 1.0 / (np.pi * (1.0 + grid * grid)), tail=tail)


def exp_kernel() -> PdKernel:
    """F(x) = e^{-|x|} on (-1, 1); Bochner dual of the Cauchy density."""
    return PdKernel(
        family="exp", half_width=1.0,
        evaluate=lambda x: np.exp(-x),
        derivative=lambda x: -np.exp(-x),
        deriv_at_zero=(1.0, -1.0),
        measure=_cauchy_measure(),
        poly_exp=((1.0,), 1.0),
    )


def triangle_kernel() -> PdKernel:
    """F(x) = 1 - |x| on (-1/2, 1/2); frequency density (1/2pi) sinc^2(l/2pi)."""
    L = 80.0 * np.pi
    grid = np.linspace(-L, L, 60001)
    # (1/2pi) sinc^2(l/2pi) = (1 - cos l) / (pi l^2)
    tail = TailDescriptor.from_terms(((1.0 / np.pi, 0.0, 2), (-1.0 / np.pi, 1.0, 2)))
    meas = SpectralMeasure(grid, np.sinc(grid / (2.0 * np.pi)) ** 2 / (2.0 * np.pi), tail=tail)
    return PdKernel(
        family="triangle", half_width=0.5,
        evaluate=lambda x: 1.0 - x,
        derivative=lambda x: -np.ones_like(x),
        deriv_at_zero=(1.0, -1.0),
        measure=meas,
        poly_exp=((1.0, -1.0), 0.0),
    )


# sinc'(x) = pi (u cos u - sin u) / u^2 with u = pi x.  The difference
# cancels as |u| falls (to -u^3/3: F' near 0 lost a digit per decade of x),
# so below |u| = 1 it is summed from its series,
# (u cos u - sin u) / u^2 = u sum_{j>=1} (-1)^j 2j u^{2j-2} / (2j+1)!.
_SINC_DERIV_SERIES = tuple((-1) ** j * 2 * j / math.factorial(2 * j + 1) for j in range(1, 11))


def bspline_kernel(k: int, half_width: float = 1.0) -> PdKernel:
    """F_k(x) = (sin pi x / pi x)^k; frequency density is the compactly
    supported box autoconvolution B^{*k}(l / 2pi) / 2pi on [-k pi, k pi]."""
    if k < 1:
        raise DomainError("k must be >= 1")
    dens = lambda l: bspline_autoconvolution(k, np.asarray(l) / (2.0 * np.pi)) / (2.0 * np.pi)
    L = k * np.pi
    grid = np.linspace(-L, L, 4001)
    meas = SpectralMeasure(grid, dens(grid), tail=TailDescriptor.none())

    def ev(x):
        return np.sinc(x) ** k

    def dv(x):
        s = np.sinc(x)
        u = np.pi * x
        with np.errstate(divide="ignore", invalid="ignore"):
            far = (np.cos(u) - s) / x
        near = np.pi * u * np.polynomial.polynomial.polyval(u * u, _SINC_DERIV_SERIES)
        return k * s ** (k - 1) * np.where(np.abs(u) < 1.0, near, far)

    return PdKernel(family=f"bspline:{k}", half_width=half_width,
                    evaluate=ev, derivative=dv, deriv_at_zero=(0.0, 0.0),
                    measure=meas)


def bspline_x_poly_coeffs(k: int) -> tuple[float, ...]:
    """c with B^{*k}(t) / B^{*k}(0) = sum_q c_q |t|^q on [-1, 1], for even k.

    The knots of B^{*k} are the integers there, so on [0, 1] only the
    terms j <= k/2 of the closed form are active; with k/2 - j an integer,
    (k-1)! B^{*k} has integer coefficients and each c_q is one correctly
    rounded quotient of two exact integers."""
    half = k // 2
    ints = [sum((-1) ** j * math.comb(k, j) * math.comb(k - 1, q) * (half - j) ** (k - 1 - q)
                for j in range(half + 1)) for q in range(k)]
    return tuple(c / ints[0] for c in ints)


def bspline_x_kernel(k: int, half_width: float = 0.5) -> PdKernel:
    """Normalized x-space B-spline B^{*k}(x)/B^{*k}(0) restricted to (-a, a);
    k = 2 is the triangle.  Frequency density ~ sinc^k with tail exponent k,
    so k must be even (sinc^k < 0 somewhere for odd k).  For a <= 1 the
    kernel is one polynomial in |t| and carries its fast apply."""
    if k < 2 or k % 2:
        raise DomainError("bsplinex:k needs an even k >= 2: the density sinc^k "
                          "is negative somewhere for odd k")
    b0 = float(bspline_autoconvolution(k, 0.0))
    scale = 1.0 / (2.0 * np.pi * b0)
    L = 600.0
    grid = np.linspace(-L, L, 120001)
    # density(l) = scale 2^k sin^k(l/2) / l^k, and for even k
    # 2^k sin^k u = C(k, k/2) + 2 sum_{j<k/2} (-1)^{k/2-j} C(k, j) cos((k-2j) u)
    half = k // 2
    terms = [(scale * math.comb(k, half), 0.0, k)]
    terms += [(scale * 2 * (-1) ** (half - j) * math.comb(k, j), half - j, k)
              for j in range(half)]
    meas = SpectralMeasure(grid, scale * np.sinc(grid / (2.0 * np.pi)) ** k,
                           tail=TailDescriptor.from_terms(terms))

    def ev(x):
        return bspline_autoconvolution(k, x) / b0

    def dv(x):
        # (B^{*k})' = B^{*(k-1)}(x + 1/2) - B^{*(k-1)}(x - 1/2)
        return (bspline_autoconvolution(k - 1, x + 0.5)
                - bspline_autoconvolution(k - 1, x - 0.5)) / b0

    coeffs = bspline_x_poly_coeffs(k)
    # the one-sided limits of F' at 0 are -c_1 (left) and c_1 (right)
    return PdKernel(family=f"bsplinex:{k}", half_width=half_width,
                    evaluate=ev, derivative=dv, deriv_at_zero=(-coeffs[1], coeffs[1]),
                    measure=meas,
                    poly_exp=(coeffs, 0.0) if half_width <= 1.0 else None,
                    knots=tuple(float(j) for j in range(1, min(k // 2, int(half_width)) + 1)))


def tabulated_kernel(x: Sequence[float], F: Sequence[float],
                     dF: Sequence[float]) -> PdKernel:
    """Kernel from tabulated x, F(x), F'(x) on [0, a]; cubic Hermite between
    table points, even reflection to negative x, no extrapolation."""
    x = np.asarray(x, dtype=float)
    F = np.asarray(F, dtype=float)
    dF = np.asarray(dF, dtype=float)
    if x[0] != 0.0:
        raise DomainError("table must start at x = 0")
    if F[0] <= 0:
        raise DomainError("F(0) must be positive")
    from scipy.interpolate import CubicHermiteSpline
    a = float(x[-1])
    spl = CubicHermiteSpline(x, F, dF)
    return PdKernel(family="table", half_width=a, evaluate=spl, derivative=spl.derivative(),
                    deriv_at_zero=(-float(dF[0]), float(dF[0])),
                    knots=tuple(x[1:].tolist()))


def tabulated_kernel_from_csv(path: str) -> PdKernel:
    xs, Fs, dFs = [], [], []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].strip().lower() in ("x", ""):
                continue
            xs.append(float(row[0]))
            Fs.append(float(row[1]))
            dFs.append(float(row[2]))
    return tabulated_kernel(xs, Fs, dFs)


def kernel_from_name(name: str) -> PdKernel:
    """Kernel factory for CLI-style names: exp, triangle, bspline:k,
    bsplinex:k, table:<path>."""
    if name == "exp":
        return exp_kernel()
    if name == "triangle":
        return triangle_kernel()
    if name.startswith("bspline:"):
        return bspline_kernel(int(name.split(":", 1)[1]))
    if name.startswith("bsplinex:"):
        return bspline_x_kernel(int(name.split(":", 1)[1]))
    if name.startswith("table:"):
        return tabulated_kernel_from_csv(name.split(":", 1)[1])
    raise DomainError(f"unknown kernel family '{name}'")


def _printed_problem(kernel: PdKernel, what: str):
    """(descriptor, spec) at the kernel's (poly_exp, a), else DomainError."""
    try:
        return _PRINTED_PROBLEMS[(kernel.poly_exp, kernel.half_width)]
    except (KeyError, TypeError):
        raise DomainError(f"no {what} for kernel '{kernel.family}'") from None


def spec_for_kernel(kernel: PdKernel) -> TranscendentalSpec:
    return _printed_problem(kernel, "transcendental spectrum")[1]


def descriptor_for_kernel(kernel: PdKernel) -> EllipticDescriptor:
    return _printed_problem(kernel, "elliptic descriptor")[0]


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def evaluate_kernel(kernel: PdKernel, x: float):
    """F(x) with the continuous boundary limit at x = +-a; |x| > a raises."""
    v = kernel(x)
    return complex(v) if np.iscomplexobj(v) else float(v)


def gram_matrix(kernel: PdKernel, points: Sequence[float]) -> np.ndarray:
    """Hermitian matrix [F(x_i - x_j)] over points in [0, a]."""
    pts = np.asarray(points, dtype=float)
    if np.any(pts < -1e-12) or np.any(pts > kernel.half_width + 1e-12):
        raise DomainError("Gram points must lie in [0, a]")
    G = kernel(pts[:, None] - pts[None, :])
    return 0.5 * (G + G.conj().T)


@dataclass(frozen=True)
class PsdReport:
    passed: bool
    min_eigenvalues: np.ndarray
    worst: float
    witness: Optional[np.ndarray] = None


def check_positive_definite(kernel: PdKernel, n_points: int = 12,
                            trials: int = 50, seed: int = 0) -> PsdReport:
    """Random-Gram positive semidefiniteness probe on [0, a]; fails below -EPS_PSD."""
    if n_points < 2:
        raise DomainError("n_points must be >= 2")
    rng = np.random.default_rng(seed)
    mins = np.empty(trials)
    witness = None
    for t in range(trials):
        pts = rng.uniform(0.0, kernel.half_width, size=n_points)
        vals, vecs = np.linalg.eigh(gram_matrix(kernel, pts))
        mins[t] = vals[0]
        if vals[0] < -EPS_PSD and witness is None:
            witness = vecs[:, 0]
    return PsdReport(bool(np.all(mins >= -EPS_PSD)), mins, float(np.min(mins)), witness)


def deficiency_indices(kernel: PdKernel) -> tuple[int, int]:
    """(1,1) iff the attached extension measure has a divergent second moment."""
    if kernel.measure is None:
        raise DomainError(
            "kernel has no attached extension measure; construct one "
            "(e.g. via a type-1 extension) before asking for indices")
    res = second_moment(kernel.measure, kernel.measure.cutoff)
    if res.verdict == "divergent":
        return (1, 1)
    if res.verdict == "finite":
        return (0, 0)
    raise DomainError("second-moment verdict is indeterminate for this measure")


def concentration(mu: MeasureOnInterval) -> tuple[float, float]:
    """Degree of concentration q(mu) = double integral of e^{-|x-y|} d mu d mu
    and dispersion -log q, for probability measures."""
    mass = mu.total_mass()
    if abs(mass.imag) > 1e-10 or abs(mass.real - 1.0) > 1e-8 or mu.is_complex:
        raise DomainError("concentration requires a probability measure")
    lo, hi = mu.interval
    if np.any(mu.density.real < -1e-12):
        raise DomainError("concentration requires a nonnegative density")
    locs = np.array([loc for loc, _ in mu.atoms])
    weights = np.array([w.real for _, w in mu.atoms])
    # atom x atom
    q = float(np.sum(np.outer(weights, weights) * np.exp(-np.abs(locs[:, None] - locs))))
    has_density = len(mu.grid) > 1 and np.max(np.abs(mu.density)) > 0
    if has_density:
        grid, rho = mu.grid, mu.density.real
        rho_fn = lambda t: np.interp(t, grid, rho)
        # atom x density (both orders)
        for xa, wa in zip(locs, weights):
            q += 2.0 * wa * integrate(lambda y: np.exp(-np.abs(xa - y)) * rho_fn(y),
                                      lo, hi, n_panels=400, m=GL_POINTS, split_points=(xa,))
        # density x density with the kink split at the inner variable
        inner, _ = exp_kernel_apply(grid, rho_fn, m=GL_POINTS)
        q += float(simpson(inner * rho, grid))
    q = float(q)
    if not (0.0 < q <= 1.0 + 1e-9):
        raise DomainError(f"q(mu) = {q} outside (0, 1]")
    q = min(q, 1.0)
    return q, -math.log(q) + 0.0
