"""Closed-form dyadic orthonormal bases of H_F.

Gram-Schmidt over the kernel sections at the dyadic rationals in [0, a]
collapses to a three-term formula:

    h_0     = F_0
    h_1     = (F_a - F(a) F_0) / sqrt(1 - F(a)^2)
    h_{n,k} = s_n [ F_{k a/2^n} - c_n (F_{(k-1)a/2^n} + F_{(k+1)a/2^n}) ]

with c_n = F(a/2^n)/(1 + F(a/2^{n-1})), the squared norm of the bracket
being (1 + F(a/2^{n-1}) - 2 F(a/2^n)^2) / (1 + F(a/2^{n-1})), and k odd
below 2^n.  Expansion coefficients of f use the same three-point stencil on
f itself, so everything here is exact kernel arithmetic, never quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .kernels import DomainError, PdKernel, gram_matrix
from .rkhs import KernelCombo, combo_eval, combo_gram


@dataclass(frozen=True)
class DyadicIndex:
    """(0,0) and (0,1) are the seeds h_0, h_1; levels n >= 1 carry odd k < 2^n."""
    n: int
    k: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("level must be nonnegative")
        if self.n == 0 and self.k not in (0, 1):
            raise ValueError("seed indices are (0,0) and (0,1)")
        if self.n >= 1 and (self.k % 2 == 0 or not 0 < self.k < 2 ** self.n):
            raise ValueError("position must be odd and below 2^n")

    @property
    def label(self) -> str:
        return f"h_{self.k}" if self.n == 0 else f"h_{{{self.n},{self.k}}}"


@dataclass(frozen=True)
class OnbElement:
    """Normalized basis vector as an exact kernel combination."""
    index: DyadicIndex
    combo: KernelCombo
    unnormalized_norm_sq: float


def _seed(kernel: PdKernel) -> tuple[float, float]:
    """F(a) and 1 - F(a)^2, the squared norm of the unnormalized h_1; F(0) != 1 raises."""
    F0 = float(kernel(0.0))
    if abs(F0 - 1.0) > 1e-12:
        raise DomainError(f"the dyadic ONB formulas assume F(0) = 1, not {F0!r}")
    Fa = float(kernel(kernel.half_width))
    return Fa, 1.0 - Fa * Fa


def _level_data(kernel: PdKernel, n: int):
    a = kernel.half_width
    d = a / 2 ** n
    Fd = float(kernel(d))
    F2d = float(kernel(2 * d))
    denom = 1.0 + F2d
    cn = Fd / denom
    norm_sq = (1.0 + F2d - 2.0 * Fd * Fd) / denom
    return d, cn, norm_sq


def level_norm_sq(kernel: PdKernel, n: int, k: int = 1) -> float:
    """Closed-form squared H_F norm of the unnormalized basis vector."""
    _, seed_sq = _seed(kernel)
    if n == 0:
        return float(kernel(0.0)) if k == 0 else seed_sq
    return _level_data(kernel, n)[2]


def build_onb(kernel: PdKernel, depth: int) -> list[OnbElement]:
    """ONB elements through the given level; aborts when a level's sections
    become (numerically) linearly dependent."""
    a = kernel.half_width
    Fa, nsq = _seed(kernel)
    out = [OnbElement(DyadicIndex(0, 0), KernelCombo(((1.0, 0.0),)), float(kernel(0.0)))]
    if depth >= 0:
        if nsq < 1e-12:
            raise DomainError("sections F_0, F_a are linearly dependent")
        s = 1.0 / math.sqrt(nsq)
        out.append(OnbElement(DyadicIndex(0, 1),
                              KernelCombo(((s, a), (-s * Fa, 0.0))), nsq))
    for n in range(1, depth + 1):
        d, cn, nsq = _level_data(kernel, n)
        if nsq < 1e-12:
            raise DomainError(f"level {n} sections are linearly dependent")
        s = 1.0 / math.sqrt(nsq)
        for k in range(1, 2 ** n, 2):
            x = k * d
            combo = KernelCombo(((s, x), (-s * cn, x - d), (-s * cn, x + d)))
            out.append(OnbElement(DyadicIndex(n, k), combo, nsq))
    return out


def onb_gram(elements: Sequence[OnbElement], kernel: PdKernel) -> np.ndarray:
    """Gram matrix of ONB elements by exact kernel arithmetic."""
    return combo_gram([el.combo for el in elements], kernel)


@dataclass(frozen=True)
class ExpansionCoefficients:
    c0: complex
    c1: complex
    levels: tuple[np.ndarray, ...]       # levels[n-1] holds c_{n,k}, k odd
    depth: int

    def parseval_partials(self) -> np.ndarray:
        """Partial Parseval sums after each level (index 0: seeds only)."""
        sums = [abs(self.c0) ** 2 + abs(self.c1) ** 2]
        for arr in self.levels:
            sums.append(sums[-1] + float(np.sum(np.abs(arr) ** 2)))
        return np.asarray(sums)

    def to_json(self) -> str:
        import json
        return json.dumps({
            "c0": [self.c0.real, self.c0.imag],
            "c1": [self.c1.real, self.c1.imag],
            "levels": [[[z.real, z.imag] for z in arr] for arr in self.levels],
            "depth": self.depth,
        })


def expand(f: Callable, kernel: PdKernel, depth: int) -> ExpansionCoefficients:
    """Expansion coefficients of f over the dyadic ONB; c_{n,k} touches f
    only at the three points (k -+ 1) a/2^n, k a/2^n."""
    a = kernel.half_width
    Fa, seed_sq = _seed(kernel)
    f0 = complex(f(0.0))
    fa = complex(f(a))
    c1 = (fa - Fa * f0) / math.sqrt(seed_sq)
    levels = []
    for n in range(1, depth + 1):
        d, cn, nsq = _level_data(kernel, n)
        s = 1.0 / math.sqrt(nsq)
        k = np.arange(1, 2 ** n, 2)
        x = k * d
        fx = np.asarray(f(x), dtype=complex)
        fl = np.asarray(f(x - d), dtype=complex)
        fr = np.asarray(f(x + d), dtype=complex)
        levels.append(s * (fx - cn * (fl + fr)))
    return ExpansionCoefficients(f0, c1, tuple(levels), depth)


def parseval_norm(coeffs: ExpansionCoefficients) -> float:
    """|c_0|^2 + |c_1|^2 + sum |c_{n,k}|^2 -> ||f||_{H_F}^2."""
    return float(coeffs.parseval_partials()[-1])


def reconstruct_at(coeffs: ExpansionCoefficients, elements: Sequence[OnbElement],
                   kernel: PdKernel, x: float) -> complex:
    """Evaluate sum c h(x) for the built ONB (diagnostic use)."""
    flat = np.concatenate([[coeffs.c0, coeffs.c1], *coeffs.levels])
    m = min(len(flat), len(elements))
    vals = combo_eval([el.combo for el in elements[:m]], kernel, x)[0]
    return complex(flat[:m] @ vals)


@dataclass(frozen=True)
class CoefficientMembership:
    verdict: str                 # "in" | "out" | "indeterminate"
    parseval_sum: float
    partials: np.ndarray


def membership_by_coefficients(f: Callable, kernel: PdKernel,
                               depth: int = 14) -> CoefficientMembership:
    """Membership dichotomy from Parseval partial sums.

    Convergence is read off the per-level increments two doublings apart
    (ratio rho2 = inc[d]/inc[d-2]): decaying increments (rho2 <= 1/2) give a
    geometric tail bound, so "in"; non-decaying increments (rho2 >= 0.81)
    mean the sums grow at least linearly in depth, so "out".  Kernels with a
    kink at 0 put the per-level increments at ~1/4 each level; C^2 kernels
    (divergent case of the moment dichotomy) hold them constant, so both
    regimes sit far from the guard band.
    """
    coeffs = expand(f, kernel, depth)
    partials = coeffs.parseval_partials()
    inc = np.diff(partials)
    total = partials[-1]
    verdict = "indeterminate"
    if len(inc) >= 3:
        if inc[-1] < 1e-4 * max(total, 1e-300):
            verdict = "in"
        else:
            rho2 = inc[-1] / max(inc[-3], 1e-300)
            if rho2 <= 0.5:
                verdict = "in"
            elif rho2 >= 0.81:
                verdict = "out"
    return CoefficientMembership(verdict, float(total), partials)


def projection_interpolation(f: Callable, S: Sequence[float], kernel: PdKernel):
    """Orthogonal projection onto span{F_s : s in S} via the Gram system;
    the projection agrees with f on S and is idempotent on the span."""
    S = np.asarray(sorted(set(float(s) for s in S)))
    G = gram_matrix(kernel, S)
    sign, logdet = np.linalg.slogdet(G)
    if sign <= 0 or logdet < len(S) * math.log(1e-12):
        raise DomainError("kernel sections at S are numerically dependent")
    fv = np.asarray([complex(f(s)) for s in S])
    alpha = np.linalg.solve(G, fv)
    if np.max(np.abs(fv.imag)) == 0:
        alpha = alpha.real
        fv = fv.real

    def projected(x):
        x = np.asarray(x, dtype=float)
        K = kernel(np.atleast_1d(x)[:, None] - S[None, :])
        out = K @ alpha
        return out[0] if np.ndim(x) == 0 else out

    return projected, alpha


# ---------------------------------------------------------------------------
# table reproduction
# ---------------------------------------------------------------------------

def norm_table(kernel: PdKernel, depth: int) -> list[tuple[str, float]]:
    """Rows (label, squared norm of the unnormalized basis vector); this is
    the closed-form norm column of the appendix tables."""
    rows = [("h_0", level_norm_sq(kernel, 0, 0)),
            ("h_1", level_norm_sq(kernel, 0, 1))]
    for n in range(1, depth + 1):
        nsq = level_norm_sq(kernel, n)
        for k in range(1, 2 ** n, 2):
            rows.append((DyadicIndex(n, k).label, nsq))
    return rows


# (1 + F(a/2^{n-1}) - 2 F(a/2^n)^2) / (1 + F(a/2^{n-1})) for n >= 1,
# 1 - F(a)^2 (the second seed) for n = 0
generic_norm_formula = level_norm_sq
