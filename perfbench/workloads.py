"""Workloads of the pdext benchmark.

A workload is a list of tasks, built from seeded inputs.  A task is one
user-level computation (one CLI call, or one in-process pipeline step such
as discretize plus verify).  Each task has

* ``run(rec)``   -- the timed part; every call into pdext goes through
                    ``rec.call(<module>.<function>, fn, *args)``;
* ``oracle()``   -- the reference, computed once and untimed by a route
                    that does not share code with the timed path
                    (adaptive quadrature, closed forms, our own brentq);
* ``check(out, ref)`` -- a list of ``Check(function, err, tol)``.

Tolerances are the ones the repository's tests pin: trace identity 1e-9,
eigenvalue/root agreement 1e-4, root residuals 1e-10, Bochner 1e-8 (exp),
2e-5 (triangle), 5e-7 (B-spline family), isometry 1e-6, ONB Gram 1e-10,
closed-form norm tables 1e-12, G_r reconstruction 1e-9, concentration
1e-8, sampling formula twice the trigamma tail bound.  Operator
applications and smoothed inner products, which no test pins against an
oracle, are held to 1e-10.

Importing this module imports numpy, scipy and pdext, so the caller times
the import as part of set-up.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import polygamma

import pdext
from pdext import dyadic, elliptic, extensions, kernels, mercer, quadrature, rkhs

SRC = Path(pdext.__file__).resolve().parent.parent
TWO_PI = 2.0 * math.pi

# Failures the ROADMAP already documents.  They stay in the task list and in
# the failure count; ``correct`` in the result stays true while only checks of
# these functions fail.
MARKOV_ONLY_ONB = "ROADMAP item 3: the three-term dyadic ONB is exact only for Markov kernels"
TRIANGLE_BOCHNER = "ROADMAP item 4: triangle Bochner tails are off by ~1.5e-6"


@dataclass(frozen=True)
class Check:
    function: str      # per-layer name the checked output belongs to
    err: float
    tol: float

    @property
    def ok(self) -> bool:
        return bool(self.err <= self.tol)


@dataclass
class Task:
    name: str
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], list]
    oracle: Callable[[], Any] = lambda: None
    # function -> reason: failed checks of these functions are known defects
    known_defects: dict = field(default_factory=dict)
    ref: Any = None


@dataclass
class Workload:
    tasks: list
    setup_checks: Callable[[], list]

    def prepare(self) -> list:
        """Compute every oracle (untimed); return the set-up checks."""
        for task in self.tasks:
            task.ref = task.oracle()
        return self.setup_checks()


@dataclass(frozen=True)
class Sizes:
    nodes: int          # Nystrom nodes
    n_eigs: int         # eigenvalues matched against roots
    grid: int           # cells of the smoothing / application grids
    theta_n: int        # branches of the type-1 extension
    depth: int          # dyadic ONB depth


FULL = Sizes(nodes=2000, n_eigs=10, grid=2000, theta_n=1000, depth=6)
TINY = Sizes(nodes=400, n_eigs=3, grid=400, theta_n=50, depth=3)


# ---------------------------------------------------------------------------
# independent references
# ---------------------------------------------------------------------------

CLOSED_FORM = {
    "exp": lambda x: np.exp(-np.abs(x)),
    "triangle": lambda x: 1.0 - np.abs(x),
    "bspline:4": lambda x: np.sinc(x) ** 4,
}

BOCHNER_TOL = {"exp": 1e-8, "triangle": 2e-5, "bspline:4": 5e-7}

# which kernels the three-term dyadic formula is exact for
MARKOV = {"exp", "triangle"}


def scan_roots(f: Callable[[float], float], lo: float, count: int,
               step: float = 0.01) -> np.ndarray:
    """First ``count`` sign changes of a scalar f above lo, refined by brentq."""
    roots = []
    a, fa = lo, f(lo)
    while len(roots) < count:
        b = a + step
        fb = f(b)
        if fa * fb < 0.0:
            roots.append(brentq(f, a, b, xtol=1e-15))
        a, fa = b, fb
    return np.asarray(roots)


def exp_bvp_residual(k: float) -> float:
    """tan k = 2k/(k^2 - 1) with the poles cleared."""
    return (k * k - 1.0) * math.sin(k) - 2.0 * k * math.cos(k)


def triangle_bvp_residual(k: float) -> float:
    """Boundary determinant 4(1 + cos(k/2)) - 3k sin(k/2) of the triangle."""
    return 4.0 * (1.0 + math.cos(k / 2.0)) - 3.0 * k * math.sin(k / 2.0)


BVP = {
    # family -> (residual, k lower limit, Mercer eigenvalue of root k)
    "exp": (exp_bvp_residual, 1.0 + 1e-9, lambda k: 2.0 / (1.0 + k * k)),
    "triangle": (triangle_bvp_residual, 1e-3, lambda k: 2.0 / (k * k)),
}


def bvp_roots(family: str, count: int) -> np.ndarray:
    residual, lo, _ = BVP[family]
    return scan_roots(residual, lo, count)


def mercer_eigenvalues(family: str, count: int) -> np.ndarray:
    """Top Mercer eigenvalues from the transcendental roots."""
    _, _, to_eig = BVP[family]
    roots = bvp_roots(family, 2 * count + 8)
    return np.sort(to_eig(roots))[::-1][:count]


def theta_roots(theta: float, N: int) -> np.ndarray:
    """Lambda_theta for branches -N..N: lam + 2 atan(lam) = theta + 2 pi n."""
    th = theta % TWO_PI
    out = []
    for n in range(-N, N + 1):
        target = th + TWO_PI * n
        lo, hi = target - math.pi, target + math.pi
        out.append(brentq(lambda lam: lam + 2.0 * math.atan(lam) - target, lo, hi,
                          xtol=1e-15))
    return np.asarray(out)


def theta_relative_residual(theta: float, lams: np.ndarray) -> float:
    """max |e^{i lam} - e^{i theta} (1 - i lam)/(1 + i lam)|."""
    return float(np.max(np.abs(np.exp(1j * lams)
                               - np.exp(1j * theta) * (1 - 1j * lams) / (1 + 1j * lams))))


def trigamma_tail_bound(theta: float, N: int) -> float:
    """Majorant of sum_{|n|>N} 2/(lam_n^2 + 3) for Lambda_theta."""
    th = theta % TWO_PI
    s = polygamma(1, N + 0.5 + th / TWO_PI) + polygamma(1, N + 0.5 - th / TWO_PI)
    return float(2.0 * s / (4.0 * math.pi ** 2))


def dyadic_norms(F: Callable, a: float, depth: int) -> np.ndarray:
    """Squared norms of the unnormalized dyadic basis vectors, element order
    of build_onb, from kernel values alone."""
    out = [float(F(0.0)), 1.0 - float(F(a)) ** 2]
    for n in range(1, depth + 1):
        d = a / 2 ** n
        Fd, F2d = float(F(d)), float(F(2 * d))
        out += [(1.0 + F2d - 2.0 * Fd * Fd) / (1.0 + F2d)] * 2 ** (n - 1)
    return np.asarray(out)


def smoothed_inner(kernel, phi: Callable, psi: Callable) -> complex:
    """int conj(phi) T_F psi: composite Gauss-Legendre over adaptive-quadrature
    values of T_F psi."""
    t, wt = np.polynomial.legendre.leggauss(8)
    edges = np.linspace(0.0, kernel.half_width, 21)
    half = 0.5 * np.diff(edges)[:, None]
    x = (0.5 * (edges[:-1] + edges[1:])[:, None] + half * t).ravel()
    w = (half * wt).ravel()
    return complex(np.sum(w * np.conj(phi(x)) * mercer.apply_operator(kernel, psi, x)))


def closed_q(atoms, rho: Callable) -> float:
    """q(mu) = double integral of e^{-|x-y|} dmu dmu on [0, 1] for atoms plus
    a density, by nested adaptive quadrature split at the kink."""
    def t_rho(x):
        left = quad(lambda y: math.exp(y - x) * rho(y), 0.0, x)[0] if x > 0 else 0.0
        right = quad(lambda y: math.exp(x - y) * rho(y), x, 1.0)[0] if x < 1 else 0.0
        return left + right

    q = sum(wa * wb * math.exp(-abs(xa - xb)) for xa, wa in atoms for xb, wb in atoms)
    q += 2.0 * sum(wa * t_rho(xa) for xa, wa in atoms)
    q += quad(lambda x: rho(x) * t_rho(x), 0.0, 1.0, epsabs=1e-13, epsrel=1e-13)[0]
    return q


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def vanishing_function(rng, a: float) -> Callable:
    """Smooth phi on [0, a] vanishing at both ends (as smooth requires)."""
    c1, c2 = rng.uniform(-0.4, 0.4, 2)

    def phi(y):
        u = np.asarray(y, dtype=float) / a
        return np.sin(np.pi * u) ** 2 * (1.0 + c1 * np.cos(2 * np.pi * u) + c2 * np.sin(3 * np.pi * u))
    return phi


def smooth_function(rng, a: float) -> Callable:
    b1, b2, b3 = rng.uniform(1.0, 4.0), rng.uniform(0.0, 1.0), rng.uniform(-1.0, 1.0)

    def g(y):
        u = np.asarray(y, dtype=float) / a
        return (np.cos(b1 * u) + b2) * np.exp(b3 * u)
    return g


def bochner_points(rng, a: float, n: int = 8) -> np.ndarray:
    """One x in each of n equal bands of 0.1 a <= |x| <= 0.95 a, random sign.
    The cost of the per-x QAWF tails depends on x erratically (triangle:
    0.02 s at |x| = 0.47, 0.2 s at 0.15, 1 s at 0.01, 9 s at 0.001); bands
    keep the task's cost from being a matter of the seed.  x = 0 itself is
    transformed in every isometry task."""
    edges = np.linspace(0.1 * a, 0.95 * a, n + 1)
    return rng.uniform(edges[:-1], edges[1:]) * rng.choice([-1.0, 1.0], n)


def gaussian_mixture(rng) -> tuple[Callable, Callable]:
    """Positive definite F = sum w_i exp(-x^2 / (2 s_i^2)) with F(0) = 1."""
    w = rng.uniform(0.2, 1.0, 3)
    w /= w.sum()
    s = rng.uniform(0.3, 0.8, 3)

    def F(x):
        x = np.asarray(x, dtype=float)[..., None]
        return np.sum(w * np.exp(-x * x / (2 * s * s)), axis=-1)

    def dF(x):
        x = np.asarray(x, dtype=float)[..., None]
        return np.sum(-w * x / (s * s) * np.exp(-x * x / (2 * s * s)), axis=-1)
    return F, dF


def write_table(path: Path, F: Callable, dF: Callable, n: int = 256) -> None:
    """x, F(x), F'(x) on [0, 1]; every dyadic point of depth <= 8 is a node."""
    x = np.linspace(0.0, 1.0, n + 1)
    with open(path, "w") as fh:
        fh.write("x,F,dF\n")
        for xi, fi, di in zip(x, F(x), dF(x)):
            fh.write(f"{float(xi)!r},{float(fi)!r},{float(di)!r}\n")


def kernel_checks(kern: dict, closed: dict, rng) -> Callable[[], list]:
    """kernel_from_name oracle: values at seeded points against closed forms
    (1e-9 for the interpolated table, as its tests pin)."""
    def checks():
        out = []
        for name, k in kern.items():
            xs = rng.uniform(-k.half_width, k.half_width, 8)
            tol = 1e-9 if name.startswith("table:") else 1e-12
            out.append(Check("kernels.kernel_from_name",
                             float(np.max(np.abs(k(xs) - closed[name](xs)))), tol))
        return out
    return checks


# ---------------------------------------------------------------------------
# in-process tasks
# ---------------------------------------------------------------------------

def spectrum_task(k, sz: Sizes, verify: bool) -> Task:
    """discretize, plus (where the kernel has a transcendental spectrum)
    verify_against_mercer and solve_transcendental."""
    a = k.half_width
    spec = elliptic.spec_for_kernel(k) if verify else None
    count = 4 * sz.n_eigs
    residual = BVP[k.family][0] if verify else None

    def run(rec):
        dec = rec.call("mercer.discretize", mercer.discretize, k,
                       mercer.NystromConfig(sz.nodes))
        if not verify:
            return dec, None, None
        rep = rec.call("elliptic.verify_against_mercer", elliptic.verify_against_mercer,
                       spec, dec, sz.n_eigs)
        ks = rec.call("elliptic.solve_transcendental", elliptic.solve_transcendental,
                      spec, count)
        return dec, rep, ks

    def check(out, ref):
        dec, rep, ks = out
        checks = [Check("mercer.discretize", abs(dec.trace() - a), 1e-9)]
        if verify:
            eigs, roots = ref
            rel = float(np.max(np.abs(dec.eigenvalues[:sz.n_eigs] - eigs) / eigs))
            err = max(rel, rep.max_rel_error) if rep.all_matched else math.inf
            agree = float(np.max(np.abs(ks - roots) / roots))
            resid = max(abs(residual(float(x))) / (1.0 + x * x) for x in ks)
            checks += [Check("elliptic.verify_against_mercer", err, 1e-4),
                       Check("elliptic.solve_transcendental", max(agree, resid), 1e-10)]
        return checks

    def oracle():
        return (mercer_eigenvalues(k.family, sz.n_eigs), bvp_roots(k.family, count)) \
            if verify else None

    return Task(f"spectrum:{k.family}", run, check, oracle)


def smooth_task(k, phi, sz: Sizes, rng) -> Task:
    idx = np.sort(rng.choice(sz.grid + 1, 8, replace=False))
    grid = np.linspace(0.0, k.half_width, sz.grid + 1)

    def run(rec):
        return rec.call("rkhs.smooth", rkhs.smooth, phi, k, sz.grid)

    def check(el, ref):
        return [Check("rkhs.smooth", float(np.max(np.abs(el.values[idx] - ref))), 1e-10)]

    return Task(f"smooth:{k.family}", run, check,
                lambda: mercer.apply_operator(k, phi, grid[idx]))


def inner_task(k, phi, psi, sz: Sizes) -> Task:
    def run(rec):
        return rec.call("rkhs.inner_product_smoothed", rkhs.inner_product_smoothed,
                        phi, psi, k, sz.grid)

    def check(v, ref):
        return [Check("rkhs.inner_product_smoothed", abs(v - ref) / max(1.0, abs(ref)), 1e-10)]

    return Task(f"inner_product_smoothed:{k.family}", run, check,
                lambda: smoothed_inner(k, phi, psi))


def apply_task(k, g, sz: Sizes, rng) -> Task:
    """exp_kernel_apply on exp (the O(n) path), kernel_apply_on_grid on every
    other kernel (the dense path smooth falls back to)."""
    grid = np.linspace(0.0, k.half_width, sz.grid + 1)
    idx = np.sort(rng.choice(sz.grid + 1, 8, replace=False))
    if k.family == "exp":
        name = "quadrature.exp_kernel_apply"
        run = lambda rec: rec.call(name, quadrature.exp_kernel_apply, grid, g)[0]
    else:
        name = "quadrature.kernel_apply_on_grid"
        run = lambda rec: rec.call(name, quadrature.kernel_apply_on_grid, k, grid, g)

    def check(values, ref):
        return [Check(name, float(np.max(np.abs(values[idx] - ref))), 1e-10)]

    return Task(f"{name.split('.')[1]}:{k.family}", run, check,
                lambda: mercer.apply_operator(k, g, grid[idx]))


def bochner_task(k, xs, S, known_defects=None) -> Task:
    """bochner_transform at xs against the kernel's closed form, then the
    isometry criterion on S.  The measure reproduces F on S - S, so the exact
    isometry gap is 0: the reported gap is the error, held to the check's own
    tolerance 1e-6."""
    F = lambda t: float(k(t))

    def run(rec):
        vals = [rec.call("kernels.bochner_transform", kernels.bochner_transform, k.measure,
                         float(x)) for x in xs]
        return vals, rec.call("extensions.discrete_isometry_check",
                              extensions.discrete_isometry_check, S, F, k.measure,
                              trials=100, tol=1e-6)

    def check(out, ref):
        vals, rep = out
        gap = rep.max_gap if rep.psd_ok and rep.passed == (rep.max_gap < 1e-6) else math.inf
        return [Check("kernels.bochner_transform",
                      float(np.max(np.abs(np.asarray(vals) - ref))), BOCHNER_TOL[k.family]),
                Check("extensions.discrete_isometry_check", gap, 1e-6)]

    label = ",".join(f"{s:.4g}" for s in S)
    return Task(f"bochner_transform+isometry:{k.family}@{label}", run, check,
                lambda: CLOSED_FORM[k.family](xs), known_defects or {})


def onb_task(k, F_closed: Callable, depth: int) -> Task:
    a = k.half_width

    def run(rec):
        els = rec.call("dyadic.build_onb", dyadic.build_onb, k, depth)
        return els, rec.call("dyadic.onb_gram", dyadic.onb_gram, els, k)

    def check(out, ref):
        els, G = out
        norms = np.array([el.unnormalized_norm_sq for el in els])
        return [Check("dyadic.build_onb", float(np.max(np.abs(norms - ref))), 1e-12),
                Check("dyadic.onb_gram", float(np.max(np.abs(G - np.eye(len(els))))), 1e-10)]

    defects = {} if k.family in MARKOV else {"dyadic.onb_gram": MARKOV_ONLY_ONB}
    return Task(f"onb_gram:{k.family}@depth{depth}", run, check,
                lambda: dyadic_norms(F_closed, a, depth), defects)


def extensions_task(kexp, theta: float, N: int, xs, f: Callable, sample_xs,
                    r: float, gr_xs) -> Task:
    """Extensions of exp to R: Lambda_theta and F_theta, the sampling formula
    (T_F f)(x) over the same spectrum, and the type-2 G_r reconstruction."""
    def run(rec):
        ext = rec.call("extensions.extend_type1", extensions.extend_type1, theta, N)
        samples = [rec.call("extensions.sample_via_spectrum", extensions.sample_via_spectrum,
                            f, ext, float(x)) for x in sample_xs]
        g = extensions.g_r_extension(r)
        return ext, samples, [rec.call("extensions.g_r_reconstruct", g.reconstruct, float(x))
                              for x in gr_xs]

    def check(out, ref):
        ext, samples, gr = out
        lams, bound, tf = ref
        agree = float(np.max(np.abs(ext.lambdas - lams) / np.maximum(1.0, np.abs(lams))))
        resid = theta_relative_residual(theta, ext.lambdas)
        restr = float(np.max(np.abs(ext(xs) - np.exp(-np.abs(xs)))))
        return [Check("extensions.extend_type1", max(agree, resid), 1e-10),
                Check("extensions.extend_type1", restr, bound),
                Check("extensions.sample_via_spectrum",
                      float(np.max(np.abs(np.asarray(samples) - tf))), 2.0 * bound),
                Check("extensions.g_r_reconstruct",
                      float(np.max(np.abs(np.asarray(gr) - np.exp(-np.abs(gr_xs))))), 1e-9)]

    return Task(f"extensions:N{N},r{r:.4f}", run, check,
                lambda: (theta_roots(theta, N), trigamma_tail_bound(theta, N),
                         mercer.apply_operator(kexp, f, sample_xs)))


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------

def structured(seed: int, rec, sz: Sizes, workdir: Path) -> Workload:
    """exp and triangle: the kernels with Markov / polynomial-in-|t| structure
    that the fast paths of ROADMAP items 2-5 use."""
    rng = np.random.default_rng([seed, 1])
    kern = {name: rec.call("kernels.kernel_from_name", kernels.kernel_from_name, name)
            for name in ("exp", "triangle")}
    kexp, ktri = kern["exp"], kern["triangle"]
    theta = float(rng.uniform(0.0, TWO_PI))
    # the README/ROADMAP triangle set, kept although its isometry fails today
    sets = {"exp": np.sort(rng.uniform(0.0, 1.0, 3)), "triangle": np.array([0.0, 0.2, 0.4])}
    defects = {"exp": {}, "triangle": {"extensions.discrete_isometry_check": TRIANGLE_BOCHNER}}
    tasks = []
    for k in (kexp, ktri):
        a = k.half_width
        phi, psi = vanishing_function(rng, a), smooth_function(rng, a)
        tasks += [spectrum_task(k, sz, verify=True),
                  smooth_task(k, phi, sz, rng),
                  inner_task(k, phi, psi, sz),
                  apply_task(k, smooth_function(rng, a), sz, rng),
                  onb_task(k, CLOSED_FORM[k.family], sz.depth),
                  bochner_task(k, bochner_points(rng, a), sets[k.family], defects[k.family])]
    f = elliptic.mollifier(float(rng.uniform(0.35, 0.65)), float(rng.uniform(0.15, 0.3)))[0]
    tasks.append(extensions_task(kexp, theta, sz.theta_n, rng.uniform(-0.95, 0.95, 8), f,
                                 rng.uniform(0.05, 0.95, 2), float(rng.uniform(0.0, 1.0)),
                                 rng.uniform(-0.95, 0.95, 3)))
    return Workload(tasks, kernel_checks(kern, CLOSED_FORM, rng))


def generic(seed: int, rec, sz: Sizes, workdir: Path) -> Workload:
    """bspline:4 and a seeded tabulated kernel: no usable structure, so every
    step takes the dense / generic fallback path."""
    rng = np.random.default_rng([seed, 2])
    F, dF = gaussian_mixture(rng)
    table = workdir / "table.csv"
    write_table(table, F, dF)
    names = ("bspline:4", f"table:{table}")
    kern = {name: rec.call("kernels.kernel_from_name", kernels.kernel_from_name, name)
            for name in names}
    kb, kt = kern[names[0]], kern[names[1]]
    closed = {names[0]: CLOSED_FORM["bspline:4"], names[1]: F}
    tasks = []
    for name, k in kern.items():
        a = k.half_width
        phi, psi = vanishing_function(rng, a), smooth_function(rng, a)
        tasks += [spectrum_task(k, sz, verify=False),
                  smooth_task(k, phi, sz, rng),
                  inner_task(k, phi, psi, sz),
                  apply_task(k, smooth_function(rng, a), sz, rng),
                  onb_task(k, closed[name], sz.depth)]
    tasks.append(bochner_task(kb, bochner_points(rng, kb.half_width),
                              np.sort(rng.uniform(0.0, 1.0, 3))))
    return Workload(tasks, kernel_checks(kern, closed, rng))


# ---------------------------------------------------------------------------
# cli-readme: the nine README examples as fresh processes
# ---------------------------------------------------------------------------

def run_cli(argv: list, workdir: Path, out: str = "") -> tuple[int, str]:
    """``python -m pdext <argv>`` in workdir; returns (exit code, output text)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "pdext", *argv], cwd=workdir, env=env,
                          capture_output=True, text=True, timeout=150)
    text = proc.stdout
    if out and proc.returncode == 0:
        text = (workdir / out).read_text()
    return proc.returncode, text


def csv_rows(text: str) -> list:
    return list(csv.reader(io.StringIO(text)))[1:]


def cli_task(cmd: str, argv: list, workdir: Path, check: Callable, oracle: Callable,
             out: str = "") -> Task:
    """A CLI call whose output ``check(text, ref)`` parses; exit codes other
    than 0 fail the task."""
    name = f"cli.{cmd}"

    def run(rec):
        return rec.call(name, run_cli, argv, workdir, out)

    def checked(result, ref):
        code, text = result
        if code != 0:
            return [Check(name, math.inf, 0.0)]
        return [Check(name, err, tol) for err, tol in check(text, ref)]

    return Task(f"{name}:{' '.join(argv)}", run, checked, oracle)


def cli_readme(seed: int, rec, sz: Sizes, workdir: Path) -> Workload:
    """README CLI examples; the seed sets theta, r, the points and the
    probability measure.  Interpreter start and ``import pdext`` (L0) dominate."""
    rng = np.random.default_rng([seed, 3])
    kern = {name: rec.call("kernels.kernel_from_name", kernels.kernel_from_name, name)
            for name in ("exp", "triangle")}
    kexp = kern["exp"]
    theta = float(rng.uniform(0.0, TWO_PI))
    r = float(rng.uniform(0.0, 1.0))
    points = np.sort(rng.uniform(0.0, 1.0, 3))
    # probability measure on [0, 1]: two atoms plus a linear density
    atoms = [(float(x), float(w)) for x, w in zip(rng.uniform(0.0, 1.0, 2),
                                                  rng.uniform(0.05, 0.3, 2))]
    mass = 1.0 - sum(w for _, w in atoms)
    slope = float(rng.uniform(-0.9, 0.9))
    rho = lambda y: mass * (1.0 + slope * (y - 0.5))
    grid = np.linspace(0.0, 1.0, 2001)
    measure = kernels.MeasureOnInterval.from_density((0.0, 1.0), grid, rho(grid), atoms)
    (workdir / "mu.json").write_text(measure.to_json())
    f_sample = elliptic.mollifier(0.5, 0.3)[0]
    sample_x = np.linspace(0.05, 0.95, 19)

    def spectrum(text, ref):
        rows = csv_rows(text)
        lam = np.array([float(row[1]) for row in rows])
        res = max(float(row[2]) for row in rows)
        return [(float(np.max(np.abs(lam - ref) / np.maximum(1.0, np.abs(ref)))), 1e-10),
                (res, 1e-10)]

    def extend_theta(text, bound):
        rows = [(float(x), complex(v)) for x, v, _ in csv_rows(text)]
        inside = [abs(v - math.exp(-abs(x))) for x, v in rows if abs(x) < 1.0]
        return [(max(inside), bound)]

    def extend_r(text, ref):
        rows = [(float(x), float(v)) for x, v, _ in csv_rows(text)]
        want = lambda x: math.exp(-abs(x)) if abs(x) < 1 else math.exp(-1 + r * (1 - abs(x)))
        return [(max(abs(v - want(x)) for x, v in rows), 1e-12)]

    def mercer_tri(text, ref):
        lam = np.array([float(row[1]) for row in csv_rows(text)])
        matched = all(row[5] == "matched" for row in csv_rows(text))
        rel = float(np.max(np.abs(lam - ref) / ref)) if matched else math.inf
        return [(rel, 1e-4)]

    def onb_exp(text, ref):
        nsq = np.array([float(row[1]) for row in csv_rows(text)])
        return [(float(np.max(np.abs(nsq - ref))), 1e-12)]

    def moments(text, ref):
        got = {row[0]: (row[2], row[3]) for row in csv_rows(text)}
        return [(0.0 if got == ref else math.inf, 0.0)]

    def concentration(text, q):
        row = csv_rows(text)[0]
        return [(abs(float(row[0]) - q), 1e-8),
                (abs(float(row[1]) + math.log(q)), 1e-8)]

    def sample(text, ref):
        values, bound = ref
        got = np.array([complex(row[1]) for row in csv_rows(text)])
        return [(float(np.max(np.abs(got - values))), 2.0 * bound)]

    def isometry(text, ref):
        payload = json.loads(text)
        return [(payload["max_gap"] if payload["passed"] else math.inf, 1e-6)]

    exp_depth = 3
    tasks = [
        cli_task("spectrum", ["spectrum", "--theta", repr(theta), "--n", "10",
                              "--out", "lambda.csv"], workdir, spectrum,
                 lambda: theta_roots(theta, 10), out="lambda.csv"),
        cli_task("extend", ["extend", "--theta", repr(theta), "--n", "100",
                            "--xmin", "-4", "--xmax", "4"], workdir, extend_theta,
                 lambda: trigamma_tail_bound(theta, 100)),
        cli_task("extend_r", ["extend", "--r", repr(r), "--points", "401"], workdir,
                 extend_r, lambda: None),
        cli_task("mercer", ["mercer", "--kernel", "triangle", "--nodes", "400",
                            "--n", "5"], workdir, mercer_tri,
                 lambda: mercer_eigenvalues("triangle", 5)),
        cli_task("onb", ["onb", "--kernel", "exp", "--depth", str(exp_depth)], workdir,
                 onb_exp, lambda: dyadic_norms(CLOSED_FORM["exp"], 1.0, exp_depth)),
        # tail exponents 2, 2 and 4: second moments diverge, diverge, converge
        cli_task("moments", ["moments"], workdir, moments,
                 lambda: {"exp": ("divergent", "(1,1)"), "triangle": ("divergent", "(1,1)"),
                          "bsplinex:4": ("finite", "(0,0)")}),
        cli_task("concentration", ["concentration", "--measure", "mu.json"], workdir,
                 concentration, lambda: closed_q(atoms, rho)),
        cli_task("sample", ["sample", "--theta", repr(theta), "--n", "60"], workdir, sample,
                 lambda: (mercer.apply_operator(kexp, f_sample, sample_x),
                          trigamma_tail_bound(theta, 60))),
        cli_task("isometry", ["isometry", "--points", ",".join(repr(float(p)) for p in points)],
                 workdir, isometry, lambda: None),
    ]
    return Workload(tasks, kernel_checks(kern, CLOSED_FORM, rng))


WORKLOADS = {"cli-readme": cli_readme, "structured": structured, "generic": generic}
