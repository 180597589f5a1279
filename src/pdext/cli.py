"""Command line front end: emits spectra, extensions, Mercer tables, ONB
tables, moment dichotomies and concentration functionals as CSV or JSON.

Every subcommand is deterministic for a fixed argument set; CSV carries full
double precision (17 significant digits) and files are written atomically
(temp file + rename).  Exit code 0 means all internal checks passed; on
failure a machine-readable error JSON goes to stdout and the exit code is
nonzero.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
import tempfile

import numpy as np

from . import dyadic, elliptic, extensions, kernels, mercer, rkhs

FMT = "%.17g"
# least meaningful value of each integer option that has one
INT_FLOORS = {"depth": 0, "points": 1, "trials": 1}
# |lam x| past which the rounding of lam x alone exceeds 2 pi
PHASE_LIMIT = 2.0 ** 52


def _fmt(x) -> str:
    if isinstance(x, complex) or np.iscomplexobj(np.asarray(x)):
        z = complex(x)
        return f"{FMT % z.real}{'+' if z.imag >= 0 else '-'}{FMT % abs(z.imag)}j"
    return FMT % float(x)


def _write_atomic(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(rows, header, args, extra_json=None) -> None:
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) if not isinstance(v, (str, int)) else str(v)
                             for v in row])
        text = buf.getvalue()
    else:
        payload = {"header": header,
                   "rows": [[v if isinstance(v, (str, int)) else
                             ({"re": complex(v).real, "im": complex(v).imag}
                              if np.iscomplexobj(v) else float(v))
                             for v in row] for row in rows]}
        if extra_json:
            payload.update(extra_json)
        text = json.dumps(payload, indent=1) + "\n"
    _output(text, args)


def _output(text: str, args) -> None:
    """Write ``text`` to ``args.out`` atomically, or to stdout without one."""
    if args.out:
        _write_atomic(args.out, text)
    else:
        sys.stdout.write(text)


def _wrap_pi(x):
    return (x + np.pi) % (2 * np.pi) - np.pi


def cmd_spectrum(args) -> int:
    theta = args.theta
    reduced = theta % (2 * np.pi)
    if reduced != theta:
        print(f"notice: theta reduced mod 2*pi to {reduced!r}", file=sys.stderr)
    ext = extensions.extend_type1(reduced, args.n)
    spec = ext.spectrum
    if np.max(spec.residuals) > 1e-10:
        raise RuntimeError(f"root residual {np.max(spec.residuals):.3e} above 1e-10")
    rows = [(int(n), lam, res) for n, lam, res in
            zip(spec.branches, spec.lambdas, spec.residuals)]
    extra = {"theta": spec.theta, "tail_bound": ext.tail_bound}
    _emit(rows, ["n", "lambda", "residual"], args, extra)
    if args.curves:
        lam = np.linspace(spec.lambdas[0] - 1, spec.lambdas[-1] + 1, 4001)
        crows = [(l, _wrap_pi(l - spec.theta), _wrap_pi(-2 * np.arctan(l)))
                 for l in lam]
        ca = argparse.Namespace(format=args.format, out=args.curves)
        _emit(crows, ["lambda", "wrapped_lambda_minus_theta", "wrapped_minus_2_arctan"], ca)
    return 0


def cmd_extend(args) -> int:
    # Python floats: a sum or product past the largest double is inf, not a warning
    if not np.isfinite(args.xmax - args.xmin):
        raise kernels.DomainError(f"[{args.xmin}, {args.xmax}] is wider than the largest double")
    if args.xmin > args.xmax:
        raise kernels.DomainError(f"--xmin {args.xmin} exceeds --xmax {args.xmax}")
    xs = np.linspace(args.xmin, args.xmax, args.points)
    if args.r is not None:
        g = extensions.g_r_extension(args.r)
        vals = g(xs)
        err = [abs(v - np.exp(-abs(x))) if abs(x) < 1.0 else float("nan")
               for x, v in zip(xs, vals)]
        rows = list(zip(xs, vals, err))
        mass = g.mass()
        if abs(mass - 1.0) > 1e-9:
            raise RuntimeError(f"ghat_r mass {mass!r} deviates from 1")
        _emit(rows, ["x", "G_r", "restriction_error"], args,
              {"r": args.r, "mass": mass})
        return 0
    ext = extensions.extend_type1(args.theta, args.n)
    if float(np.max(np.abs(ext.lambdas))) * max(abs(args.xmin), abs(args.xmax)) >= PHASE_LIMIT:
        raise kernels.DomainError(f"max |lambda x| of F_theta reaches 2^52 on [{args.xmin}, "
                                  f"{args.xmax}], where its rounding alone exceeds 2 pi")
    vals = ext(xs)
    err = [float(abs(v - np.exp(-abs(x)))) if abs(x) < 1.0 else float("nan")
           for x, v in zip(xs, vals)]
    inside = [e for x, e in zip(xs, err) if abs(x) < 1.0]
    if inside and max(inside) > ext.tail_bound * (1 + 1e-9):
        raise RuntimeError("restriction error exceeds the tail bound")
    rows = list(zip(xs, vals, err))
    _emit(rows, ["x", "F_theta", "restriction_error"], args,
          {"theta": ext.theta, "tail_bound": ext.tail_bound})
    return 0


def cmd_mercer(args) -> int:
    kernel = kernels.kernel_from_name(args.kernel)
    spec = elliptic.spec_for_kernel(kernel)
    dec = mercer.discretize(kernel, mercer.NystromConfig(args.nodes))
    a = kernel.half_width
    if abs(dec.trace() - a) > 1e-9:
        raise RuntimeError(f"trace {dec.trace()!r} deviates from {a}")
    report = elliptic.verify_against_mercer(spec, dec, args.n)
    matched = {i: (k, m, rel) for i, _, k, m, rel in report.matched}
    rows = []
    for i in range(args.n):
        lam = float(dec.eigenvalues[i])
        if i in matched:
            rows.append((i + 1, lam, *matched[i], "matched"))
        else:
            rows.append((i + 1, lam, float("nan"), float("nan"), float("nan"),
                         "unmatched"))
    _emit(rows, ["n", "nystrom_eigenvalue", "root_k", "mapped_root", "rel_error",
                 "status"],
          args, {"trace": dec.trace(), "trace_target": a,
                 "unmatched": len(report.unmatched)})
    if args.curves:
        ks = np.linspace(spec.k_min + 1e-3, 40.0, 4001)
        with np.errstate(over="ignore", invalid="ignore"):
            c1, c2 = spec.curves(ks)
        ca = argparse.Namespace(format=args.format, out=args.curves)
        _emit(list(zip(ks, c1, c2)), ["k", "curve_lhs", "curve_rhs"], ca)
    return 0


def cmd_onb(args) -> int:
    kernel = kernels.kernel_from_name(args.kernel)
    rows = [(label, nsq) for label, nsq in dyadic.norm_table(kernel, args.depth)]
    _emit(rows, ["element", "squared_norm"], args)
    if args.functions:
        elements = dyadic.build_onb(kernel, min(args.depth, 3))[:5]
        xs = np.linspace(0.0, kernel.half_width, 201)
        vals = rkhs.combo_eval([el.combo for el in elements], kernel, xs).real
        frows = [(x, *v) for x, v in zip(xs, vals)]
        ca = argparse.Namespace(format=args.format, out=args.functions)
        _emit(frows, ["x"] + [el.index.label for el in elements], ca)
    return 0


def cmd_moments(args) -> int:
    rows = []
    for name in (args.kernels.split(",") if args.kernels else []):
        kernel = kernels.kernel_from_name(name)
        if kernel.measure is None:
            rows.append((name, "-", "indeterminate", "-"))
            continue
        res = kernels.second_moment(kernel.measure, kernel.measure.cutoff)
        idx = {"divergent": "(1,1)", "finite": "(0,0)"}.get(res.verdict, "indeterminate")
        rows.append((name, res.value, res.verdict, idx))
    _emit(rows, ["kernel", "truncated_second_moment", "verdict", "indices"], args)
    return 0


def cmd_concentration(args) -> int:
    with open(args.measure) as fh:
        mu = kernels.MeasureOnInterval.from_json(fh.read())
    q, delta = kernels.concentration(mu)
    _emit([(q, delta)], ["q", "dispersion"], args)
    return 0


def cmd_sample(args) -> int:
    ext = extensions.extend_type1(args.theta, args.n)
    f, _, _ = elliptic.mollifier(args.center, args.width)
    if args.center + args.width <= 0.0 or args.center - args.width >= 1.0:
        raise kernels.DomainError(f"the bump at {args.center} of width {args.width} misses (0, 1)")
    xs = np.linspace(0.05, 0.95, args.points)
    _, volt = mercer.volterra_apply(f, grid=xs)
    sv = extensions.sample_via_spectrum(f, ext, xs)
    gaps = np.abs(sv - volt)
    _emit(list(zip(xs, sv, volt, gaps)), ["x", "via_spectrum", "via_volterra", "gap"], args,
          {"max_gap": float(np.max(gaps)), "tail_bound": ext.tail_bound})
    return 0


def cmd_isometry(args) -> int:
    try:
        S = [float(s) for s in args.points.split(",")]
    except ValueError as exc:
        raise kernels.DomainError(f"--points: {exc}") from None
    kernel = kernels.kernel_from_name(args.kernel)
    report = extensions.discrete_isometry_check(
        S, lambda t: float(kernel(t)), kernel.measure,
        trials=args.trials, tol=args.tol)
    payload = {"passed": report.passed, "max_gap": report.max_gap,
               "psd_ok": report.psd_ok, "points": S}
    _output(json.dumps(payload, indent=1) + "\n", args)
    return 0 if report.passed else 3


class _Parser(argparse.ArgumentParser):
    """Reads an argument that starts with a minus sign and a digit, such as
    ``--points -1,0.5`` or ``--xmin -1e300``, as a value, not as an option
    (no option of pdext looks like a number)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="pdext", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="output path (stdout if omitted)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("spectrum", help="eigenvalues Lambda_theta of A_theta")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--n", type=int, default=10, help="branches [-n, n]")
    p.add_argument("--curves", default=None, help="also write curve samples here")
    common(p)
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("extend", help="type-1 (theta) or type-2 (r) extension values")
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--xmin", type=float, default=-4.0)
    p.add_argument("--xmax", type=float, default=4.0)
    p.add_argument("--points", type=int, default=401)
    common(p)
    p.set_defaults(fn=cmd_extend)

    p = sub.add_parser("mercer", help="Nystrom spectrum vs transcendental roots")
    p.add_argument("--kernel", default="exp")
    p.add_argument("--nodes", type=int, default=400)
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--curves", default=None)
    common(p)
    p.set_defaults(fn=cmd_mercer)

    p = sub.add_parser("onb", help="dyadic ONB norm table")
    p.add_argument("--kernel", default="triangle")
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--functions", default=None,
                   help="also write sampled ONB functions here")
    common(p)
    p.set_defaults(fn=cmd_onb)

    p = sub.add_parser("moments", help="second-moment dichotomy table")
    p.add_argument("--kernels", default="exp,triangle,bsplinex:4")
    common(p)
    p.set_defaults(fn=cmd_moments)

    p = sub.add_parser("concentration", help="q(mu) and dispersion of a measure")
    p.add_argument("--measure", required=True, help="measure JSON path")
    common(p)
    p.set_defaults(fn=cmd_concentration)

    p = sub.add_parser("sample", help="sampling formula vs Volterra application")
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--n", type=int, default=60)
    p.add_argument("--center", type=float, default=0.5)
    p.add_argument("--width", type=float, default=0.3)
    p.add_argument("--points", type=int, default=19)
    common(p)
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("isometry", help="discrete-subset isometry criterion")
    p.add_argument("--kernel", default="exp")
    p.add_argument("--points", default="0,0.3333333333333333,0.5")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-6)
    common(p)
    p.set_defaults(fn=cmd_isometry)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for name, value in vars(args).items():
            if isinstance(value, float) and not np.isfinite(value):
                raise kernels.DomainError(f"--{name} must be finite, got {value!r}")
            if isinstance(value, int) and value < INT_FLOORS.get(name, value):
                raise kernels.DomainError(f"--{name} must be >= {INT_FLOORS[name]}, got {value}")
        return args.fn(args)
    except Exception as exc:  # error JSON contract
        sys.stdout.write(json.dumps(
            {"error": type(exc).__name__, "detail": str(exc)}) + "\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
