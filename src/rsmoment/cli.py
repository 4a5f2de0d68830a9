"""Batch experiment driver: command dispatch, CSV + manifest output.

Commands mirror the verification surfaces: trace-check (trace-formula
cross-validation), afe (central values + G-independence), kloosterman,
rhs-nf, units, moment, scan, recover, make-newform.  Each command declares
exactly the options it reads, so any other option is refused (exit 2).
Arguments may also come from ``@FILE`` files, one argument per line; blank
and ``#`` lines are skipped.  Every command but make-newform writes a
manifest (its options, package and interpreter versions, certificates)
next to its CSV, so a run can be reproduced byte-for-byte from the
manifest alone.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .numfield import get_field
from .modforms import dim_cusp, eigenforms, load_newform, newform_from_eigenform, write_newform
from .rankin import (DEFAULT_G_SCALE, DEFAULT_CONTOUR, UncertifiedError, VParams,
                     central_value, effective_cutoff)
from .tracefmla import (TraceRHSParams, kloosterman_nf, kloosterman_q,
                        KloostermanQuery, petersson_rhs_nf, petersson_rhs_q,
                        unit_sum_tail)
from . import moments

_TRACE_CHECK_TOL = 1e-8  # worst relative |LHS - RHS| trace-check passes


def _write_outputs(args, csv_text: str, certs: dict, stem: str) -> Path:
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    csv_path = outdir / f"{stem}.csv"
    csv_path.write_text(csv_text)
    options = vars(args).copy()
    manifest = {
        "command": options.pop("command"),
        "options": options,
        "versions": {"rsmoment": __version__,
                     "python": sys.version.split()[0],
                     "numpy": np.__version__},
        "certificates": certs,
    }
    (outdir / f"{stem}.manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return csv_path


def _parse_krange(spec: str) -> list[int]:
    """The weights of a comma list or lo:hi[:step] (step 2); a spec of
    neither form, a range that names no weight, or a step <= 0, raises
    ValueError."""
    parts = spec.split(":")
    try:
        nums = [int(x) for x in (parts if len(parts) > 1 else spec.split(","))]
    except ValueError:
        nums = None
    if nums is None or len(parts) > 3:
        raise ValueError(f"--k {spec} is neither a comma list of weights nor lo:hi[:step]")
    if len(parts) == 1:
        return nums
    lo, hi, step = (nums + [2])[:3]
    ks = list(range(lo, hi + 1, step)) if step > 0 else []
    if not ks:
        raise ValueError(f"--k {spec} names no weight: lo:hi[:step] needs lo <= hi "
                         f"and step > 0")
    return ks


def cmd_kloosterman(args) -> int:
    if args.field == "Q":
        if args.c2:
            raise ValueError("--c2 is the omega-coordinate of c over a quadratic field; "
                             "Q has degree 1")
        val = kloosterman_q(args.m, args.n, args.c)
    else:
        field = get_field(args.field)
        val = kloosterman_nf(KloostermanQuery(alpha=field.element(args.m),
                                              beta=field.element(args.n),
                                              c=field.element(args.c, args.c2)))
    csv = "field,m,n,c,value\n" + f"{args.field},{args.m},{args.n},{args.c},{val:.15g}\n"
    _write_outputs(args, csv, {"certificate": 0.0}, "kloosterman")
    print(f"{val:.15g}")
    return 0


def cmd_rhs_nf(args) -> int:
    field = get_field(args.field)
    kvec = tuple(int(x) for x in args.k.split(","))
    params = TraceRHSParams(weight_vec=kvec, c_norm_bound=args.cmax,
                            unit_height_bound=args.B, tol=args.tol)
    rv = petersson_rhs_nf(field.element(args.nu), field.element(args.xi), params)
    csv = ("field,k1,k2,nu,xi,cmax,B,value,certificate\n"
           f"{args.field},{kvec[0]},{kvec[1]},{args.nu},{args.xi},"
           f"{args.cmax},{args.B},{rv.value:.15g},{rv.certificate:.6g}\n")
    _write_outputs(args, csv, {"certificate": rv.certificate}, "rhs_nf")
    print(f"{rv.value:.15g} (certificate {rv.certificate:.3g})")
    return 0


def cmd_units(args) -> int:
    field = get_field(args.field)
    rows = ["field,lambda0,height_exponent,partial_sum,tail_certificate"]
    eps1 = field.eps1
    certs = {}
    for t in range(2, args.tmax + 1, 2):
        us = unit_sum_tail(field, args.lam, eps1 ** t)
        rows.append(f"{args.field},{args.lam},{t},{us.value:.15g},{us.certificate:.6g}")
        certs[f"height_eps^{t}"] = us.certificate
    _write_outputs(args, "\n".join(rows) + "\n", certs, "units")
    print("\n".join(rows))
    return 0


def cmd_trace_check(args) -> int:
    rows = ["k,pair,lhs,rhs,abs_error,tolerance"]
    worst = 0.0
    for k in _parse_krange(args.k):
        ow = moments.omega_weights(k)
        forms = eigenforms(k, 64)
        for (m, n) in moments._HELD_OUT_PAIRS:
            lhs = float(sum(w * f.c(m) * f.c(n) for w, f in zip(ow.omega, forms)))
            rv = petersson_rhs_q(m, n, k)
            err = abs(lhs - rv.value)
            worst = max(worst, err / max(1.0, abs(rv.value)))
            rows.append(f"{k},({m};{n}),{lhs:.15g},{rv.value:.15g},{err:.3g},"
                        f"{_TRACE_CHECK_TOL:g}")
    _write_outputs(args, "\n".join(rows) + "\n",
                   {"worst_relative_error": worst}, "trace_check")
    print("\n".join(rows))
    print(f"worst relative error: {worst:.3g}")
    return 0 if worst <= _TRACE_CHECK_TOL else 3


def cmd_afe(args) -> int:
    g = load_newform(args.g)
    rows = ["k,index,g_scale,contour,L,certificate"]
    certs = {}
    spread_max = 0.0
    bad = []
    for k in _parse_krange(args.k):
        # the cutoff central_value takes at tol = afe_tol, tail below afe_tol/2;
        # g must reach every cutoff before any form is built
        cuts = [(cg, effective_cutoff(VParams(k, g.weight, g.level, cg), args.afe_tol / 2.0))
                for cg in (0.5 * args.g_scale, args.g_scale, 2.0 * args.g_scale)]
        need = max(cut for _, cut in cuts)
        if g.length < need:
            raise ValueError(f"insufficient coefficients: need {need}, g has {g.length}")
        for f in eigenforms(k, 8):
            cvs = []
            for cg, cut in cuts:
                cv = central_value(eigenforms(k, cut)[f.index], g, g_scale=cg,
                                   contour=args.contour, cutoff=cut)
                cvs.append(cv)
                # six digits, as rhs-nf: a certificate sized just below
                # --afe-tol must not print as --afe-tol itself
                rows.append(f"{k},{f.index},{cg},{args.contour},{cv.value:.15g},"
                            f"{cv.certificate:.6g}")
                certs[f"k{k}f{f.index}cg{cg}"] = cv.certificate
            # one value at every g_scale: the functional-equation test of g
            lo, _, hi = sorted(cvs, key=lambda cv: cv.value)
            spread = hi.value - lo.value
            spread_max = max(spread_max, spread)
            if spread > lo.certificate + hi.certificate:
                bad.append(f"k = {k}, form {f.index}: spread {spread:.3g} across g_scale "
                           f"exceeds certificates {lo.certificate:.3g} + {hi.certificate:.3g}")
    rows.append(f"# max spread across g_scale values: {spread_max:.3g}")
    _write_outputs(args, "\n".join(rows) + "\n", certs, "afe")
    print("\n".join(rows))
    for line in bad:
        print(line, file=sys.stderr)
    return 3 if bad else 0


def cmd_moment(args) -> int:
    g = load_newform(args.g)
    rep = moments.moment_report(g, args.p, args.k, g_scale=args.g_scale,
                                afe_tol=args.afe_tol, e_tol=args.e_tol)
    csv = moments.CSV_HEADER + "\n" + moments.report_csv_row(rep) + "\n"
    _write_outputs(args, csv, {"cert_total": rep.cert_total}, "moment")
    print(csv, end="")
    if abs(rep.identity_residual) > rep.cert_total:
        print(f"identity residual {rep.identity_residual:.3g} exceeds certificate "
              f"{rep.cert_total:.3g}", file=sys.stderr)
        return 3
    return 0


def cmd_scan(args) -> int:
    g = load_newform(args.g)
    ks = _parse_krange(args.k)
    result = moments.asymptotic_scan(g, args.p, ks, g_scale=args.g_scale,
                                     afe_tol=args.afe_tol, e_tol=args.e_tol)
    csv = moments.scan_to_csv(result)
    certs = {"fitted_slope": result.slope,
             "theoretical_slope": result.slope_theoretical,
             "max_residual_from_fit": result.max_abs_residual_from_fit}
    path = _write_outputs(args, csv, certs, f"scan_p{args.p}")
    print(csv, end="")
    print(f"fitted slope {result.slope:.6f} vs theoretical "
          f"{result.slope_theoretical:.6f}; csv at {path}")
    bad = [r for r in result.reports if abs(r.identity_residual) > r.cert_total]
    for r in bad:
        print(f"k = {r.weight}: identity residual {r.identity_residual:.3g} exceeds "
              f"certificate {r.cert_total:.3g}", file=sys.stderr)
    return 3 if bad else 0


def cmd_recover(args) -> int:
    g = load_newform(args.g)
    rows = ["k,p,recovered_C,reference_C,abs_error"]
    worst = 0.0
    for k in _parse_krange(args.k):
        rec = moments.recover_coefficient(g, args.p, k, g_scale=args.g_scale)
        ref = g.c(args.p)
        worst = max(worst, abs(rec - ref))
        rows.append(f"{k},{args.p},{rec:.15g},{ref:.15g},{abs(rec - ref):.3g}")
    _write_outputs(args, "\n".join(rows) + "\n",
                   {"worst_abs_error": worst}, "recover")
    print("\n".join(rows))
    return 0


def cmd_make_newform(args) -> int:
    d = dim_cusp(args.k)
    if not 0 <= args.index < d:
        raise ValueError(f"--index {args.index} names no form: dim S_{args.k} = {d}")
    forms = eigenforms(args.k, args.count)
    rec = newform_from_eigenform(forms[args.index])
    write_newform(rec, args.out)
    print(f"wrote {args.out} (weight {args.k}, {args.count} coefficients)")
    return 0


def positive(text: str) -> float:
    x = float(text)
    if not x > 0:
        raise ValueError(text)
    return x


class _Parser(argparse.ArgumentParser):
    """Refusals raise ValueError: ``main`` prints one ``error:`` line, exit 2."""

    def error(self, message):
        raise ValueError(message)

    def convert_arg_line_to_args(self, arg_line):
        """One argument per line of an @FILE; blank and ``#`` lines are skipped."""
        text = arg_line.strip()
        return [] if not text or text.startswith("#") else [arg_line]


# the options several commands read; each command declares only its own
_OPTIONS = {
    "--field": dict(required=True, help="Q_sqrt5 | Q_sqrt2"),
    "--outdir": dict(default="."),
    "--g-scale": dict(type=positive, default=DEFAULT_G_SCALE),
    "--contour": dict(type=positive, default=DEFAULT_CONTOUR),
    "--afe-tol": dict(type=positive, default=1e-8),
    "--e-tol": dict(type=positive, default=1e-6),
}


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="rsmoment", allow_abbrev=False, fromfile_prefix_chars="@",
                 description="moment-identity verification driver")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, options, **kw):
        p = sub.add_parser(name, allow_abbrev=False, **kw)
        for opt in options:
            p.add_argument(opt, **_OPTIONS[opt])
        return p

    p = add("kloosterman", ("--outdir",), help="single Kloosterman sum, one CSV row")
    p.add_argument("--field", default="Q", choices=("Q", "Q_sqrt5", "Q_sqrt2"))
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--c2", type=int, default=0, help="omega-coordinate of c (degree 2)")

    p = add("rhs-nf", ("--field", "--outdir"), help="degree-2 trace formula right-hand side")
    p.add_argument("--k", required=True, help="k1,k2")
    p.add_argument("--nu", type=int, default=1)
    p.add_argument("--xi", type=int, default=1)
    p.add_argument("--cmax", type=int, default=300)
    p.add_argument("--B", type=float, default=50.0)
    p.add_argument("--tol", type=float, default=1e-6)

    p = add("units", ("--field", "--outdir"), help="unit-sum convergence table")
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--tmax", type=int, default=20)

    p = add("trace-check", ("--outdir",), help="omega solve + held-out cross-validation")
    p.add_argument("--k", default="12,16,18,20,22,24,26,28,32,36")

    p = add("afe", ("--outdir", "--g-scale", "--contour", "--afe-tol"),
            help="central values and G-independence report")
    p.add_argument("--g", required=True)
    p.add_argument("--k", default="16,18,20")

    p = add("moment", ("--outdir", "--g-scale", "--afe-tol", "--e-tol"),
            help="single moment report")
    p.add_argument("--g", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--p", type=int, default=1)

    p = add("scan", ("--outdir", "--g-scale", "--afe-tol", "--e-tol"),
            help="asymptotic weight scan")
    p.add_argument("--g", required=True)
    p.add_argument("--k", default="14:60:2")
    p.add_argument("--p", type=int, default=1)

    p = add("recover", ("--outdir", "--g-scale"), help="coefficient recovery")
    p.add_argument("--g", required=True)
    p.add_argument("--k", default="20,30")
    p.add_argument("--p", type=int, default=2)

    p = add("make-newform", (), help="write a newform coefficient file")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--count", type=int, default=10000)
    p.add_argument("--out", required=True)
    return ap


_COMMANDS = {
    "kloosterman": cmd_kloosterman,
    "rhs-nf": cmd_rhs_nf,
    "units": cmd_units,
    "trace-check": cmd_trace_check,
    "afe": cmd_afe,
    "moment": cmd_moment,
    "scan": cmd_scan,
    "recover": cmd_recover,
    "make-newform": cmd_make_newform,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except UncertifiedError as exc:
        print(f"uncertified result: {exc} (certificate {exc.certificate})",
              file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
