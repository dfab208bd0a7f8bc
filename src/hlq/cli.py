"""Command-line front end.

Subcommands map one-to-one onto the library: z, theta, mass, ladder,
partition, planck, gram, verify, report, checkpoint verify.  Scalar
results print as key = value lines (or JSON with --format json); sequence
results emit CSV with a header row and 17-significant-digit numerics, so
reruns with the same configuration and checkpoint are byte-identical.

Exit codes: 0 success, 1 computation error (error kind on stderr),
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, fields

from . import _svg, gram, hlmass, ladder, partition, verify, zfun
from ._util import atomic_write_text, check_positive_int, fmt17
from .errors import HlqError

PLANCK_COLUMNS = ("nu", "offset", "gap")


def _open_checkpoint(args):
    """(quadrature config, checkpoint) of a command that integrates Z^2:
    the --checkpoint file when it exists, else a new checkpoint."""
    check_positive_int("jobs", args.jobs)
    cfg = hlmass.QuadratureConfig(rel_tol=args.tol)
    if args.checkpoint and os.path.exists(args.checkpoint):
        ck = hlmass.load_checkpoint(args.checkpoint)
        hlmass.check_compat(ck, cfg)
        return cfg, ck
    return cfg, hlmass.new_checkpoint(cfg)


def _save_checkpoint(args, ck: hlmass.MassCheckpoint) -> None:
    if args.checkpoint:
        hlmass.save_checkpoint(ck, args.checkpoint)


def _write(text: str, out_path: str | None) -> None:
    if out_path:
        atomic_write_text(out_path, text)
    else:
        sys.stdout.write(text)


def _emit_scalars(pairs, fmt: str, out_path: str | None = None) -> None:
    if fmt == "json":
        _emit_json(dict(pairs), out_path)
    else:
        _write("".join(f"{k} = {v}\n" for k, v in pairs), out_path)


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return fmt17(v)
    return str(v)


def _emit_rows(columns, rows, out_path: str | None) -> None:
    lines = [",".join(columns)]
    lines.extend(",".join(_csv_cell(v) for v in row) for row in rows)
    _write("\n".join(lines) + "\n", out_path)


def _emit_records(record_type, records, out_path: str | None) -> None:
    """CSV of dataclass records; the columns are the fields in order."""
    names = [f.name for f in fields(record_type)]
    _emit_rows(names, ([getattr(r, n) for n in names] for r in records),
               out_path)


def _emit_json(obj, out_path: str | None) -> None:
    _write(json.dumps(obj, indent=2, sort_keys=True) + "\n", out_path)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_z(args) -> int:
    s = zfun.z_eval(args.t, target_abs_err=args.tol)
    _emit_scalars(
        [("t", fmt17(s.t)), ("z", fmt17(s.z)), ("abs_err", fmt17(s.abs_err)),
         ("method", s.method), ("n_terms", s.n_terms)],
        args.format, args.out)
    return 0


def _cmd_theta(args) -> int:
    t = float(args.t)
    _emit_scalars(
        [("t", fmt17(t)), ("theta", fmt17(zfun.theta(t))),
         ("theta_deriv", fmt17(zfun.theta_deriv(t)))],
        args.format, args.out)
    return 0


def _cmd_mass(args) -> int:
    cfg, ck = _open_checkpoint(args)
    val = hlmass.hl_mass(args.t, cfg=cfg, ckpt=ck, jobs=args.jobs)
    _save_checkpoint(args, ck)
    _emit_scalars(
        [("T", fmt17(float(args.t))), ("mass", fmt17(val)),
         ("rows", len(ck))], args.format, args.out)
    return 0


def _cmd_ladder(args) -> int:
    cfg, ck = _open_checkpoint(args)
    p = ladder.phi_at(args.t, cfg=cfg, ckpt=ck, c0=args.c0, jobs=args.jobs)
    _save_checkpoint(args, ck)
    _emit_scalars(
        [("T", fmt17(p.T)), ("phi", fmt17(p.phi)), ("mass", fmt17(p.mass)),
         ("ratio", fmt17(p.ratio))], args.format, args.out)
    return 0


def _mean_gap_json(records, params):
    try:
        return asdict(partition.mean_gap_stat(records, params))
    except HlqError:
        return None


def _intervals(records):
    """Partition records without the bare endpoint row."""
    return [r for r in records if r.gap is not None]


def _walk(args, cfg: hlmass.QuadratureConfig, ck: hlmass.MassCheckpoint):
    """(params, records) of the walk that the ``_add_walk`` options set."""
    params = partition.PartitionParams(
        omega=args.omega, tau=args.tau, T_start=args.start,
        count=args.count, epsilon=args.epsilon)
    return params, partition.generate(params, cfg=cfg, ckpt=ck, c0=args.c0,
                                      jobs=args.jobs)


def _cmd_partition(args) -> int:
    cfg, ck = _open_checkpoint(args)
    params, records = _walk(args, cfg, ck)
    _save_checkpoint(args, ck)
    if args.format == "json":
        obj = {
            "params": asdict(params),
            "records": [asdict(r) for r in records],
            "mean_gap": _mean_gap_json(records, params),
        }
        _emit_json(obj, args.out)
    else:
        _emit_records(partition.PartitionRecord, _intervals(records), args.out)
    return 0


def _cmd_planck(args) -> int:
    steps = partition.planck_sequence(args.t, args.count)
    if args.format == "json":
        _emit_json({
            "T0": float(args.t),
            "omega": partition.PLANCK_H / math.pi,
            "count": len(steps),
            "steps": [[o, g] for o, g in steps],
        }, args.out)
    else:
        _emit_rows(PLANCK_COLUMNS,
                   ((i, o, g) for i, (o, g) in enumerate(steps)), args.out)
    return 0


def _cmd_gram(args) -> int:
    nu0 = int(args.start)
    records, summary = gram.gram_spacing_report(
        nu0, nu0 + int(args.count) - 1, args.tau)
    if args.format == "json":
        _emit_json({
            "records": [dict(asdict(r), predicted_asymptotic=r.predicted_asymptotic)
                        for r in records],
            "summary": asdict(summary),
        }, args.out)
    else:
        _emit_records(gram.GramRecord, records, args.out)
    return 0


def _verify_reports(kind: str, args, cfg: hlmass.QuadratureConfig,
                    ck: hlmass.MassCheckpoint):
    """Reports of one ``hlq verify`` kind and any extra top-level keys;
    ``kind="all"``, which reads no --t or --delta, is also the verify part
    of ``hlq report``."""
    ladder.check_c0(args.c0)
    t, delta = (None, None) if kind == "all" else (args.t, args.delta)
    jobs = args.jobs
    reports = []
    extra = {}
    if kind in ("balasubramanian", "all"):
        reports += [verify.balasubramanian_residual(tb, cfg=cfg, ckpt=ck,
                                                    jobs=jobs)
                    for tb in ([1e3, 3e3, 1e4] if t is None else [t])]
    if kind in ("tka", "all"):
        if delta is None:
            reps, extra["tka_slope"] = verify.tka_ladder(cfg=cfg, jobs=jobs)
            reports += reps
        else:
            reports.append(verify.tka_residual(delta, cfg=cfg, jobs=jobs))
    if kind in ("short_interval", "all"):
        reports.append(verify.short_interval_check(
            1e4 if t is None else t, args.epsilon, cfg=cfg, ckpt=ck,
            c0=args.c0, jobs=jobs))
    if kind in ("ladder", "all"):
        reports += verify.ladder_checks([1e3, 1e4] if t is None else [t],
                                        cfg=cfg, ckpt=ck, c0=args.c0,
                                        jobs=jobs)
    return reports, extra


def _cmd_verify(args) -> int:
    cfg, ck = _open_checkpoint(args)
    reports, extra = _verify_reports(args.kind, args, cfg, ck)
    _save_checkpoint(args, ck)
    obj = {"reports": [r.as_dict() for r in reports]}
    obj.update(extra)
    _emit_json(obj, args.out)
    return 0


def _cmd_checkpoint(args) -> int:
    ck = hlmass.load_checkpoint(args.path)
    hlmass.verify_rows(ck, jobs=args.jobs)
    _emit_scalars([("path", args.path), ("rows", len(ck)), ("tol", fmt17(ck.tol)),
                   ("verified", "true")], args.format, args.out)
    return 0


def emit_report(output_dir: str, params, records, gram_records, reports,
                tka_slope, mean_gap) -> None:
    """Write the report bundle: CSV/JSON tables plus SVG plots."""
    os.makedirs(output_dir, exist_ok=True)
    body = _intervals(records)
    _emit_records(partition.PartitionRecord, body,
                  os.path.join(output_dir, "partition.csv"))
    nus = [r.nu for r in body]
    dens_sharp = [params.omega
                  / (math.log(r.T / zfun.TWO_PI) + 2.0 * zfun.EULER_GAMMA)
                  for r in body]
    dens_asym = [params.omega / math.log(r.T) for r in body]
    _svg.line_plot(
        os.path.join(output_dir, "gaps.svg"),
        [("gap", nus, [r.gap for r in body]),
         ("omega/ln T", nus, dens_asym),
         ("omega/(ln(T/2pi)+2c)", nus, dens_sharp)],
        "partition gaps", "nu", "gap")
    _emit_records(gram.GramRecord, gram_records,
                  os.path.join(output_dir, "gram.csv"))
    _svg.histogram(
        os.path.join(output_dir, "gram_hist.svg"),
        [r.spacing / r.predicted for r in gram_records], 40,
        "Gram spacing over local prediction", "spacing ratio")
    bala = [r for r in reports if r.kind == "balasubramanian"]
    if bala:
        _svg.line_plot(
            os.path.join(output_dir, "residuals.svg"),
            [("|residual|", [r.inputs["T"] for r in bala],
              [max(abs(r.residual), 1e-12) for r in bala]),
             ("bound", [r.inputs["T"] for r in bala],
              [r.bound for r in bala])],
            "second-moment residual vs main term", "T", "|R(T)|",
            log_x=True, log_y=True)
    _emit_json({"reports": [r.as_dict() for r in reports],
                "tka_slope": tka_slope, "mean_gap": mean_gap},
               os.path.join(output_dir, "verify.json"))


def _cmd_report(args) -> int:
    cfg, ck = _open_checkpoint(args)
    params, records = _walk(args, cfg, ck)
    reports, extra = _verify_reports("all", args, cfg, ck)
    reports += verify.ladder_increment_checks(records, params.omega,
                                              params.tau, c0=args.c0)
    gram_records, _ = gram.gram_spacing_report(100, 1000, 0.0)
    _save_checkpoint(args, ck)
    emit_report(args.out, params, records, gram_records, reports,
                extra["tka_slope"], _mean_gap_json(records, params))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(p, fmt=True, checkpoint=True, out_dir=False):
    """--out, a directory when ``out_dir``; --format where the output has a
    CSV and a JSON form; --jobs, --checkpoint and --tol where Z^2 is
    integrated."""
    if fmt:
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    if out_dir:
        p.add_argument("--out", required=True, help="output directory")
    else:
        p.add_argument("--out", default=None, help="write output to this path")
    if checkpoint:
        p.add_argument("--jobs", type=int, default=1)
        p.add_argument("--checkpoint",
                       default=os.environ.get("HLQ_CHECKPOINT") or None,
                       help="checkpoint file (default $HLQ_CHECKPOINT)")
        p.add_argument("--tol", type=float, default=1e-9,
                       help="relative tolerance for cumulative masses")


def _add_walk(p, count: int) -> None:
    """The options of the partition walk that ``_walk`` runs."""
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--tau", type=float, default=0.0)
    p.add_argument("--start", type=float, default=1000.0)
    p.add_argument("--count", type=int, default=count)
    p.add_argument("--epsilon", type=float, default=0.01)
    p.add_argument("--c0", type=float, default=0.0)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hlq",
        description="Second-moment masses, ladder transform, equal-mass "
                    "partitions, and Gram sequences for the Hardy Z-function.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("z", help="evaluate Z(t) with a certified error bound")
    p.set_defaults(run=_cmd_z)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-9,
                   help="target absolute error")
    _add_common(p, checkpoint=False)

    p = sub.add_parser("theta", help="evaluate the phase function")
    p.set_defaults(run=_cmd_theta)
    p.add_argument("--t", type=float, required=True)
    _add_common(p, checkpoint=False)

    p = sub.add_parser("mass", help="cumulative integral of Z^2 up to T")
    p.set_defaults(run=_cmd_mass)
    p.add_argument("--t", type=float, required=True)
    _add_common(p)

    p = sub.add_parser("ladder", help="ladder point phi(T)")
    p.set_defaults(run=_cmd_ladder)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--c0", type=float, default=0.0)
    _add_common(p)

    p = sub.add_parser("partition", help="equal-mass partition sequence")
    p.set_defaults(run=_cmd_partition)
    _add_walk(p, count=100)
    _add_common(p)

    p = sub.add_parser("planck", help="Planck-quantum micro-interval walk")
    p.set_defaults(run=_cmd_planck)
    p.add_argument("--t", type=float, required=True, help="anchor T0")
    p.add_argument("--count", type=int, default=1000)
    _add_common(p, checkpoint=False)

    p = sub.add_parser("gram", help="(shifted) Gram points and spacings")
    p.set_defaults(run=_cmd_gram)
    p.add_argument("--start", type=int, default=0, help="first index nu")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--tau", type=float, default=0.0,
                   help="phase tau-bar in [-pi, pi]")
    _add_common(p, checkpoint=False)

    p = sub.add_parser("verify", help="residual reports for the asymptotics")
    p.set_defaults(run=_cmd_verify)
    p.add_argument("kind", choices=("balasubramanian", "tka",
                                    "short_interval", "ladder", "all"))
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--epsilon", type=float, default=0.01)
    p.add_argument("--c0", type=float, default=0.0)
    _add_common(p, fmt=False)

    p = sub.add_parser("report", help="write the full report bundle")
    p.set_defaults(run=_cmd_report)
    _add_walk(p, count=200)
    _add_common(p, fmt=False, out_dir=True)

    p = sub.add_parser("checkpoint", help="recompute and check every row of "
                                          "a checkpoint file")
    p.set_defaults(run=_cmd_checkpoint)
    p.add_argument("action", choices=("verify",))
    p.add_argument("path")
    p.add_argument("--jobs", type=int, default=1)
    _add_common(p, checkpoint=False)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except HlqError as exc:
        print(f"{exc.kind}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
