"""Command-line front end.

Subcommands map one-to-one onto the library: z, theta, mass, ladder,
partition, planck, gram, verify, report.  Scalar results print as
key = value lines (or JSON with --format json); sequence results emit CSV
with a header row and 17-significant-digit numerics, so reruns with the
same configuration and checkpoint are byte-identical.

Exit codes: 0 success, 1 computation error (error kind on stderr),
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass

from . import _svg, gram, hlmass, ladder, partition, verify, zfun
from ._util import atomic_write_text, fmt17
from .errors import DomainError, HlqError

PARTITION_COLUMNS = ("nu", "T", "gap", "mass", "tan_alpha", "predicted_gap",
                     "rel_gap_err")
GRAM_COLUMNS = ("nu", "t", "tau_bar", "spacing", "predicted")
PLANCK_COLUMNS = ("nu", "offset", "gap")


@dataclass(frozen=True)
class RunConfig:
    checkpoint_path: str | None = None
    rel_tol: float = 1e-9
    c0: float = 0.0
    epsilon: float = 0.01
    format: str = "csv"
    jobs: int = 1

    def __post_init__(self):
        if not (0.0 < self.rel_tol <= 1e-3):
            raise DomainError("rel_tol must be in (0, 1e-3]")
        if self.format not in ("csv", "json"):
            raise DomainError("format must be csv or json")
        if self.jobs < 1:
            raise DomainError("jobs must be >= 1")

    @property
    def quad(self) -> hlmass.QuadratureConfig:
        return hlmass.QuadratureConfig(rel_tol=self.rel_tol)

    @property
    def constants(self) -> ladder.LadderConstants:
        return ladder.LadderConstants(c0=self.c0)


def _run_config(args) -> RunConfig:
    path = getattr(args, "checkpoint", None) or os.environ.get("HLQ_CHECKPOINT")
    return RunConfig(
        checkpoint_path=path or None,
        rel_tol=getattr(args, "tol", 1e-9),
        c0=getattr(args, "c0", 0.0),
        epsilon=getattr(args, "epsilon", 0.01),
        format=getattr(args, "format", "csv"),
        jobs=getattr(args, "jobs", 1),
    )


def _open_checkpoint(rc: RunConfig) -> hlmass.MassCheckpoint:
    if rc.checkpoint_path and os.path.exists(rc.checkpoint_path):
        ck = hlmass.load_checkpoint(rc.checkpoint_path)
        hlmass.check_compat(ck, rc.quad)
        return ck
    return hlmass.new_checkpoint(rc.quad)


def _save_checkpoint(rc: RunConfig, ck: hlmass.MassCheckpoint) -> None:
    if rc.checkpoint_path:
        hlmass.save_checkpoint(ck, rc.checkpoint_path)


def _emit_scalars(pairs, fmt: str, out_path: str | None = None) -> None:
    if fmt == "json":
        text = json.dumps(dict(pairs), indent=2, sort_keys=True) + "\n"
    else:
        text = "".join(f"{k} = {v}\n" for k, v in pairs)
    if out_path:
        atomic_write_text(out_path, text)
    else:
        sys.stdout.write(text)


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return fmt17(v)
    return str(v)


def _emit_rows(columns, rows, out_path: str | None) -> None:
    lines = [",".join(columns)]
    lines.extend(",".join(_csv_cell(v) for v in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if out_path:
        atomic_write_text(out_path, text)
    else:
        sys.stdout.write(text)


def _emit_json(obj, out_path: str | None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if out_path:
        atomic_write_text(out_path, text)
    else:
        sys.stdout.write(text)


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
    rc = _run_config(args)
    ck = _open_checkpoint(rc)
    val = hlmass.hl_mass(args.t, cfg=rc.quad, ckpt=ck, jobs=rc.jobs)
    _save_checkpoint(rc, ck)
    _emit_scalars(
        [("T", fmt17(float(args.t))), ("mass", fmt17(val)),
         ("rows", len(ck))], args.format, args.out)
    return 0


def _cmd_ladder(args) -> int:
    rc = _run_config(args)
    ck = _open_checkpoint(rc)
    p = ladder.phi_at(args.t, cfg=rc.quad, ckpt=ck, k=rc.constants,
                      jobs=rc.jobs)
    _save_checkpoint(rc, ck)
    _emit_scalars(
        [("T", fmt17(p.T)), ("phi", fmt17(p.phi)), ("mass", fmt17(p.mass)),
         ("ratio", fmt17(p.ratio))], args.format, args.out)
    return 0


def _mean_gap_json(records, params, k):
    try:
        return asdict(partition.mean_gap_stat(records, params, k))
    except HlqError:
        return None


def _partition_rows(records):
    for r in records:
        if r.gap is None:
            continue
        yield (r.nu, r.T, r.gap, r.mass, r.tan_alpha, r.predicted_gap,
               r.rel_gap_err)


def _cmd_partition(args) -> int:
    rc = _run_config(args)
    ck = _open_checkpoint(rc)
    params = partition.PartitionParams(
        omega=args.omega, tau=args.tau, T_start=args.start,
        count=args.count, epsilon=rc.epsilon)
    records = partition.generate(params, cfg=rc.quad, ckpt=ck,
                                 k=rc.constants, jobs=rc.jobs)
    _save_checkpoint(rc, ck)
    if rc.format == "json":
        obj = {
            "params": {"omega": params.omega, "tau": params.tau,
                       "T_start": params.T_start, "count": params.count,
                       "epsilon": params.epsilon},
            "records": [
                {"nu": r.nu, "T": r.T, "gap": r.gap, "mass": r.mass,
                 "tan_alpha": r.tan_alpha, "predicted_gap": r.predicted_gap,
                 "rel_gap_err": r.rel_gap_err} for r in records],
            "mean_gap": _mean_gap_json(records, params, rc.constants),
        }
        _emit_json(obj, args.out)
    else:
        _emit_rows(PARTITION_COLUMNS, _partition_rows(records), args.out)
    return 0


def _cmd_planck(args) -> int:
    rc = _run_config(args)
    steps = partition.planck_sequence(args.t, args.count, cfg=rc.quad)
    if rc.format == "json":
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
    rc = _run_config(args)
    nu0 = int(args.start)
    records, summary = gram.gram_spacing_report(
        nu0, nu0 + int(args.count) - 1, args.tau)
    if rc.format == "json":
        _emit_json({
            "records": [
                {"nu": r.nu, "t": r.t, "tau_bar": r.tau_bar,
                 "spacing": r.spacing, "predicted": r.predicted,
                 "predicted_asymptotic": r.predicted_asymptotic}
                for r in records],
            "summary": {
                "count": summary.count, "mean_ratio": summary.mean_ratio,
                "mean_ratio_asymptotic": summary.mean_ratio_asymptotic,
                "min_spacing": summary.min_spacing,
                "max_spacing": summary.max_spacing,
            },
        }, args.out)
    else:
        _emit_rows(GRAM_COLUMNS,
                   ((r.nu, r.t, r.tau_bar, r.spacing, r.predicted)
                    for r in records), args.out)
    return 0


def _verify_reports(kind: str, rc: RunConfig, ck: hlmass.MassCheckpoint,
                    t: float | None = None, delta: float | None = None):
    """Reports of one ``hlq verify`` kind and any extra top-level keys;
    ``kind="all"`` is also the verify part of ``hlq report``."""
    reports = []
    extra = {}
    if kind in ("balasubramanian", "all"):
        ts = [t] if (kind == "balasubramanian" and t is not None) \
            else [1e3, 3e3, 1e4]
        reports += [verify.balasubramanian_residual(tb, cfg=rc.quad, ckpt=ck,
                                                    k=rc.constants,
                                                    jobs=rc.jobs)
                    for tb in ts]
    if kind == "tka" and delta is not None:
        reports.append(verify.tka_residual(delta, cfg=rc.quad,
                                           k=rc.constants, jobs=rc.jobs))
    elif kind in ("tka", "all"):
        reps, slope = verify.tka_ladder(cfg=rc.quad, k=rc.constants,
                                        jobs=rc.jobs)
        reports += reps
        extra["tka_slope"] = slope
    if kind in ("short_interval", "all"):
        t_si = t if (kind == "short_interval" and t is not None) else 1e4
        reports.append(verify.short_interval_check(
            t_si, rc.epsilon, cfg=rc.quad, ckpt=ck, k=rc.constants, jobs=rc.jobs))
    if kind in ("ladder", "all"):
        grid = [t] if (kind == "ladder" and t is not None) else [1e3, 1e4]
        reports += verify.ladder_checks(grid, cfg=rc.quad, ckpt=ck,
                                        k=rc.constants, jobs=rc.jobs)
    return reports, extra


def _cmd_verify(args) -> int:
    rc = _run_config(args)
    ck = _open_checkpoint(rc)
    reports, extra = _verify_reports(args.kind, rc, ck, args.t, args.delta)
    _save_checkpoint(rc, ck)
    obj = {"reports": [r.as_dict() for r in reports]}
    obj.update(extra)
    _emit_json(obj, args.out)
    return 0


def emit_report(results: dict, output_dir: str, fmt: str = "csv") -> None:
    """Write the report bundle: CSV/JSON tables plus SVG plots."""
    if not results:
        raise DomainError("emit_report requires nonempty results")
    os.makedirs(output_dir, exist_ok=True)
    records = results["partition_records"]
    params = results["partition_params"]
    _emit_rows(PARTITION_COLUMNS, _partition_rows(records),
               os.path.join(output_dir, "partition.csv"))
    body = [r for r in records if r.gap is not None]
    nus = [r.nu for r in body]
    k = results["constants"]
    dens_sharp = [params.omega / (math.log(r.T / zfun.TWO_PI) + 2.0 * k.c)
                  for r in body]
    dens_asym = [params.omega / math.log(r.T) for r in body]
    _svg.line_plot(
        os.path.join(output_dir, "gaps.svg"),
        [("gap", nus, [r.gap for r in body]),
         ("omega/ln T", nus, dens_asym),
         ("omega/(ln(T/2pi)+2c)", nus, dens_sharp)],
        "partition gaps", "nu", "gap")
    gram_records = results["gram_records"]
    _emit_rows(GRAM_COLUMNS,
               ((r.nu, r.t, r.tau_bar, r.spacing, r.predicted)
                for r in gram_records),
               os.path.join(output_dir, "gram.csv"))
    _svg.histogram(
        os.path.join(output_dir, "gram_hist.svg"),
        [r.spacing / r.predicted for r in gram_records], 40,
        "Gram spacing over local prediction", "spacing ratio")
    reports = results["verify_reports"]
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
                "tka_slope": results.get("tka_slope"),
                "mean_gap": results.get("mean_gap")},
               os.path.join(output_dir, "verify.json"))


def _cmd_report(args) -> int:
    rc = _run_config(args)
    ck = _open_checkpoint(rc)
    params = partition.PartitionParams(
        omega=args.omega, tau=args.tau, T_start=args.start,
        count=args.count, epsilon=rc.epsilon)
    records = partition.generate(params, cfg=rc.quad, ckpt=ck,
                                 k=rc.constants, jobs=rc.jobs)
    reports, extra = _verify_reports("all", rc, ck)
    reports += verify.ladder_increment_checks(records, params.omega,
                                              params.tau, k=rc.constants)
    gram_records, _ = gram.gram_spacing_report(100, 1000, 0.0)
    _save_checkpoint(rc, ck)
    emit_report({
        "partition_records": records,
        "partition_params": params,
        "constants": rc.constants,
        "gram_records": gram_records,
        "verify_reports": reports,
        "tka_slope": extra["tka_slope"],
        "mean_gap": _mean_gap_json(records, params, rc.constants),
    }, args.out, rc.format)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(p, checkpoint=True):
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, help="write output to this path")
    p.add_argument("--jobs", type=int, default=1)
    if checkpoint:
        p.add_argument("--checkpoint", default=None,
                       help="checkpoint file (default $HLQ_CHECKPOINT)")
        p.add_argument("--tol", type=float, default=1e-9,
                       help="relative tolerance for cumulative masses")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hlq",
        description="Second-moment masses, ladder transform, equal-mass "
                    "partitions, and Gram sequences for the Hardy Z-function.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("z", help="evaluate Z(t) with a certified error bound")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-9,
                   help="target absolute error")
    _add_common(p, checkpoint=False)

    p = sub.add_parser("theta", help="evaluate the phase function")
    p.add_argument("--t", type=float, required=True)
    _add_common(p, checkpoint=False)

    p = sub.add_parser("mass", help="cumulative integral of Z^2 up to T")
    p.add_argument("--t", type=float, required=True)
    _add_common(p)

    p = sub.add_parser("ladder", help="ladder point phi(T)")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--c0", type=float, default=0.0)
    _add_common(p)

    p = sub.add_parser("partition", help="equal-mass partition sequence")
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--tau", type=float, default=0.0)
    p.add_argument("--start", type=float, default=1000.0)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--epsilon", type=float, default=0.01)
    p.add_argument("--c0", type=float, default=0.0)
    _add_common(p)

    p = sub.add_parser("planck", help="Planck-quantum micro-interval walk")
    p.add_argument("--t", type=float, required=True, help="anchor T0")
    p.add_argument("--count", type=int, default=1000)
    _add_common(p, checkpoint=False)

    p = sub.add_parser("gram", help="(shifted) Gram points and spacings")
    p.add_argument("--start", type=int, default=0, help="first index nu")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--tau", type=float, default=0.0,
                   help="phase tau-bar in [-pi, pi]")
    _add_common(p, checkpoint=False)

    p = sub.add_parser("verify", help="residual reports for the asymptotics")
    p.add_argument("kind", choices=("balasubramanian", "tka",
                                    "short_interval", "ladder", "all"))
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--epsilon", type=float, default=0.01)
    p.add_argument("--c0", type=float, default=0.0)
    _add_common(p)

    p = sub.add_parser("report", help="write the full report bundle")
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--tau", type=float, default=0.0)
    p.add_argument("--start", type=float, default=1000.0)
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--epsilon", type=float, default=0.01)
    p.add_argument("--c0", type=float, default=0.0)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--tol", type=float, default=1e-9)

    return ap


_DISPATCH = {
    "z": _cmd_z,
    "theta": _cmd_theta,
    "mass": _cmd_mass,
    "ladder": _cmd_ladder,
    "partition": _cmd_partition,
    "planck": _cmd_planck,
    "gram": _cmd_gram,
    "verify": _cmd_verify,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.cmd](args)
    except HlqError as exc:
        print(f"{exc.kind}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
