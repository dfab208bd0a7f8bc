"""Benchmark for hlq: one workload per process, end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all  --seed N --seconds S --trace 0|1

Run from the root of a source tree.  The package is imported from ``src/``
beside this directory; nothing is installed and nothing under ``src/`` is
touched.  ``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs a
fixed number of ops twice, from two set-ups, in alternating untraced and
traced blocks, and reports the per-layer metrics.  ``all`` runs every workload in its own
process and prints each one's metrics.  The last line of stdout is one JSON
object: correct, attempted, failed, metrics.  Scratch files go under
``.perfbench/`` at the root and are removed at exit; traced runs leave their
spans there as JSON lines.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # keep import cost the same on every run

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
SETUP_REPS = 3
TRACE_BLOCKS = 40    # a traced run alternates this many untraced and traced blocks

UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
         "op_tail_ms": "ms", "peak_rss_mb": "MB", "ops_per_s.jobs2": "1/s"}


def load_package():
    """Import hlq from ./src only; returns (package, import seconds)."""
    if not os.path.isfile(os.path.join(SRC, "hlq", "__init__.py")):
        raise SystemExit(f"perfbench: no hlq package under {SRC}")
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import hlq
    import hlq.cli  # noqa: F401
    elapsed = time.perf_counter() - t0
    if os.path.dirname(os.path.dirname(os.path.abspath(hlq.__file__))) != SRC:
        raise SystemExit(f"perfbench: hlq imported from {hlq.__file__}, not {SRC}")
    return hlq, elapsed


def clear_caches(hlq) -> None:
    """Empty the package's lru_caches so each set-up pays to fill them."""
    for name, mod in list(sys.modules.items()):
        if name == "hlq" or name.startswith("hlq."):
            for obj in list(vars(mod).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def commit() -> str:
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=
                                      os.path.dirname(ROOT)))
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown (not a git checkout)"


def environment(args) -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "commit": commit(), "seed": args.seed, "workload": args.workload,
            "seconds": args.seconds, "trace": args.trace}


def run_ops(op, check, hlq, seconds=None, n_ops=None, first=0, step=1,
            tracer=None):
    """Closed loop over op(first), op(first + 1), ...: (jobs, seconds, problems).

    Stops after ``n_ops`` ops, or once the next ``step`` ops, judged by the
    last ``step``, would end past ``seconds``.  At least two ops run, so a
    timed run has one at jobs=1 and one at jobs=2.
    """
    samples = []
    start = time.perf_counter()
    i = first
    while True:
        jobs, fn = op(i)
        err = out = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = fn()
            else:
                with tracer.op(i + 1, {"jobs": jobs}):
                    out = fn()
        except hlq.HlqError as exc:
            err = exc
        dt = time.perf_counter() - t0
        problems = [f"op {i}: {err.kind}: {err}"] if err else check(i, out)
        samples.append((jobs, dt, problems))
        i += 1
        n = len(samples)
        if n_ops is not None and n >= n_ops:
            break
        if seconds is not None and n >= 2 and n % step == 0:
            last = sum(s[1] for s in samples[-step:])
            if time.perf_counter() - start + last > seconds:
                break
    return samples


def interleaved(wl, every):
    """(op, check) over an unpaired workload's jobs=1 ops, with a jobs=2 replay
    of op k right after op 0, op every - 1, op 2 (every - 1), ...

    Spread through the run, the replays meet the same host load as the
    jobs=1 ops around them.  With ``every=2`` each op is followed by its replay.
    """
    def at(i):
        q, r = divmod(i, every)
        return r == 1, q * (every - 1) + max(r - 1, 0)

    def op(i):
        replay, k = at(i)
        return wl.replay(k) if replay else wl.op(k)

    def check(i, out):
        replay, k = at(i)
        return wl.check_replay(k, out) if replay else wl.check(k, out)
    return op, check


def timed_setup(wl, hlq):
    clear_caches(hlq)
    t0 = time.perf_counter()
    problems = wl.setup()
    return time.perf_counter() - t0, problems


def end_to_end(wl, hlq, import_s, seconds):
    reps, setup_problems = [], []
    for _ in range(SETUP_REPS):
        dt, probs = timed_setup(wl, hlq)
        reps.append(dt)
        setup_problems += probs
    if wl.paired:
        op, check, step = wl.op, wl.check, 2
    else:
        op, check = interleaved(wl, wl.replay_every)
        step = 2 if wl.replay_every == 2 else 1
    samples = run_ops(op, check, hlq, seconds=seconds, step=step)
    j1 = [dt for jobs, dt, _ in samples if jobs == 1]
    j2 = [dt for jobs, dt, _ in samples if jobs == 2]
    tail, pct, n = tracing.tail_percentile(j1)
    metrics = {
        "setup_s": import_s + statistics.median(reps),
        "ops_per_s": len(j1) / sum(j1),
        "op_p50_ms": 1e3 * statistics.median(j1),
        "op_tail_ms": 1e3 * tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_per_s.jobs2": len(j2) / sum(j2),
    }
    info = {"import_s": import_s, "setup_reps_s": reps,
            "op_tail": {"percentile": pct, "samples": n},
            "ops": {"jobs1": len(j1), "jobs2": len(j2)}}
    metrics = {k: (v, UNITS[k]) for k, v in metrics.items()}
    return metrics, samples, setup_problems, info


def traced(wl_cls, hlq, seed, tmp, trace_path):
    """The fixed op plan twice, untraced and traced, in alternating blocks.

    Two workload objects from one seed run the same ops; block by block, the
    untraced one goes first and then the traced one, so drifts in the host's
    speed fall on both alike.  The tracing overhead is the traced minus the
    untraced time; it is marked unresolved when it lies within twice the
    spread of that difference across blocks.
    """
    plain = wl_cls(hlq, seed, os.path.join(tmp, "untraced"))
    wl = wl_cls(hlq, seed, os.path.join(tmp, "traced"))
    setup_problems = []
    for w in (plain, wl):
        os.makedirs(w.tmp)
        setup_problems += timed_setup(w, hlq)[1]
    tracer = tracing.Tracer()
    block = max(1, wl.trace_ops // TRACE_BLOCKS)
    samples, diffs, t_plain, bindings = [], [], 0.0, 0
    for lo in range(0, wl.trace_ops, block):
        n = min(block, wl.trace_ops - lo)
        a = run_ops(plain.op, plain.check, hlq, n_ops=n, first=lo)
        bindings = tracer.install(hlq)
        try:
            b = run_ops(wl.op, wl.check, hlq, n_ops=n, first=lo, tracer=tracer)
        finally:
            tracer.uninstall()
        samples += a + b
        t_a = sum(s[1] for s in a)
        t_plain += t_a
        diffs.append(sum(s[1] for s in b) - t_a)
    tracer.write(trace_path)
    metrics = tracing.layer_metrics(tracer.op_spans())
    overhead = sum(diffs)
    noise = statistics.stdev(diffs) * len(diffs) ** 0.5 if len(diffs) > 1 else 0.0
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_share"] = (overhead / t_plain, "ratio")
    info = {"bindings_wrapped": bindings, "trace_file": trace_path,
            "ops": wl.trace_ops, "blocks": len(diffs), "untraced_s": t_plain,
            "traced_s": t_plain + overhead,
            "trace_overhead": {"s": overhead, "noise_s": noise,
                               "resolved": abs(overhead) > 2 * noise}}
    return metrics, samples, setup_problems, info


def run_one(args) -> int:
    hlq, import_s = load_package()
    wl_cls = workloads.WORKLOADS[args.workload]
    os.makedirs(WORK, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="tmp-", dir=WORK)
    try:
        if args.trace:
            trace_path = os.path.join(WORK, f"trace-{args.workload}-seed{args.seed}.jsonl")
            metrics, samples, setup_problems, info = traced(
                wl_cls, hlq, args.seed, tmp, trace_path)
        else:
            metrics, samples, setup_problems, info = end_to_end(
                wl_cls(hlq, args.seed, tmp), hlq, import_s, args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    problems = setup_problems + [p for s in samples for p in s[2]]
    failed = sum(1 for s in samples if s[2])
    # fail_ratio is 0 when all is well, so it is printed here and in the info
    # line rather than as a metric; the result carries it as failed/attempted.
    info["fail_ratio"] = failed / len(samples)
    rows = dict(metrics, fail_ratio=(info["fail_ratio"], "ratio"))
    for name, (value, unit) in rows.items():
        print(f"{args.workload:15s} {name:34s} {value:.6g} {unit}")
    if "op_tail" in info:
        print(f"{args.workload:15s} {'op_tail_ms is':34s} p{info['op_tail']['percentile']:.4g}"
              f" of {info['op_tail']['samples']} samples")
    info.update(env=environment(args), problems=problems[:20])
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; a combined result at the end."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            total["metrics"][f"{name}/{k}"] = v
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
