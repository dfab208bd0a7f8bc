"""Print a sha256 digest of every file a fixed set of hlq commands writes.

Runs each command with ``python -m hlq.cli`` in a subprocess whose
PYTHONPATH starts with SRC_DIR, inside one temporary directory, and prints
``sha256  name`` for every file left there: the stdout of the scalar
commands, the CSV/JSON outputs, the report bundle and the checkpoints.
Running it on two source trees and diffing the listings shows whether a
change moved any output byte.

Run:  python3 tools/output_digest.py src > after.txt
      python3 tools/output_digest.py ../parent/src > before.txt
      diff before.txt after.txt
"""

import hashlib
import os
import subprocess
import sys
import tempfile

# (name of the file stdout goes to, or None when --out names the files, argv)
COMMANDS = [
    ("z_first_zero.txt", ["z", "--t", "14.134725141734694"]),
    ("z_0.5.txt", ["z", "--t", "0.5"]),
    ("z_300.json", ["z", "--t", "300", "--format", "json"]),
    ("z_5000.txt", ["z", "--t", "5000"]),
    ("z_300_rs.txt", ["z", "--t", "300", "--tol", "1e-7"]),
    # bracket z_eval's route choice at the default target: reference at 620,
    # Riemann-Siegel at 640
    ("z_620.txt", ["z", "--t", "620"]),
    ("z_640.txt", ["z", "--t", "640"]),
    # Riemann-Siegel below t = 25, where z_eval takes it for loose targets
    ("z_11_rs.txt", ["z", "--t", "11", "--tol", "1e-3"]),
    ("theta_5.txt", ["theta", "--t", "5"]),
    ("theta_100.json", ["theta", "--t", "100", "--format", "json"]),
    # a partial cell on the reference route, with no checkpoint
    ("mass_402.5.txt", ["mass", "--t", "402.5"]),
    ("mass_1000.txt", ["mass", "--t", "1000", "--checkpoint", "mass.ckpt"]),
    ("mass_1500.5.json", ["mass", "--t", "1500.5", "--checkpoint", "mass.ckpt",
                          "--format", "json"]),
    ("mass_1500.5_again.json", ["mass", "--t", "1500.5", "--checkpoint",
                                "mass.ckpt", "--format", "json"]),
    ("ladder_1200.txt", ["ladder", "--t", "1200", "--checkpoint", "mass.ckpt"]),
    ("ladder_1200_c0.json", ["ladder", "--t", "1200", "--c0", "2.5",
                             "--checkpoint", "mass.ckpt", "--format", "json"]),
    (None, ["partition", "--start", "1000", "--count", "20",
            "--checkpoint", "partition.ckpt", "--out", "partition.csv"]),
    # gaps of two or more whole cells: the recheck integrates each as one span
    (None, ["partition", "--start", "1000", "--count", "5", "--omega", "30",
            "--out", "partition_omega30.csv"]),
    (None, ["partition", "--start", "1000", "--count", "20", "--tau", "0.25",
            "--format", "json", "--jobs", "2", "--out", "partition.json"]),
    (None, ["planck", "--t", "10002", "--count", "1000", "--out", "planck.csv"]),
    (None, ["planck", "--t", "10002", "--count", "100", "--format", "json",
            "--out", "planck.json"]),
    (None, ["gram", "--start", "0", "--count", "100", "--out", "gram.csv"]),
    (None, ["gram", "--start", "50", "--count", "20", "--tau",
            "1.5707963267948966", "--format", "json", "--out", "gram.json"]),
    (None, ["gram", "--start", "0", "--count", "3", "--tau",
            "-3.141592653589793", "--out", "gram_lo.csv"]),
    (None, ["verify", "tka", "--out", "tka.json"]),
    (None, ["verify", "all", "--checkpoint", "verify.ckpt",
            "--out", "verify.json"]),
    (None, ["verify", "balasubramanian", "--t", "2000",
            "--out", "verify_bala.json"]),
    (None, ["verify", "tka", "--delta", "0.01", "--out", "tka_delta.json"]),
    (None, ["verify", "short_interval", "--t", "2000", "--epsilon", "0.02",
            "--out", "verify_si.json"]),
    (None, ["verify", "ladder", "--t", "5000", "--c0", "1.5",
            "--out", "verify_ladder.json"]),
    (None, ["report", "--count", "20", "--start", "1000",
            "--checkpoint", "report.ckpt", "--out", "report"]),
    (None, ["partition", "--start", "1000", "--count", "20", "--c0", "1.5",
            "--format", "json", "--out", "partition_c0.json"]),
    (None, ["report", "--count", "20", "--start", "1000", "--c0", "1.5",
            "--out", "report_c0"]),
]


def _sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    src = os.path.abspath(argv[1])
    env = dict(os.environ)
    env.pop("HLQ_CHECKPOINT", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    with tempfile.TemporaryDirectory() as work:
        for stdout_name, args in COMMANDS:
            proc = subprocess.run([sys.executable, "-m", "hlq.cli", *args],
                                  cwd=work, env=env, capture_output=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr.decode())
                print(f"hlq {' '.join(args)} exited {proc.returncode}",
                      file=sys.stderr)
                return 1
            if stdout_name is not None:
                with open(os.path.join(work, stdout_name), "wb") as f:
                    f.write(proc.stdout)
        for root, _, files in sorted(os.walk(work)):
            for name in sorted(files):
                path = os.path.join(root, name)
                print(f"{_sha256(path)}  {os.path.relpath(path, work)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
