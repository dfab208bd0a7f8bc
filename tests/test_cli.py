"""Command-line interface: outputs, exit codes, determinism."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hlq
from hlq import cli

PARTITION_HEADER = "nu,T,gap,mass,tan_alpha,predicted_gap,rel_gap_err"
GRAM_HEADER = "nu,t,tau_bar,spacing,predicted"


@pytest.fixture(scope="module")
def ckpt_file(tmp_path_factory):
    return str(tmp_path_factory.mktemp("cli") / "shared.ckpt")


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# scalar subcommands
# ---------------------------------------------------------------------------

def test_z_at_first_zero(capsys):
    code, out, err = run_cli(capsys, "z", "--t", "14.134725141734694")
    assert code == 0 and err == ""
    fields = dict(line.split(" = ") for line in out.strip().splitlines())
    assert abs(float(fields["z"])) < 1e-10
    assert float(fields["abs_err"]) < 1e-9
    assert fields["method"] == "reference"


def test_z_json(capsys):
    code, out, _ = run_cli(capsys, "z", "--t", "100", "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert abs(float(d["z"]) - 2.6926970566644635) < 1e-8


def test_theta(capsys):
    code, out, _ = run_cli(capsys, "theta", "--t", "100")
    assert code == 0
    fields = dict(line.split(" = ") for line in out.strip().splitlines())
    assert abs(float(fields["theta"]) - 87.97216523178722) < 1e-9


def test_mass_with_checkpoint(capsys, ckpt_file):
    code, out, _ = run_cli(capsys, "mass", "--t", "150",
                           "--checkpoint", ckpt_file)
    assert code == 0
    assert os.path.exists(ckpt_file)
    fields = dict(line.split(" = ") for line in out.strip().splitlines())
    first = fields["mass"]
    # rerun: pure lookup, identical output
    code, out, _ = run_cli(capsys, "mass", "--t", "150",
                           "--checkpoint", ckpt_file)
    fields = dict(line.split(" = ") for line in out.strip().splitlines())
    assert fields["mass"] == first


def test_mass_env_checkpoint(capsys, tmp_path, monkeypatch):
    path = str(tmp_path / "env.ckpt")
    monkeypatch.setenv("HLQ_CHECKPOINT", path)
    code, _, _ = run_cli(capsys, "mass", "--t", "30")
    assert code == 0
    assert os.path.exists(path)


def test_ladder(capsys, ckpt_file):
    code, out, _ = run_cli(capsys, "ladder", "--t", "1000", "--format",
                           "json", "--checkpoint", ckpt_file)
    assert code == 0
    d = json.loads(out)
    assert abs(float(d["ratio"]) - 1.8685759318740487) < 1e-6


# ---------------------------------------------------------------------------
# sequence subcommands
# ---------------------------------------------------------------------------

def test_partition_csv(capsys, ckpt_file):
    code, out, _ = run_cli(capsys, "partition", "--count", "5",
                           "--checkpoint", ckpt_file)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == PARTITION_HEADER
    assert len(lines) == 6
    assert lines[1].startswith("5213,")
    mass = float(lines[1].split(",")[3])
    assert abs(mass - 1.0) < 1e-8


def test_partition_out_file_reruns_identically(tmp_path, capsys, ckpt_file):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run_cli(capsys, "partition", "--count", "5",
                             "--checkpoint", ckpt_file, "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_partition_jobs_identical(tmp_path, capsys):
    outs = []
    for jobs in ("1", "4"):
        ck = tmp_path / f"ck{jobs}.ckpt"
        out_path = tmp_path / f"p{jobs}.csv"
        code, _, _ = run_cli(capsys, "partition", "--count", "8",
                             "--checkpoint", str(ck), "--out", str(out_path),
                             "--jobs", jobs)
        assert code == 0
        outs.append((out_path.read_bytes(), ck.read_bytes()))
    assert outs[0] == outs[1]


def test_gram_csv(capsys):
    code, out, _ = run_cli(capsys, "gram", "--start", "0", "--count", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == GRAM_HEADER
    assert len(lines) == 4
    assert abs(float(lines[1].split(",")[1]) - 17.845599540410861) < 1e-8


def test_planck_csv(capsys):
    code, out, _ = run_cli(capsys, "planck", "--t", "10002", "--count", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "nu,offset,gap"
    assert len(lines) == 5
    assert float(lines[1].split(",")[1]) == 0.0


def test_verify_json(capsys, ckpt_file):
    code, out, _ = run_cli(capsys, "verify", "balasubramanian", "--t",
                           "1000", "--checkpoint", ckpt_file)
    assert code == 0
    d = json.loads(out)
    r = d["reports"][0]
    assert abs(r["predicted"] - 5224.309542375857) < 1e-9
    assert abs(r["residual"]) <= r["bound"]


def test_verify_tka_single(capsys):
    code, out, _ = run_cli(capsys, "verify", "tka", "--delta", "0.04")
    assert code == 0
    d = json.loads(out)
    assert d["reports"][0]["inputs"]["delta"] == 0.04


# ---------------------------------------------------------------------------
# report bundle
# ---------------------------------------------------------------------------

def test_report_bundle(tmp_path, capsys, ckpt_file):
    out_dir = tmp_path / "bundle"
    code, _, _ = run_cli(capsys, "report", "--count", "40",
                         "--checkpoint", ckpt_file, "--out", str(out_dir))
    assert code == 0
    names = sorted(os.listdir(out_dir))
    assert names == ["gaps.svg", "gram.csv", "gram_hist.svg",
                     "partition.csv", "residuals.svg", "verify.json"]
    with open(out_dir / "verify.json") as f:
        d = json.load(f)
    kinds = {r["kind"] for r in d["reports"]}
    assert {"balasubramanian", "tka", "short_interval", "ladder_bounds",
            "ladder_increment"} <= kinds
    assert 0.8 < d["tka_slope"] < 1.2
    svg = (out_dir / "gaps.svg").read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    with open(out_dir / "partition.csv") as f:
        assert f.readline().strip() == PARTITION_HEADER


def test_report_mean_gap_matches_partition_json(tmp_path, capsys, ckpt_file):
    out_dir = tmp_path / "bundle"
    args = ("--omega", "8", "--count", "20", "--checkpoint", ckpt_file)
    code, _, _ = run_cli(capsys, "report", *args, "--out", str(out_dir))
    assert code == 0
    with open(out_dir / "verify.json") as f:
        report_gap = json.load(f)["mean_gap"]
    code, out, _ = run_cli(capsys, "partition", *args, "--format", "json")
    assert code == 0
    partition_gap = json.loads(out)["mean_gap"]
    assert partition_gap is not None
    assert set(report_gap) == set(partition_gap)
    assert report_gap == partition_gap


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_exit_code_domain_error(capsys):
    code, out, err = run_cli(capsys, "mass", "--t", "-5")
    assert code == 1
    assert err.startswith("domain_error:")
    assert out == ""


def test_exit_code_conflict(capsys, tmp_path, ckpt_file):
    code, _, err = run_cli(capsys, "mass", "--t", "10",
                           "--checkpoint", ckpt_file, "--tol", "1e-11")
    assert code == 1
    assert err.startswith("checkpoint_conflict:")


def test_exit_code_bad_checkpoint(capsys, tmp_path):
    bad = tmp_path / "bad.ckpt"
    bad.write_text("garbage\n")
    code, _, err = run_cli(capsys, "mass", "--t", "10",
                           "--checkpoint", str(bad))
    assert code == 1
    assert err.startswith("format_error:")


def test_exit_code_usage():
    with pytest.raises(SystemExit) as exc:
        cli.main(["bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["z"])  # missing required --t
    assert exc.value.code == 2


def run_declared_script(*argv):
    """Run ``hlq`` the way the console script pip generates would run it.

    The ``hlq`` entry of ``[project.scripts]`` in the repo's pyproject.toml
    is imported and called as ``sys.exit(attr())`` in a fresh interpreter,
    with the source directory of the ``hlq`` under test first on
    ``PYTHONPATH``, so no install is needed.
    """
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as f:
        entry = tomllib.load(f)["project"]["scripts"]["hlq"]
    module, attr = entry.split(":")
    wrapper = (f"import sys; from {module} import {attr}; "
               f"sys.argv[0] = 'hlq'; sys.exit({attr}())")
    src = str(Path(hlq.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", wrapper, *argv],
                          capture_output=True, text=True, env=env)


def test_console_script_installed():
    proc = run_declared_script("theta", "--t", "50")
    assert proc.returncode == 0
    assert "theta = " in proc.stdout
    proc = run_declared_script("theta", "--t", "-1")
    assert proc.returncode == 1
    assert proc.stderr.startswith("domain_error:")


@pytest.mark.skipif(shutil.which("hlq") is None,
                    reason="hlq console script not installed")
def test_console_script_on_path():
    proc = subprocess.run(["hlq", "theta", "--t", "50"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "theta = " in proc.stdout
