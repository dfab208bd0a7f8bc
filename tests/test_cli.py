"""Command-line interface: outputs, exit codes, determinism."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hlq
from hlq import cli, hlmass

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


def test_checkpoint_keeps_its_z_policy(capsys, tmp_path):
    """Every checkpoint is built under the one Z policy: mass refuses a file
    whose header names correction depth 2 and leaves it as it was."""
    path = tmp_path / "depth2.ckpt"
    header = {"tol": 1e-6, "version": hlmass.CHECKPOINT_VERSION,
              "z_config": {"correction_depth": 2, "rs_min_t": 700.0}}
    text = json.dumps(header, sort_keys=True) + "\n0\t0\n"
    path.write_text(text)
    code, out, err = run_cli(capsys, "mass", "--t", "10", "--tol", "1e-6",
                             "--checkpoint", str(path))
    assert code == 1 and out == ""
    assert err.startswith("format_error:")
    assert path.read_text() == text


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


def test_gram_count_one_is_the_first_row_of_count_two(capsys):
    code, one, _ = run_cli(capsys, "gram", "--start", "7", "--count", "1")
    assert code == 0
    code, two, _ = run_cli(capsys, "gram", "--start", "7", "--count", "2")
    assert code == 0
    assert one.splitlines() == two.splitlines()[:2]


def test_out_file_mode_as_plain_open(tmp_path, capsys):
    """--out gives a new file the mode open() would, and keeps an old one's."""
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    old.write_text("x\n")
    old.chmod(0o664)
    umask = os.umask(0o022)
    try:
        for path in (new, old):
            code, _, _ = run_cli(capsys, "gram", "--count", "3", "--out", str(path))
            assert code == 0
    finally:
        os.umask(umask)
    assert new.stat().st_mode & 0o777 == 0o644
    assert old.stat().st_mode & 0o777 == 0o664
    assert old.read_text().startswith(GRAM_HEADER)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["new.csv", "old.csv"]


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
    code, out, err = run_cli(capsys, "partition", "--jobs", "0")
    assert code == 1
    assert err.startswith("domain_error:")
    assert out == ""


def test_non_finite_c0_is_refused_before_integrating(capsys, monkeypatch):
    def integrate(*args, **kwargs):
        raise AssertionError("a mass was integrated for a refused c0")
    monkeypatch.setattr(hlmass, "_span_masses", integrate)
    for argv in (("partition", "--count", "20", "--c0", "nan"),
                 ("report", "--count", "20", "--c0=-inf", "--out", "unused"),
                 ("ladder", "--t", "20000", "--c0", "inf", "--tol", "1e-8"),
                 ("verify", "all", "--c0", "nan")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert err.startswith("domain_error: c0 must be finite")
        assert out == ""


def test_exit_code_conflict(capsys, tmp_path):
    ckpt = str(tmp_path / "default_tol.ckpt")
    code, _, _ = run_cli(capsys, "mass", "--t", "10", "--checkpoint", ckpt)
    assert code == 0
    code, _, err = run_cli(capsys, "mass", "--t", "10",
                           "--checkpoint", ckpt, "--tol", "1e-11")
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
    # options only the commands that read them accept
    for argv in (["z", "--t", "100", "--jobs", "2"],
                 ["theta", "--t", "100", "--jobs", "2"],
                 ["gram", "--jobs", "2"],
                 ["planck", "--t", "10002", "--jobs", "2"],
                 ["verify", "all", "--format", "csv"],
                 ["report", "--out", "bundle", "--format", "json"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2, argv


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


def test_import_loads_no_scipy():
    """scipy is a test-only dependency: importing the package and its CLI
    must not load it (start-up time of every command)."""
    src = str(Path(hlq.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = ("import sys, hlq, hlq.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.skipif(shutil.which("hlq") is None,
                    reason="hlq console script not installed")
def test_console_script_on_path():
    proc = subprocess.run(["hlq", "theta", "--t", "50"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "theta = " in proc.stdout
