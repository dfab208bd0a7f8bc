"""The surface of hlq that the benchmark harness in perfbench/ relies on.

perfbench wraps hlq from outside and cannot change with it, so each name it
traces and each checkpoint detail it reads is pinned here.
"""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

from hlq import cli, hlmass, zfun

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    for mod_name, names in _tracing().PUBLIC.items():
        mod = importlib.import_module(f"hlq.{mod_name}")
        for name in names:
            obj = mod
            for part in name.split("."):
                obj = getattr(obj, part)
            assert callable(obj), f"hlq.{mod_name}.{name}"


def test_checkpoint_surface(tmp_path, quad_cfg):
    ck = hlmass.new_checkpoint(quad_cfg)
    hlmass.hl_mass(12.5, cfg=quad_cfg, ckpt=ck)
    hlmass.check_compat(ck, quad_cfg)
    path = tmp_path / "m.ckpt"
    hlmass.save_checkpoint(ck, str(path))
    header = json.loads(path.read_text().splitlines()[0])
    assert json.dumps(ck.z_config, sort_keys=True) == \
        json.dumps(header["z_config"], sort_keys=True)
    assert ck.version == header["version"] and ck.tol == header["tol"]
    assert ck.int_cover == 12
    default = inspect.signature(zfun.z_many).parameters["z_config"].default
    assert default.rs_min_t == zfun.RS_MIN_T


def test_hooked_parameter_names():
    """perfbench's hooks read these arguments by name."""
    def params(fn):
        return set(inspect.signature(fn).parameters)
    assert "output_dir" in params(cli.emit_report)
    assert "ckpt" in params(hlmass.hl_mass)
    assert "ckpt" in params(hlmass.hl_mass_probe)
    assert "path" in params(hlmass.save_checkpoint)
    assert {"ts", "z_config"} <= params(zfun.z_many)
