"""What ``import cachebc`` loads, checked in fresh interpreters.

The package loads scipy's compiled HiGHS bindings from their file, without
running ``scipy.optimize``'s package import, and its piggyback max-flow is
its own, so scheduling loads no ``scipy.sparse`` or ``scipy.linalg``.  A
process that imports ``scipy.optimize`` too, before or after, shares one
bindings module.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
CORE = "scipy.optimize._highspy._core"

# Imports scipy.optimize, then solves one phase LP through regions.linprog
# and through scipy's linprog(method="highs"); leaves the comparison in `got`.
SHARED_LP = f"""
import scipy.optimize
from scipy.optimize._highspy import _core
from cachebc import SystemConfig, regions
cfg = SystemConfig(
    K=3, D=3, F=1, deltas=[0.8, 0.5, 0.2], rates=[0.4] * 3, memories=[0.3, 0.3, 0.0]
)
solve, lps = regions.linprog, []
regions.linprog = lambda c, **kw: lps.append((c, kw)) or solve(c, **kw)
regions.phase_lp_max_rate(cfg, 2, 0.3, 1)
regions.linprog = solve
c, kw = lps[0]
ours = regions.linprog(c, **kw)
ref = scipy.optimize.linprog(c, **kw, method="highs")
got["same"] = _core is regions.highs is sys.modules[{CORE!r}]
got["status"] = [ours.status, int(ref.status)]
got["x"] = ours.x.tobytes() == ref.x.tobytes()
got["fun"] = ours.fun == ref.fun
"""


def run_fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter that imports cachebc from this
    checkout; it fills the dict ``got``, returned here."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = f"import json, sys\ngot = {{}}\n{code}\nprint(json.dumps(got))"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def assert_shared_lp(got):
    assert got["same"]
    assert got["status"] == [0, 0]
    assert got["x"] and got["fun"]


def test_import_loads_no_scipy_optimize_or_sparse(tmp_path):
    """After ``import cachebc`` and ``cachebc.cli`` the only scipy.optimize
    modules are the HiGHS bindings and the submodules they register.  One
    general-scheme experiment and one ``schedule-show``, both running the
    piggyback max-flow, load no scipy.sparse or scipy.linalg module.  A
    later ``import scipy.optimize`` shares the bindings, and regions.linprog
    matches scipy's linprog(method="highs") bit for bit on a phase LP."""
    config = dict(K=3, D=3, F=8, deltas=[0.8, 0.5, 0.2], rates=[1.0] * 3,
                  memories=[0.3, 0.3, 0.0], n=600)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    got = run_fresh(
        f"""
import contextlib, io
import cachebc, cachebc.cli
from cachebc import SystemConfig, estimate_pe, regions, schedule
got["mods"] = sorted(m for m in sys.modules if m.startswith(("scipy.optimize", "scipy.sparse")))
got["held"] = regions.highs is sys.modules[{CORE!r}]
flow, got["flows"] = schedule.maximum_flow, 0
def counted(*args):
    got["flows"] += 1
    return flow(*args)
schedule.maximum_flow = counted
estimate_pe(SystemConfig(**{config!r}), "general", backoff=0.8, trials=1, seed=3)
show = ["schedule-show", "--config", {str(path)!r}, "--demand", "1,2,3", "--backoff", "0.8"]
with contextlib.redirect_stdout(io.StringIO()) as out:
    got["show"] = cachebc.cli.main(show)
got["slices"] = out.getvalue().count("piggyback-slice")
got["loaded"] = sorted(m for m in sys.modules if m.startswith(("scipy.sparse", "scipy.linalg")))
{SHARED_LP}
"""
    )
    assert CORE in got["mods"]
    assert all(m == CORE or m.startswith(CORE + ".") for m in got["mods"]), got["mods"]
    assert got["held"]
    assert got["flows"] >= 2 and got["show"] == 0 and got["slices"] > 0
    assert got["loaded"] == []
    assert_shared_lp(got)


def test_scipy_optimize_imported_first_shares_the_bindings():
    """With scipy.optimize imported before cachebc, regions takes the
    bindings scipy.optimize loaded, and its LP still matches scipy's."""
    got = run_fresh(f"import scipy.optimize\nimport cachebc\n{SHARED_LP}")
    assert_shared_lp(got)


def test_every_exported_name_resolves():
    """Each name in a ``cachebc.*`` module's ``__all__`` is an attribute of
    that module, so deleting a name cannot leave a stale export behind."""
    import cachebc

    checked = set()
    for info in pkgutil.iter_modules(cachebc.__path__):
        module = importlib.import_module(f"cachebc.{info.name}")
        if hasattr(module, "__all__"):
            checked.add(info.name)
            missing = [name for name in module.__all__ if not hasattr(module, name)]
            assert missing == [], (info.name, missing)
    assert checked >= {"channel", "codec", "model", "placement", "regions", "schedule", "simulate"}
