"""What each entry point loads, each probe in a fresh interpreter (this one
has scipy loaded already).

scipy's HiGHS core loads with the first decoy LP, straight from its
extension file: no LP loads ``scipy.optimize``, yet scipy's own ``linprog``
and ``mpqkd.decoy.load_highs`` share one core in either load order.  The
process-pool module (and with it ``multiprocessing``) loads only when a
pool starts, and ``concurrent.futures`` only with the first pool: a decoy
bound solves its LPs on the calling thread.
"""
import json
import os
import subprocess
import sys

import pytest

import mpqkd

# Each probe prints, as its last line, a JSON report.
_ENTRY_POINTS = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import mpqkd
report = {"import": scipy_modules(), "futures": ["concurrent.futures" in sys.modules]}
from mpqkd.cli import main
report["run_code"] = main(["run", "--config", sys.argv[1], "--out", sys.argv[2]])
report["run"] = scipy_modules()
report["run_pool"] = "multiprocessing" in sys.modules
report["futures"].append("concurrent.futures" in sys.modules)
report["optimize_code"] = main(["optimize", "--la", "80", "--delta", "7.5", "--lambda", "1000"])
report["optimize"] = scipy_modules()
report["optimize_pool"] = "multiprocessing" in sys.modules
report["futures"].append("concurrent.futures" in sys.modules)
report["verify_code"] = main(["verify", "--config", sys.argv[3]])
report["verify"] = scipy_modules()
report["futures"].append("concurrent.futures" in sys.modules)
print(json.dumps(report))
"""

_LOADER_FIRST = """
import json, sys
from mpqkd.decoy import load_highs

core, _ = load_highs()
report = {"optimize_loaded": "scipy.optimize" in sys.modules}
from scipy.optimize import linprog

result = linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0], method="highs")
report["x"] = result.x.tolist()
report["same"] = sys.modules["scipy.optimize._highspy._core"] is load_highs()[0] is core
print(json.dumps(report))
"""

_SCIPY_FIRST = """
import json, sys
import scipy.optimize
from mpqkd.decoy import load_highs

print(json.dumps({"same": load_highs()[0] is scipy.optimize._highspy._core}))
"""

_FAILED_LOAD = """
import json, sys
import mpqkd.decoy as decoy

class Failing(decoy.ExtensionFileLoader):
    def exec_module(self, module):
        raise ImportError("injected")

decoy.ExtensionFileLoader = Failing
try:
    decoy.load_highs()
except ImportError as exc:
    print(json.dumps([str(exc), "scipy.optimize._highspy._core" in sys.modules]))
"""

# The first LP is a bound: load_highs loads the core once, on the calling
# thread, and every later LP gets that same cached core.
_FIRST_BOUND = """
import json, sys, threading
import mpqkd.decoy as decoy
from mpqkd.model import make_scenario

calls = []
real = decoy._import_highs_core

def recorded_import():
    calls.append(threading.current_thread().name)
    return real()

decoy._import_highs_core = recorded_import
scenario = make_scenario(100.0, 150.0, 0.2402, 0.7594, 1e6, nu_a=0.05, nu_b=0.05)
config = decoy.decoy_config_for(scenario)
decoy.bound_single_photon(decoy.expected_observables(scenario, config), config)
core = sys.modules["scipy.optimize._highspy._core"]
print(json.dumps({"calls": calls, "same": core is decoy.load_highs()[0]}))
"""

# A child forked after a bound gets the parent's cached HiGHS core and
# options, and bounds with them as the parent does.  A bound there that
# hung would end at the alarm.
_FORKED_BOUND = """
import json, os, signal
from mpqkd.decoy import bound_single_photon, decoy_config_for, expected_observables
from mpqkd.model import make_scenario

scenario = make_scenario(100.0, 150.0, 0.2402, 0.7594, 1e6, nu_a=0.05, nu_b=0.05)
config = decoy_config_for(scenario)
observables = expected_observables(scenario, config)
parent = bound_single_photon(observables, config)
pid = os.fork()
if pid == 0:
    signal.alarm(20)
    code = 1
    try:
        code = 0 if bound_single_photon(observables, config) == parent else 2
    finally:
        os._exit(code)
_, status = os.waitpid(pid, 0)
print(json.dumps({"child_exit": os.waitstatus_to_exitcode(status)}))
"""

# The ``verify`` config of the entry-point probe: one point, 20 000 rounds.
# The CI workflow runs the installed ``mpqkd-sim verify`` on it as well.
VERIFY_CONFIG = {
    "mode": "custom",
    "distance_start": 120,
    "distance_stop": 120,
    "distance_step": 10,
    "delta_list": [0],
    "lambda_list": [100],
    "e_d_list": [0.04],
    "methods": ["OI"],
    "n_rounds": 20_000,
}


def run_probe(code, *args, cwd):
    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(mpqkd.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    env.pop("MPQKD_SEED", None)
    argv = [sys.executable, "-c", code, *map(str, args)]
    result = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=cwd)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_scipy_loads_only_where_an_lp_is_solved(tmp_path):
    run_config = tmp_path / "run.json"
    run_config.write_text(json.dumps({"mode": "table2"}))
    verify_config = tmp_path / "verify.json"
    verify_config.write_text(json.dumps(VERIFY_CONFIG))
    report = run_probe(
        _ENTRY_POINTS, run_config, tmp_path / "rows.csv", verify_config, cwd=tmp_path
    )
    assert report["import"] == []
    assert (report["run_code"], report["run"], report["run_pool"]) == (0, [], False)
    assert (report["optimize_code"], report["optimize"]) == (0, [])
    assert report["optimize_pool"] is False
    assert report["futures"] == [False] * 4  # after import, run, optimize and verify
    assert report["verify_code"] in (0, 3)  # 3: a statistical check failed
    assert "scipy.optimize._highspy._core" in report["verify"]
    assert "scipy.optimize" not in report["verify"]


def test_one_highs_core_in_either_load_order(tmp_path):
    report = run_probe(_LOADER_FIRST, cwd=tmp_path)
    assert report["optimize_loaded"] is False
    assert report["x"] == [1.0, 0.0]
    assert report["same"] is True
    assert run_probe(_SCIPY_FIRST, cwd=tmp_path) == {"same": True}


def test_failed_load_leaves_no_module(tmp_path):
    message, left = run_probe(_FAILED_LOAD, cwd=tmp_path)
    assert message.startswith("decoy LPs need scipy>=1.15")
    assert left is False


def test_first_bound_loads_the_core_once(tmp_path):
    assert run_probe(_FIRST_BOUND, cwd=tmp_path) == {"calls": ["MainThread"], "same": True}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_bound_in_forked_child(tmp_path):
    assert run_probe(_FORKED_BOUND, cwd=tmp_path) == {"child_exit": 0}
