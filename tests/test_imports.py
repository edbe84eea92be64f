"""scipy loads with the first decoy LP, not with the package."""
import json
import os
import subprocess
import sys

import mpqkd

# Runs in a fresh interpreter (this one has scipy loaded already) and prints,
# as its last line, the scipy modules loaded after each step.
_PROBE = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import mpqkd
report = {"import": scipy_modules()}
from mpqkd.cli import main
report["run_code"] = main(["run", "--config", sys.argv[1], "--out", sys.argv[2]])
report["run"] = scipy_modules()
report["optimize_code"] = main(["optimize", "--la", "80", "--delta", "7.5", "--lambda", "1000"])
report["optimize"] = scipy_modules()
report["verify_code"] = main(["verify", "--config", sys.argv[3]])
report["verify"] = "scipy.optimize._highspy._core" in sys.modules
print(json.dumps(report))
"""


def test_scipy_loads_only_where_an_lp_is_solved(tmp_path):
    run_config = tmp_path / "run.json"
    run_config.write_text(json.dumps({"mode": "table2"}))
    verify_config = tmp_path / "verify.json"
    verify_config.write_text(
        json.dumps(
            {
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
        )
    )
    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(mpqkd.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    env.pop("MPQKD_SEED", None)
    argv = [sys.executable, "-c", _PROBE, str(run_config), str(tmp_path / "rows.csv")]
    result = subprocess.run(
        argv + [str(verify_config)], capture_output=True, text=True, env=env, cwd=tmp_path
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    assert report["import"] == []
    assert (report["run_code"], report["run"]) == (0, [])
    assert (report["optimize_code"], report["optimize"]) == (0, [])
    assert report["verify_code"] in (0, 3)  # 3: a statistical check failed
    assert report["verify"] is True
