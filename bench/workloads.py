"""Workload inputs, bodies and output checks of the mpqkd benchmark.

Every workload is a closed loop in one process: the next iteration of its
body starts when the previous one has returned.  Inputs depend only on the
seed.  ``prepare`` is also what a fresh interpreter runs to measure set-up
time, so it stays free of timed work.

* ``sweep``: ``mpqkd-sim run`` with one worker on a custom spec (OI, AF and
  PLOB; gaps 0/50/100 km; lambda 1/1000/inf; two total distances in the
  200-400 km PLOB-crossover region).  Optimizer and scalar key rate do the
  work; Monte Carlo and decoy do none.  Not listed in ``BENCHMARK.json``:
  with 2-3 iterations per run its run-to-run spread on a shared 2-core
  machine exceeded the bound (see README.md); run it by name.
* ``fig-parallel``: ``mpqkd-sim run`` on a trimmed ``fig4`` preset with two
  workers, i.e. the shipped process-pool path (one pool per distance point).
* ``verify``: ``mpqkd-sim verify`` at a short-arm, high-click geometry with
  2e6 rounds per point, so the Monte Carlo stages dominate.
* ``decoy``: a seeded batch of decoy scenarios drawn like acceptance
  criterion 11, each taken through config -> forward model -> LP bounds ->
  decoy key rate.  Optimizer and Monte Carlo do none of the work.

The seed shifts the distance grid of the two CSV workloads by ``seed % 8``
km, so every seed has a shipped reference digest (``reference.json``).
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import mpqkd.cli
import mpqkd.decoy
import mpqkd.model
from mpqkd.sweep import CSV_COLUMNS

WORKLOADS = ("sweep", "fig-parallel", "verify", "decoy")
GRID_OFFSETS = 8
VERIFY_ROUNDS = 2_000_000
VERIFY_POINTS = 2  # verify_oracles checks the first two gaps of the spec
DECOY_BATCH = 16
REFERENCE = Path(__file__).resolve().parent / "reference.json"


@dataclass
class Prepared:
    """One workload's inputs, ready to run."""

    name: str
    item: str  # what items_per_s counts: rows, rounds or bounds
    items: int  # items per iteration
    operations: int  # operations attempted per iteration
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]  # one message per failed operation


def grid_offset(seed: int) -> int:
    return seed % GRID_OFFSETS


def _cli_spec(name: str, seed: int) -> dict[str, Any]:
    offset = grid_offset(seed)
    if name == "sweep":
        return {
            "mode": "custom",
            "distance_start": 250 + offset,
            "distance_stop": 350 + offset,
            "distance_step": 100,
            "delta_list": [0, 50, 100],
            "lambda_list": [1, 1000, "inf"],
            "e_d_list": [0.04],
            "methods": ["OI", "AF", "PLOB"],
        }
    if name == "fig-parallel":
        return {
            "mode": "fig4",
            "distance_start": 200 + offset,
            "distance_stop": 400 + offset,
            "distance_step": 100,
        }
    return {
        "mode": "custom",
        "distance_start": 20,
        "distance_stop": 20,
        "distance_step": 5,
        "delta_list": [0, 10],
        "lambda_list": [100],
        "e_d_list": [0.04],
        "methods": ["OI"],
        "seed": seed,
        "n_rounds": VERIFY_ROUNDS,
    }


def _call_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = mpqkd.cli.main(argv)
    return code, out.getvalue()


def reference_for(name: str, seed: int) -> dict[str, Any] | None:
    table = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    return table.get(name, {}).get(str(grid_offset(seed)))


def check_csv(text: str, expected_rows: int) -> list[str]:
    """Structural checks that hold for any seed."""
    lines = text.splitlines()
    if not lines or lines[0] != ",".join(CSV_COLUMNS):
        return ["CSV header differs from CSV_COLUMNS"]
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != expected_rows:
        return [f"CSV has {len(rows)} rows, expected {expected_rows}"]
    rate = CSV_COLUMNS.index("rate")
    for number, row in enumerate(rows, start=1):
        if len(row) != len(CSV_COLUMNS):
            return [f"CSV row {number} has {len(row)} fields"]
        value = float(row[rate])
        if not (math.isfinite(value) and value >= 0.0):
            return [f"CSV row {number} has rate {row[rate]}"]
    return []


def _prepare_csv(name: str, seed: int, workdir: Path) -> Prepared:
    spec = _cli_spec(name, seed)
    config = workdir / f"{name}.json"
    config.write_text(json.dumps(spec))
    out = workdir / f"{name}.csv"
    workers = "2" if name == "fig-parallel" else "1"
    argv = ["run", "--config", str(config), "--workers", workers, "--out", str(out)]
    reference = reference_for(name, seed)
    if name == "sweep":
        totals = len(range(spec["distance_start"], spec["distance_stop"] + 1, spec["distance_step"]))
        expected_rows = (
            totals * len(spec["delta_list"]) * len(spec["lambda_list"]) * len(spec["methods"])
        )
    else:  # figure curves stop early below the rate cut-off; the reference knows where
        expected_rows = reference["rows"] if reference else 0

    def run() -> dict[str, Any]:
        code, _ = _call_cli(argv)
        data = out.read_bytes()
        out.unlink()
        return {"code": code, "csv": data}

    def check(outcome: dict[str, Any]) -> list[str]:
        if outcome["code"] != 0:
            return [f"exit code {outcome['code']}"]
        problems = check_csv(outcome["csv"].decode(), expected_rows)
        digest = hashlib.sha256(outcome["csv"]).hexdigest()
        if reference is None:
            problems.append(f"no reference digest for grid offset {grid_offset(seed)}")
        elif digest != reference["sha256"]:
            problems.append(f"CSV sha256 {digest} differs from the reference")
        return problems[:1]

    return Prepared(name, "rows", expected_rows, 1, run, check)


def _prepare_verify(seed: int, workdir: Path) -> Prepared:
    config = workdir / "verify.json"
    config.write_text(json.dumps(_cli_spec("verify", seed)))
    argv = ["verify", "--config", str(config)]

    def run() -> dict[str, Any]:
        code, text = _call_cli(argv)
        return {"code": code, "text": text}

    def check(outcome: dict[str, Any]) -> list[str]:
        lines = outcome["text"].splitlines()
        summary = re.fullmatch(r"(\d+)/(\d+) checks passed", lines[-1] if lines else "")
        if outcome["code"] != 0:
            return [f"exit code {outcome['code']}"]
        if summary is None or summary[1] != summary[2] or summary[2] == "0":
            return ["verify output does not show N/N checks passed"]
        return []

    return Prepared("verify", "rounds", VERIFY_ROUNDS * VERIFY_POINTS, 1, run, check)


def decoy_scenarios(seed: int, count: int = DECOY_BATCH) -> list[mpqkd.model.Scenario]:
    """Scenarios drawn from criterion 11's ranges with stratified sampling.

    Each of the six drawn quantities takes exactly one value from each of
    ``count`` equal strata of its range, so every batch spans the ranges
    evenly and the batch cost barely depends on the seed.
    """
    rng = random.Random(seed)

    def stratified(low: float, high: float) -> list[float]:
        strata = list(range(count))
        rng.shuffle(strata)
        return [low + (high - low) * (k + rng.random()) / count for k in strata]

    distance_a = stratified(40.0, 120.0)
    gap = stratified(0.0, 60.0)
    mu_a = stratified(0.2, 0.9)
    mu_b = stratified(0.2, 0.9)
    nu_a = stratified(0.1, 0.35)
    nu_b = stratified(0.1, 0.35)
    return [
        mpqkd.model.make_scenario(
            distance_a[k],
            distance_a[k] + gap[k],
            mu_a[k],
            mu_b[k],
            1e6,
            nu_a=mu_a[k] * nu_a[k],
            nu_b=mu_b[k] * nu_b[k],
        )
        for k in range(count)
    ]


def _prepare_decoy(seed: int) -> Prepared:
    decoy, model = mpqkd.decoy, mpqkd.model
    scenarios = decoy_scenarios(seed)
    truths = [
        (decoy.single_photon_z_yield(s), decoy.single_photon_z_error_yield(s)) for s in scenarios
    ]

    def bound(scenario):
        config = decoy.decoy_config_for(scenario)
        bounds = decoy.bound_single_photon(decoy.expected_observables(scenario, config), config)
        breakdown = model.key_rate(scenario)
        rate = decoy.decoy_key_rate(
            bounds, breakdown.r_p * breakdown.r_s, breakdown.e_z, scenario.params
        )
        return bounds, breakdown.rate, rate

    def run() -> list[Any]:
        outcomes: list[Any] = []
        for scenario in scenarios:
            try:
                outcomes.append(bound(scenario))
            except Exception as exc:  # one failed scenario must not stop the batch
                outcomes.append(exc)
        return outcomes

    def check(outcomes: list[Any]) -> list[str]:
        problems = []
        for k, (outcome, (true_m, true_e)) in enumerate(zip(outcomes, truths)):
            if isinstance(outcome, Exception):
                problems.append(f"scenario {k}: {type(outcome).__name__}: {outcome}")
                continue
            bounds, analytic_rate, rate = outcome
            if not bounds.m_z_11_lower <= true_m * (1 + 1e-9):
                problems.append(f"scenario {k}: m_z_11_lower above the true yield")
            elif not bounds.e_z_11_upper >= true_e * (1 - 1e-9):
                problems.append(f"scenario {k}: e_z_11_upper below the true error yield")
            elif not rate <= analytic_rate + 1e-12:
                problems.append(f"scenario {k}: decoy rate above the analytic rate")
        return problems

    return Prepared("decoy", "bounds", len(scenarios), len(scenarios), run, check)


def prepare(name: str, seed: int, workdir: str | Path) -> Prepared:
    """Build a workload's inputs from the seed; no timed work happens here."""
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    if name in ("sweep", "fig-parallel"):
        return _prepare_csv(name, seed, workdir)
    if name == "verify":
        return _prepare_verify(seed, workdir)
    if name == "decoy":
        return _prepare_decoy(seed)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
