"""Tests for the sweep runner, spec parsing, CSV emission and the CLI."""
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import mpqkd.decoy
import mpqkd.sweep
from mpqkd.cli import main
from mpqkd.model import make_scenario
from mpqkd.montecarlo import simulate_rounds
from mpqkd.sweep import (
    CSV_COLUMNS,
    SweepSpec,
    SweepValidationError,
    af_problem,
    load_spec,
    oi_problem,
    run_sweep,
    verify_oracles,
    write_rows,
)

CUSTOM_BASE = {
    "mode": "custom",
    "distance_start": 200,
    "distance_stop": 210,
    "distance_step": 10,
    "delta_list": [50],
    "lambda_list": [100],
    "e_d_list": [0.04],
    "methods": ["OI"],
}
# Four fig4 curves, each cut off before 600 km: 63 rows from 96 tasks.
FIG4_CUTOFF = {"mode": "fig4", "distance_start": 250, "distance_stop": 600, "distance_step": 50}
# Four fig4 curves at totals 200, 300 and 400 km, none cut off: 36 rows.
FIG4_TRIMMED = {"mode": "fig4", "distance_start": 200, "distance_stop": 400, "distance_step": 100}


def traced_peak(call) -> int:
    """Peak bytes that tracemalloc sees numpy and Python allocate during call()."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSpecParsing:
    def test_unknown_keys_rejected(self):
        with pytest.raises(SweepValidationError, match="unknown keys: bogus"):
            load_spec({**CUSTOM_BASE, "bogus": 1})

    def test_empty_methods_rejected(self):
        with pytest.raises(SweepValidationError, match="methods"):
            load_spec({**CUSTOM_BASE, "methods": []})

    def test_unknown_method_rejected(self):
        with pytest.raises(SweepValidationError, match="methods"):
            load_spec({**CUSTOM_BASE, "methods": ["OI", "magic"]})

    def test_bad_grid_rejected(self):
        with pytest.raises(SweepValidationError, match="distance grid"):
            load_spec({**CUSTOM_BASE, "distance_step": -1})
        with pytest.raises(SweepValidationError, match="required for custom"):
            load_spec({k: v for k, v in CUSTOM_BASE.items() if k != "distance_start"})

    def test_negative_gap_rejected(self):
        with pytest.raises(SweepValidationError, match="delta_list"):
            load_spec({**CUSTOM_BASE, "delta_list": [-5]})

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"mode": "fig9"}, "mode: must be one of ("),
            ({**CUSTOM_BASE, "delta_list": []}, "delta_list: must be nonempty"),
            ({**CUSTOM_BASE, "lambda_list": []}, "lambda_list: must be nonempty"),
            ({**CUSTOM_BASE, "e_d_list": []}, "e_d_list: must be nonempty"),
            ({**CUSTOM_BASE, "e_d_list": [0.04, 0.51]}, "e_d_list: misalignment must be in"),
            ({**CUSTOM_BASE, "e_d_list": [-0.01]}, "e_d_list: misalignment must be in"),
        ],
        ids=["unknown-mode", "no-gaps", "no-intervals", "no-misalignments", "e_d-above-half",
             "e_d-negative"],
    )
    def test_out_of_domain_values_rejected(self, spec, message):
        with pytest.raises(SweepValidationError) as error:
            load_spec(spec)
        assert str(error.value).startswith(message)

    @pytest.mark.parametrize("gap", [math.nan, math.inf])
    def test_non_finite_gap_rejected_at_construction(self, gap):
        # load_spec rejects these as JSON values; a spec built in Python must too
        base = {**CUSTOM_BASE, "lambda_list": (100.0,), "e_d_list": (0.04,), "methods": ("OI",)}
        with pytest.raises(SweepValidationError, match="delta_list: gaps must be finite"):
            SweepSpec(**{**base, "delta_list": (50.0, gap)})

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("distance_start", "5", "distance_start: must be a number, got '5'"),
            ("distance_step", True, "distance_step: must be a number, got True"),
            ("mu_a", "0.3", "mu_a: must be a number, got '0.3'"),
            ("delta_list", (0, "a"), "delta_list: must be a list of numbers, got (0, 'a')"),
            ("lambda_list", ("inf",), "lambda_list: must be a list of numbers, got ('inf',)"),
            ("e_d_list", (None,), "e_d_list: must be a list of numbers, got (None,)"),
            ("delta_list", 50, "delta_list: must be a list of numbers, got 50"),
            ("lambda_list", (True,), "lambda_list: must be a list of numbers, got (True,)"),
            ("lambda_list", (np.True_,), f"lambda_list: must be a list of numbers, got {(np.True_,)}"),
        ],
    )
    def test_non_numbers_rejected_at_construction(self, name, value, message):
        # a spec built in Python gets the messages of load_spec's JSON check
        base = {**CUSTOM_BASE, "lambda_list": (100.0,), "e_d_list": (0.04,), "methods": ("OI",)}
        with pytest.raises(SweepValidationError) as error:
            SweepSpec(**{**base, name: value})
        assert str(error.value) == message

    @pytest.mark.parametrize(
        "name, value",
        [
            ("workers", math.nan),
            ("seed", math.nan),
            ("n_rounds", math.nan),
            ("workers", 1.5),
            ("seed", 2.5),
            ("n_rounds", 1e6),
            ("workers", True),
            ("seed", "3"),
        ],
    )
    def test_counts_must_be_integers(self, name, value):
        with pytest.raises(SweepValidationError, match=f"{name}: must be an integer, got"):
            SweepSpec(mode="table2", **{name: value})

    def test_out_must_be_a_path_string(self):
        message = "out: must be a path string, got 5"
        with pytest.raises(SweepValidationError, match=message):
            SweepSpec(mode="table2", out=5)
        with pytest.raises(SweepValidationError, match=message):
            load_spec({"mode": "table2", "out": 5})

    def test_integer_counts_accepted(self):
        spec = SweepSpec(mode="table2", workers=np.int64(2), seed=np.int32(0), n_rounds=10)
        assert (spec.workers, spec.seed, spec.n_rounds) == (2, 0, 10)

    @pytest.mark.parametrize("name", ["distance_start", "distance_stop", "distance_step"])
    def test_nan_grid_bound_rejected_for_itself(self, name):
        with pytest.raises(SweepValidationError) as error:
            SweepSpec(mode="table2", **{name: math.nan})
        assert "distance_start/stop/step: must not be NaN" in str(error.value)
        assert "a grid holds" not in str(error.value)

    def test_interval_strings_parse(self):
        spec = load_spec({**CUSTOM_BASE, "lambda_list": ["inf", 10]})
        assert spec.lambda_list == (math.inf, 10.0)
        with pytest.raises(SweepValidationError, match="cannot parse"):
            load_spec({**CUSTOM_BASE, "lambda_list": ["many"]})
        with pytest.raises(SweepValidationError, match="lambda_list: intervals must be integers"):
            load_spec({**CUSTOM_BASE, "lambda_list": [10, 2.5]})

    def test_fixed_intensity_needs_mu(self):
        with pytest.raises(SweepValidationError, match="mu_a/mu_b"):
            load_spec({**CUSTOM_BASE, "methods": ["fixed-intensity"]})

    @pytest.mark.parametrize("name, value", [("mu_a", 1.5), ("mu_b", 0.0), ("mu_a", -0.2)])
    def test_fixed_intensity_out_of_range_rejected(self, name, value):
        spec = {**CUSTOM_BASE, "methods": ["fixed-intensity"], "mu_a": 0.3, "mu_b": 0.7}
        with pytest.raises(SweepValidationError, match=rf"{name}: intensity must be in \(0, 1\]"):
            load_spec({**spec, name: value})

    def test_preset_rejects_reversed_grid(self):
        with pytest.raises(SweepValidationError, match="distance grid: stop must be >= start"):
            load_spec({"mode": "fig4", "distance_start": 400, "distance_stop": 200})
        assert load_spec({"mode": "fig4", "distance_start": 400}).distance_stop is None

    def test_preset_rejects_parameter_overrides(self):
        with pytest.raises(SweepValidationError, match="not overridable"):
            load_spec({"mode": "table2", "delta_list": [10]})

    @pytest.mark.parametrize(
        "spec",
        [
            {**CUSTOM_BASE, "distance_stop": 1e12, "distance_step": 5},
            {**CUSTOM_BASE, "distance_start": 0, "distance_stop": 1e4, "distance_step": 1},
            {**CUSTOM_BASE, "delta_list": [0, 500], "distance_start": 0,
             "distance_stop": 5e4, "distance_step": 5},
            {"mode": "fig4", "distance_step": 1e-3},
            {"mode": "table2", "distance_stop": 1e9},
        ],
        ids=["custom-huge", "custom-span-at-limit", "custom-smallest-gap", "fig4", "table2"],
    )
    def test_oversized_grid_rejected_before_it_is_built(self, spec):
        # load_spec builds no grid, so an unchecked grid here costs nothing.
        with pytest.raises(
            SweepValidationError, match="distance_start/stop/step: a grid holds at most 10000"
        ):
            load_spec(spec)

    def test_largest_allowed_grid(self):
        spec = {**CUSTOM_BASE, "distance_start": 0, "distance_stop": 9999, "distance_step": 1}
        assert len(mpqkd.sweep._grid_totals(load_spec(spec), 0.0)) == 9998  # from 2 km

    def test_env_seed_override(self, monkeypatch):
        monkeypatch.setenv("MPQKD_SEED", "271828")
        assert load_spec({**CUSTOM_BASE, "seed": 5}).seed == 271828

    def test_spec_from_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(CUSTOM_BASE))
        assert load_spec(str(path)).mode == "custom"
        path.write_text(json.dumps([CUSTOM_BASE]))
        with pytest.raises(SweepValidationError, match="spec document must be a JSON object"):
            load_spec(str(path))
        # json keeps a repeated key's last value; a strict spec names them all
        path.write_text('{"mode": "fig4", "mode": "table2", "seed": 1, "seed": 9}')
        with pytest.raises(SweepValidationError, match=r"^duplicate keys: mode, seed$"):
            load_spec(str(path))


class TestProblems:
    def test_af_problem_is_the_gap_0_oi_problem(self):
        # every AF task of fig4 and fig5, past-cutoff ones included, and the
        # acceptance dominance grid: AF at total t and gap g is OI at t + g
        tasks = [
            task
            for mode in ("fig4", "fig5")
            for curve in mpqkd.sweep._curves(load_spec({"mode": mode}))
            for point in curve
            for task in point
            if task[4] == "AF"
        ]
        geometries = [(total, gap, lam, e_d) for total, gap, lam, e_d, _, _ in tasks]
        geometries += [
            (total, gap, 1e6, 0.04)
            for gap in (50.0, 100.0, 150.0)
            for total in np.arange(gap + 20.0, 401.0, 25.0)
        ]
        assert len(geometries) == 868
        for total, gap, lam, e_d in geometries:
            assert af_problem(total, gap, lam, e_d) == oi_problem(total + gap, 0.0, lam, e_d)

    def test_af_rows_are_af_problem_optima(self):
        # the rows hold the optima of the problems that acceptance 08 checks
        rows = run_sweep(load_spec({**CUSTOM_BASE, "methods": ["AF"]}))
        assert len(rows) == 2
        for row in rows:
            problem = af_problem(row.total_km, row.delta_km, row.lam, row.e_d)
            optimum = mpqkd.sweep.optimize_intensities(problem)
            assert (row.mu_a, row.mu_b) == (optimum.mu_a_star, optimum.mu_b_star)


class TestRunSweep:
    def test_table2_reproduction(self):
        rows = run_sweep(load_spec({"mode": "table2"}))
        assert len(rows) == 3
        expected = {0.0: (0.4998, 0.4998), 50.0: (0.2402, 0.7594), 100.0: (0.0901, 0.9011)}
        for row in rows:
            mu_a, mu_b = expected[row.delta_km]
            assert row.mu_a == pytest.approx(mu_a, abs=5e-3)
            assert row.mu_b == pytest.approx(mu_b, abs=5e-3)
            assert row.mu_b / row.mu_a == pytest.approx(mu_b / mu_a, abs=2e-2)

    def test_custom_rows_carry_breakdown_and_bounds(self):
        rows = run_sweep(load_spec({**CUSTOM_BASE, "methods": ["OI", "PLOB"]}))
        assert len(rows) == 4  # 2 totals x 2 methods
        oi = [r for r in rows if r.method == "OI"]
        plob = [r for r in rows if r.method == "PLOB"]
        for row in oi:
            assert row.rate > 0 and row.p is not None and row.r_p is not None
            assert row.plob_det == pytest.approx(0.2 * row.plob, rel=1e-4)
        for row in plob:
            assert row.rate == row.plob
            assert row.mu_a is None

    def test_fixed_intensity_method(self):
        rows = run_sweep(
            load_spec(
                {**CUSTOM_BASE, "methods": ["fixed-intensity"], "mu_a": 0.3, "mu_b": 0.7}
            )
        )
        assert all(r.mu_a == 0.3 and r.mu_b == 0.7 for r in rows)

    @pytest.mark.parametrize(
        "mode, digest",
        [
            ("table2", "389eb0e76f82123ee2cd64269d5f71f87b28f577d61949677254aecb2bfd2769"),
            ("table3", "3a8b402980ed4a4cda490b0b42a902f55254c385db7d1bbd4e648d18f1b64032"),
            ("table4", "79c6198c35e4870453ad3bd4102caed95a078c4493f6f0773e098fe3b87be1df"),
            ("table5", "2fa269fe5109e9c1c50737b7b03a4bde3d3d918c52b0c67d0d90f359ac90928e"),
            ("fig3", "6309c5bf9706ca09b2f464010f650a7cbb566e626d35a51385e13dae5ab227dc"),
        ],
    )
    def test_fast_preset_csv_bytes(self, tmp_path, mode, digest):
        # pins the shipped CSV bytes of the presets that run in well under a second
        out = tmp_path / f"{mode}.csv"
        run_sweep(SweepSpec(mode=mode, out=str(out)))
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_csv_determinism(self, tmp_path):
        paths = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            run_sweep(load_spec({**CUSTOM_BASE, "out": str(out), "seed": 9}))
            paths.append(out.read_bytes())
        assert paths[0] == paths[1]

    def test_csv_header_fixed(self, tmp_path):
        out = tmp_path / "rows.csv"
        run_sweep(load_spec({**CUSTOM_BASE, "out": str(out)}))
        lines = out.read_text().splitlines()
        assert lines[0] == (
            "total_km,distance_a_km,distance_b_km,delta_km,lambda,e_d,method,mu_a,mu_b,"
            "rate,plob,plob_det,p,r_p,r_s,q_bar_11,e_z,y_11,e_11,raw_rate"
        )
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 3

    def test_unwritable_output_raises_oserror(self, tmp_path):
        rows = run_sweep(load_spec(CUSTOM_BASE))
        with pytest.raises(OSError):
            write_rows(rows, str(tmp_path / "missing_dir" / "rows.csv"))

    def test_workers_give_identical_rows(self):
        sequential = run_sweep(load_spec(CUSTOM_BASE))
        parallel = run_sweep(load_spec({**CUSTOM_BASE, "workers": 2}))
        assert sequential == parallel

    def test_one_pool_per_sweep(self, monkeypatch):
        starts = []

        class CountingPool(mpqkd.sweep.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                starts.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(mpqkd.sweep, "ProcessPoolExecutor", CountingPool)
        monkeypatch.setattr(mpqkd.sweep, "_cpu_count", lambda: 8)
        sequential = run_sweep(load_spec(FIG4_TRIMMED))
        assert starts == []
        parallel = run_sweep(load_spec({**FIG4_TRIMMED, "workers": 2}))
        assert starts == [2]
        assert len(parallel) == 36  # 4 curves x 3 totals x (OI, AF, PLOB)
        assert parallel == sequential

    @pytest.mark.parametrize(
        "spec, workers, cpus, expected",
        [
            (FIG4_TRIMMED, 5000, 64, [17]),  # 17 distinct problems
            (FIG4_TRIMMED, 5000, 3, [3]),
            (FIG4_TRIMMED, 2, 64, [2]),
            (FIG4_TRIMMED, 5000, 1, []),
            (CUSTOM_BASE, 4, 64, [2]),  # one OI problem per total
            ({**CUSTOM_BASE, "distance_stop": 200}, 4, 64, []),
            ({**CUSTOM_BASE, "methods": ["PLOB"]}, 4, 64, []),
        ],
        ids=["problems", "cpus", "workers", "one-cpu", "custom", "one-problem", "no-problem"],
    )
    def test_pool_size_is_bounded(self, monkeypatch, spec, workers, cpus, expected):
        # A stand-in executor that starts no process: a real pool of this
        # size would fork every worker at its first task.
        starts = []

        class FakePool:
            def __init__(self, max_workers):
                starts.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(mpqkd.sweep, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(mpqkd.sweep, "_cpu_count", lambda: cpus)
        rows = run_sweep(load_spec({**spec, "workers": workers}))
        assert starts == expected
        assert rows == run_sweep(load_spec(spec))

    def test_cpu_count_is_this_process_affinity(self):
        count = mpqkd.sweep._cpu_count()
        assert 1 <= count <= (os.cpu_count() or 1)
        if hasattr(os, "sched_getaffinity"):
            assert count == len(os.sched_getaffinity(0))

    def test_each_distinct_problem_optimized_once(self, monkeypatch):
        calls = []
        optimize = mpqkd.sweep.optimize_intensities

        def counting(problem):
            calls.append(problem)
            return optimize(problem)

        monkeypatch.setattr(mpqkd.sweep, "optimize_intensities", counting)
        rows = run_sweep(load_spec(FIG4_TRIMMED))
        # 24 OI and AF tasks: AF at gap 0 is the OI problem, and AF at total
        # t and gap g is AF at total t - 100 and gap g + 100.
        assert len(calls) == len(set(calls)) == 17
        assert len(rows) == 36
        calls.clear()
        gap_0 = {**CUSTOM_BASE, "delta_list": [0]}
        run_sweep(load_spec({**gap_0, "methods": ["OI", "AF"]}))
        with_af = len(calls)
        calls.clear()
        run_sweep(load_spec({**gap_0, "methods": ["OI"]}))
        assert with_af == len(calls) == 2  # a gap-0 AF task adds no call

    def test_evaluations_of_the_bench_sweep(self, monkeypatch):
        # the bench's fig-parallel sweep at seed 1 (its grid shifted by 1 km):
        # 17 problems, 3,040 scalar rate evaluations, the key_rate calls made
        reports, key_rates = [], []
        optimize, key_rate = mpqkd.sweep.optimize_intensities, mpqkd.optimize.key_rate

        def reporting(problem):
            reports.append(optimize(problem))
            return reports[-1]

        monkeypatch.setattr(mpqkd.sweep, "optimize_intensities", reporting)
        monkeypatch.setattr(mpqkd.optimize, "key_rate", lambda s: key_rates.append(s) or key_rate(s))
        run_sweep(load_spec({**FIG4_TRIMMED, "distance_start": 201, "distance_stop": 401}))
        assert len(reports) == 17
        assert sum(report.evaluations for report in reports) == len(key_rates) == 3040

    def test_one_map_per_sweep(self, monkeypatch):
        maps = []

        class CountingPool(mpqkd.sweep.ProcessPoolExecutor):
            def map(self, fn, tasks, **kwargs):
                maps.append(len(tasks))
                return super().map(fn, tasks, **kwargs)

        monkeypatch.setattr(mpqkd.sweep, "ProcessPoolExecutor", CountingPool)
        monkeypatch.setattr(mpqkd.sweep, "_cpu_count", lambda: 2)
        rows = run_sweep(load_spec({**FIG4_CUTOFF, "workers": 2}))
        assert len(rows) == 63
        assert len(maps) == 1  # every curve's problems, past-cutoff ones included

        serial_maps = []
        builtin_map = map

        def counting_map(fn, *iterables):
            serial_maps.append(fn)
            return builtin_map(fn, *iterables)

        monkeypatch.setattr(mpqkd.sweep, "map", counting_map, raising=False)
        assert run_sweep(load_spec(FIG4_CUTOFF)) == rows
        assert serial_maps.count(mpqkd.sweep._optimize) == 1

    def test_pool_runs_a_wrapped_optimizer(self, monkeypatch):
        # A wrapper closure cannot be pickled; the pool must still get a
        # module-level function that finds the optimizer at call time.
        optimize = mpqkd.sweep.optimize_intensities

        def wrapped(problem):
            return optimize(problem)

        monkeypatch.setattr(mpqkd.sweep, "optimize_intensities", wrapped)
        monkeypatch.setattr(mpqkd.sweep, "_cpu_count", lambda: 2)
        parallel = run_sweep(load_spec({**FIG4_TRIMMED, "workers": 2}))
        assert parallel == run_sweep(load_spec(FIG4_TRIMMED))

    def test_cut_off_curves_agree_across_workers(self):
        sequential = run_sweep(load_spec(FIG4_CUTOFF))
        assert len(sequential) == 63
        assert {r.delta_km for r in sequential} == {0.0, 50.0, 100.0, 150.0}
        assert max(r.total_km for r in sequential) < 600.0
        assert run_sweep(load_spec({**FIG4_CUTOFF, "workers": 2})) == sequential

    def test_fig3_intensity_curves(self):
        rows = run_sweep(load_spec({"mode": "fig3"}))
        for lam in (1e6, 1.0):
            curve = [r for r in rows if r.lam == lam]
            assert len(curve) == 16
            assert all(r.mu_a <= r.mu_b + 1e-6 for r in curve)
        # the unbounded-interval curve tracks mu_a + mu_b ~ 1 until dark
        # counts start to dominate at large gaps
        saturated = [r for r in rows if r.lam == 1e6 and r.delta_km <= 100.0]
        assert all(abs(r.mu_a + r.mu_b - 1.0) < 0.02 for r in saturated)


class TestVerifyOracles:
    def test_checks_pass_at_healthy_point(self):
        spec = load_spec(
            {
                **CUSTOM_BASE,
                "distance_start": 120,
                "distance_stop": 130,
                "delta_list": [0],
                "n_rounds": 300_000,
                "seed": 3,
            }
        )
        report = verify_oracles(spec)
        names = {entry["check"].split(":")[1] for entry in report}
        assert {"p", "r_p", "r_s", "decoy_bracket", "decoy_rate_bounded"} <= names
        assert all(entry["passed"] for entry in report)

    def test_missing_lp_core_fails_before_any_point(self, monkeypatch):
        # a scipy older than 1.15 has no HiGHS core: verify stops before it
        # simulates, not at its first decoy LP
        def unreachable(*args, **kwargs):
            raise AssertionError("a point was simulated")

        monkeypatch.setattr(mpqkd.sweep, "simulate_rounds", unreachable)
        monkeypatch.setitem(sys.modules, "scipy.optimize._highspy._core", None)
        mpqkd.decoy.load_highs.cache_clear()
        spec = load_spec({**CUSTOM_BASE, "n_rounds": 1_000})
        with pytest.raises(ImportError, match=r"scipy>=1\.15.*scipy\.optimize\._highspy\._core"):
            verify_oracles(spec)

    def test_one_point_of_columns_alive_at_a_time(self):
        # Two points of 1e6 rounds each.  Point 0's columns (10 MB) are
        # freed before point 1 simulates, so the whole run peaks where one
        # simulate_rounds call does (measured: within 0.1 MB of it).
        spec = {
            **CUSTOM_BASE,
            "distance_start": 20,
            "distance_stop": 20,
            "delta_list": [0, 10],
            "seed": 1,
        }
        verify_oracles(load_spec({**spec, "n_rounds": 1_000}))  # first-call allocations
        sc = make_scenario(10.0, 10.0, 0.5, 0.5, 100)
        one_point = traced_peak(lambda: simulate_rounds(sc, 1_000_000, seed=1))
        two_points = traced_peak(
            lambda: verify_oracles(load_spec({**spec, "n_rounds": 1_000_000}))
        )
        assert two_points <= one_point + 2e6


class TestCli:
    def test_optimize_prints_json(self, capsys):
        code = main(["optimize", "--la", "100", "--delta", "1", "--lambda", "inf"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mu_a"] == pytest.approx(0.5, abs=5e-3)
        assert payload["converged"] is True

    def test_run_with_config(self, tmp_path, capsys):
        config = tmp_path / "sweep.json"
        out = tmp_path / "rows.csv"
        config.write_text(json.dumps({**CUSTOM_BASE, "out": str(out)}))
        assert main(["run", "--config", str(config)]) == 0
        assert out.exists()
        assert "wrote 2 rows" in capsys.readouterr().out
        # --out overrides the config's out
        override = tmp_path / "override.csv"
        out.unlink()
        assert main(["run", "--config", str(config), "--out", str(override)]) == 0
        assert override.exists() and not out.exists()
        assert f"wrote 2 rows to {override}" in capsys.readouterr().out

    def test_run_without_out_prints_csv(self, tmp_path, capsys):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps(CUSTOM_BASE))
        assert main(["run", "--config", str(config)]) == 0
        printed = capsys.readouterr().out
        lines = printed.splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 3
        # the same bytes as the file that --out writes
        out = tmp_path / "rows.csv"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        assert printed.encode() == out.read_bytes()

    def test_validation_error_exit_code(self, tmp_path, capsys):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({**CUSTOM_BASE, "oops": True}))
        assert main(["run", "--config", str(config)]) == 1
        assert "unknown keys" in capsys.readouterr().err
        config.write_text('{"mode": "table2", "seed": 1, "seed": 9}')
        assert main(["run", "--config", str(config)]) == 1
        assert "validation error: duplicate keys: seed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override, message",
        [
            ({"n_rounds": "100"}, "n_rounds: must be an integer"),
            ({"workers": 2.5}, "workers: must be an integer"),
            ({"distance_start": "200"}, "distance_start: must be a number"),
            ({"delta_list": "0"}, "delta_list: must be a list"),
            ({"lambda_list": [True]}, "lambda_list: must be a list of numbers"),
            ({"seed": 1.5}, "seed: must be an integer"),
        ],
        ids=["n_rounds-str", "workers-float", "distance_start-str", "delta_list-str",
             "lambda_list-bool", "seed-float"],
    )
    def test_mistyped_value_is_a_validation_error(self, tmp_path, capsys, override, message):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({**CUSTOM_BASE, **override}))
        assert main(["run", "--config", str(config)]) == 1
        assert f"validation error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override, message",
        [
            ({"delta_list": [math.nan]}, "delta_list: must be a list of numbers, got [nan]"),
            ({"distance_stop": math.inf}, "distance_stop: must be a number, got inf"),
            ({"distance_start": -math.inf}, "distance_start: must be a number, got -inf"),
            ({"lambda_list": [10, math.inf]}, "lambda_list: must be a list of numbers"),
            ({"e_d_list": [math.nan]}, "e_d_list: must be a list of numbers, got [nan]"),
            ({"mu_a": math.nan}, "mu_a: must be a number, got nan"),
        ],
        ids=["delta-nan", "stop-inf", "start-minus-inf", "lambda-inf", "e_d-nan", "mu_a-nan"],
    )
    def test_non_finite_value_is_a_validation_error(
        self, tmp_path, capsys, monkeypatch, override, message
    ):
        # Python's json reads and writes NaN, Infinity and -Infinity; JSON
        # itself has no such numbers ("inf" is the unbounded interval).
        def unreachable(*args, **kwargs):
            raise AssertionError("a point was evaluated")

        monkeypatch.setattr(mpqkd.sweep, "optimize_intensities", unreachable)
        config = tmp_path / "sweep.json"
        spec = {**CUSTOM_BASE, "methods": ["OI", "fixed-intensity"], "mu_a": 0.5, "mu_b": 0.5}
        config.write_text(json.dumps({**spec, **override}))
        for command in ("run", "verify"):
            assert main([command, "--config", str(config)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"validation error: {message}" in captured.err

    @pytest.mark.parametrize(
        "command, seed, env_seed, message",
        [
            ("run", -1, None, "seed: must be >= 0"),
            ("verify", -1, None, "seed: must be >= 0"),
            ("run", 5, "-3", "seed: must be >= 0"),
            ("run", 5, "abc", "MPQKD_SEED: must be an integer, got 'abc'"),
        ],
        ids=["run-negative", "verify-negative", "env-negative", "env-not-integer"],
    )
    def test_bad_seed_is_a_validation_error(
        self, tmp_path, capsys, monkeypatch, command, seed, env_seed, message
    ):
        def unreachable(*args, **kwargs):
            raise AssertionError("a point was evaluated")

        monkeypatch.setattr(mpqkd.sweep, "optimize_intensities", unreachable)
        monkeypatch.setattr(mpqkd.sweep, "simulate_rounds", unreachable)
        if env_seed is None:
            monkeypatch.delenv("MPQKD_SEED", raising=False)
        else:
            monkeypatch.setenv("MPQKD_SEED", env_seed)
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({**CUSTOM_BASE, "seed": seed}))
        assert main([command, "--config", str(config)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"validation error: {message}" in captured.err

    @pytest.mark.parametrize(
        "command, spec",
        [
            ("run", {"mode": "fig4", "distance_start": 700}),
            ("run", {**CUSTOM_BASE, "distance_start": 100, "distance_stop": 200,
                     "delta_list": [300]}),
            ("run", {**CUSTOM_BASE, "distance_start": 100, "distance_stop": 200,
                     "delta_list": [0, 300]}),
            ("verify", {**CUSTOM_BASE, "distance_start": 100, "distance_stop": 200,
                        "delta_list": [300]}),
            ("verify", {**CUSTOM_BASE, "distance_start": 100, "distance_stop": 200,
                        "delta_list": [0, 10, 300]}),
        ],
        ids=["fig4-past-stop", "custom-gap-too-wide", "custom-one-gap-too-wide", "verify",
             "verify-third-gap-too-wide"],
    )
    def test_empty_distance_grid_is_a_validation_error(
        self, tmp_path, capsys, monkeypatch, command, spec
    ):
        def unreachable(*args, **kwargs):
            raise AssertionError("a point was evaluated")

        monkeypatch.setattr(mpqkd.sweep, "optimize_intensities", unreachable)
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps(spec))
        assert main([command, "--config", str(config)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "validation error: distance grid: no total in" in captured.err

    def test_io_error_exit_code(self, tmp_path, capsys):
        config = tmp_path / "sweep.json"
        config.write_text(
            json.dumps({**CUSTOM_BASE, "out": str(tmp_path / "no_dir" / "x.csv")})
        )
        assert main(["run", "--config", str(config)]) == 2

    def test_verify_exit_code_on_success(self, tmp_path, capsys):
        config = tmp_path / "sweep.json"
        config.write_text(
            json.dumps(
                {
                    **CUSTOM_BASE,
                    "distance_start": 120,
                    "distance_stop": 120,
                    "delta_list": [0],
                    "n_rounds": 200_000,
                }
            )
        )
        assert main(["verify", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        assert "checks passed" in out

    def test_verify_reports_a_failed_check(self, tmp_path, capsys):
        # one round makes no pair: the r_s check fails with deviation inf,
        # and verify reports it and exits 3 rather than raise
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({**CUSTOM_BASE, "delta_list": [0], "n_rounds": 1}))
        assert main(["verify", "--config", str(config)]) == 3
        lines = capsys.readouterr().out.splitlines()
        assert "FAIL point0(total=200,gap=0,lam=100):r_s (deviation=inf)" in lines
        assert lines[-1].endswith("/5 checks passed")

    def test_missing_lp_core_is_an_environment_error(self, tmp_path, capsys, monkeypatch):
        # a scipy without the HiGHS core: one line on stderr and code 4, not
        # a traceback under the validation-error code
        monkeypatch.setitem(sys.modules, "scipy.optimize._highspy._core", None)
        mpqkd.decoy.load_highs.cache_clear()
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({**CUSTOM_BASE, "n_rounds": 1_000}))
        assert main(["verify", "--config", str(config)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("environment error: decoy LPs need scipy>=1.15")

    def test_optimize_rejects_non_finite_arm(self, capsys):
        assert main(["optimize", "--la", "nan", "--delta", "1", "--lambda", "inf"]) == 1
        assert "arm length must be finite and > 0 km, got nan" in capsys.readouterr().err

    def test_optimize_rejects_transmittance_underflow(self, capsys):
        assert main(["optimize", "--la", "20000", "--delta", "1", "--lambda", "100"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "validation error: arm transmittance underflows to 0 at arm length 20000.0 km" in (
            captured.err
        )

    def test_run_rejects_transmittance_underflow_before_the_pool(
        self, tmp_path, capsys, monkeypatch
    ):
        # 40,000 km totals put 20,000 km on each arm; the two problems would
        # go to a 2-worker pool, which must not start
        starts = []

        class FakePool:
            def __init__(self, max_workers):
                starts.append(max_workers)

        monkeypatch.setattr(mpqkd.sweep, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(mpqkd.sweep, "_cpu_count", lambda: 2)
        config = tmp_path / "sweep.json"
        spec = {**CUSTOM_BASE, "distance_start": 40_000, "distance_stop": 40_010, "delta_list": [0]}
        config.write_text(json.dumps(spec))
        assert main(["run", "--config", str(config), "--workers", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "validation error: arm transmittance underflows to 0" in captured.err
        assert starts == []

    def test_optimize_rejects_unparsable_interval(self, capsys):
        assert main(["optimize", "--la", "100", "--delta", "1", "--lambda", "abc"]) == 1
        assert "cannot parse pairing interval 'abc'" in capsys.readouterr().err

    def test_installed_entry_point(self, tmp_path):
        # the child finds the package this process imported, installed or not
        env = dict(os.environ)
        package_root = os.path.dirname(os.path.dirname(mpqkd.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "mpqkd.cli", "optimize", "--la", "50", "--delta", "4", "--lambda", "1"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)["rate"] > 0
