"""Out-of-program tracing for the benchmark.

The tracer replaces public functions of the ``mpqkd`` modules at the names
their callers look them up (``mpqkd.optimize.key_rate`` is what
``OptimizationProblem.rate`` calls, ``mpqkd.sweep.pair_clicks`` is what
``verify_oracles`` calls, and so on) and restores them afterwards.  Nothing
inside ``src/`` changes.

Two kinds of wrapper exist:

* a *span* records name, start, end and its parent span in memory; self
  time is computed afterwards as the span's duration minus the time its
  child spans and leaf calls cover;
* a *leaf* is a hot scalar function (``key_rate``, ``click_prob_given_photons``)
  called up to ~10^5 times per operation.  Recording a span per call would
  cost more memory than the workload itself, so a leaf only adds its call
  count and busy time to the innermost open span and to a per-name total.

Worker processes forked by a process pool inherit the wrappers, but their
spans stay in the worker and are not collected: a workload that fans out
reports parent-side metrics only.
"""
from __future__ import annotations

import statistics
import sys
from time import perf_counter

import numpy as np

import mpqkd.cli
import mpqkd.decoy
import mpqkd.model
import mpqkd.optimize
import mpqkd.sweep

KEY_RATE = "model.key_rate"
CLICK_PROB = "model.click_prob_given_photons"


class Span:
    __slots__ = ("name", "parent", "start", "end", "leaf_s", "leaf_calls")

    def __init__(self, name: str, parent: int, start: float) -> None:
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.leaf_s = 0.0
        self.leaf_calls = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans and counters of one traced iteration of a workload body."""

    def __init__(self) -> None:
        self._originals: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        # Leaf wrappers keep references to these totals; reset zeroes them.
        self.leaves: dict[str, list[float]] = {KEY_RATE: [0, 0.0], CLICK_PROB: [0, 0.0]}
        self.reset()

    # -- recording -------------------------------------------------------

    def reset(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._outside = Span("outside", -1, 0.0)  # absorbs leaf calls made outside any span
        self.top = self._outside
        for total in self.leaves.values():
            total[:] = [0, 0.0]
        self.counts: dict[str, float] = {}

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.top = Span(name, parent, perf_counter())
        self.spans.append(self.top)
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = perf_counter()
        self._stack.pop()
        self.top = self.spans[self._stack[-1]] if self._stack else self._outside

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def span(self, name: str, fn, on_result=None):
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def leaf(self, name: str, fn):
        # Kept minimal: click_prob_given_photons itself takes under 1 us.  A
        # call that raises is not counted; it fails the operation anyway.
        total = self.leaves[name]
        tracer = self

        def traced(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            elapsed = perf_counter() - start
            total[0] += 1
            total[1] += elapsed
            top = tracer.top
            top.leaf_s += elapsed
            top.leaf_calls += 1
            return result

        return traced

    # -- installation ----------------------------------------------------

    def _replace(self, module, attr: str, make) -> None:
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        self._originals.append((module, attr, original))
        setattr(module, attr, make(original))

    def install(self) -> None:
        """Wrap every traced entry point at the name its caller uses."""
        sweep, decoy = mpqkd.sweep, mpqkd.decoy
        self.missing = []
        for module in (mpqkd.optimize, sweep, mpqkd.model):
            self._replace(module, "key_rate", lambda f: self.leaf(KEY_RATE, f))
        self._replace(decoy, "click_prob_given_photons", lambda f: self.leaf(CLICK_PROB, f))
        self._replace(mpqkd.cli, "main", lambda f: self.span("cli.main", f))
        self._replace(mpqkd.cli, "run_sweep", lambda f: self.span("sweep.run", f))
        self._replace(
            mpqkd.cli, "verify_oracles", lambda f: self.span("sweep.verify_oracles", f)
        )
        self._replace(
            sweep,
            "optimize_intensities",
            lambda f: self.span("optimize", f, self._on_optimum),
        )
        self._replace(
            sweep,
            "simulate_rounds",
            lambda f: self.span("montecarlo.simulate", f, self._on_rounds),
        )
        self._replace(sweep, "pair_clicks", lambda f: self.span("montecarlo.pair", f))
        self._replace(sweep, "sift_and_map", lambda f: self.span("montecarlo.sift", f))
        self._replace(
            sweep,
            "estimate_statistics",
            lambda f: self.span("montecarlo.stats", f, self._on_stats),
        )
        for module in (sweep, decoy):
            self._replace(
                module, "expected_observables", lambda f: self.span("decoy.forward", f)
            )
            self._replace(
                module, "bound_single_photon", lambda f: self.span("decoy.bound", f)
            )
        self._replace(decoy, "linprog", lambda f: self.span("decoy.lp", f))
        self._replace(sweep, "ProcessPoolExecutor", self._counting_pool)
        if self.missing:
            print(f"# trace: entry points not found: {', '.join(self.missing)}", file=sys.stderr)

    def uninstall(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    # -- result hooks (run after the span closed) ------------------------

    def _on_optimum(self, report) -> None:
        if report.r_star > 0.0 and not report.converged:
            self.count("optimize.nonconverged")

    def _on_rounds(self, rounds) -> None:
        columns = [v for v in vars(rounds).values() if isinstance(v, np.ndarray)]
        self.counts["montecarlo.bytes_per_round"] = float(sum(c.dtype.itemsize for c in columns))

    def _on_stats(self, stats) -> None:
        # The estimates carry the counts they were formed from.
        if stats.p_hat is not None:
            self.count("montecarlo.rounds", stats.p_hat.denominator)
            self.count("montecarlo.clicks", stats.p_hat.numerator)
        if stats.r_p_hat is not None:
            self.count("montecarlo.pairs", stats.r_p_hat.numerator)
        if stats.r_s_hat is not None:
            self.count("montecarlo.z_pairs", stats.r_s_hat.numerator)

    def _counting_pool(self, base):
        tracer = self

        class CountingPool(base):
            def __init__(self, *args, **kwargs):
                tracer.count("sweep.pool_starts")
                super().__init__(*args, **kwargs)

            def __enter__(self):
                self._span = tracer.open("sweep.pool")
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer.close(self._span)

            def map(self, fn, *iterables, **kwargs):
                iterables = [list(it) for it in iterables]
                tracer.count("sweep.pool_tasks", len(iterables[0]))
                return super().map(fn, *iterables, **kwargs)

        return CountingPool


# -- per-iteration summaries -------------------------------------------


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def summarize(tracer: Tracer) -> tuple[dict[str, float], dict[str, list[float]]]:
    """Per-iteration sums and ratios, plus the span durations that
    percentiles pool across iterations."""
    child_s = [0.0] * len(tracer.spans)
    for span in tracer.spans:
        if span.parent >= 0:
            child_s[span.parent] += span.duration
    busy: dict[str, float] = {}
    self_s: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    for index, span in enumerate(tracer.spans):
        busy[span.name] = busy.get(span.name, 0.0) + span.duration
        self_s[span.name] = (
            self_s.get(span.name, 0.0) + span.duration - child_s[index] - span.leaf_s
        )
        durations.setdefault(span.name, []).append(span.duration)
    # key_rate is the only leaf an optimizer call makes: its evaluations.
    evaluations = sum(span.leaf_calls for span in tracer.spans if span.name == "optimize")

    counts = tracer.counts
    key_rate_calls, key_rate_s = tracer.leaves[KEY_RATE]
    click_calls, click_s = tracer.leaves[CLICK_PROB]
    n_opt = len(durations.get("optimize", ()))
    rounds = counts.get("montecarlo.rounds", 0)
    clicks = counts.get("montecarlo.clicks", 0)
    pairs = counts.get("montecarlo.pairs", 0)
    pool_starts = counts.get("sweep.pool_starts", 0)
    sums = {
        "model.key_rate.calls": key_rate_calls,
        "model.key_rate.busy_s": key_rate_s,
        "model.click_prob_given_photons.calls": click_calls,
        "model.click_prob_given_photons.busy_s": click_s,
        "optimize.calls": n_opt,
        "optimize.evals_per_call": _ratio(evaluations, n_opt),
        "optimize.self_s": self_s.get("optimize", 0.0),
        "optimize.nonconverged": counts.get("optimize.nonconverged", 0),
        "sweep.run_s": busy.get("sweep.run", 0.0),
        "sweep.self_s": self_s.get("sweep.run", 0.0),
        "sweep.pool_s": busy.get("sweep.pool", 0.0),
        "sweep.csv_bytes": counts.get("sweep.csv_bytes", 0),
        "sweep.pool_starts": pool_starts,
        "sweep.tasks_per_pool": _ratio(counts.get("sweep.pool_tasks", 0), pool_starts),
        "sweep.verify_oracles_s": busy.get("sweep.verify_oracles", 0.0),
        "cli.main_s": busy.get("cli.main", 0.0),
        "cli.self_s": self_s.get("cli.main", 0.0),
        "montecarlo.rounds": rounds,
        "montecarlo.clicks": clicks,
        "montecarlo.pairs": pairs,
        "montecarlo.z_pairs": counts.get("montecarlo.z_pairs", 0),
        "montecarlo.pair_yield": _ratio(pairs, clicks),
        "montecarlo.simulate.s_per_1e6_rounds": _ratio(
            busy.get("montecarlo.simulate", 0.0) * 1e6, rounds
        ),
        "montecarlo.pair.us_per_pair": _ratio(busy.get("montecarlo.pair", 0.0) * 1e6, pairs),
        "montecarlo.sift.us_per_pair": _ratio(busy.get("montecarlo.sift", 0.0) * 1e6, pairs),
        "montecarlo.stats.busy_s": busy.get("montecarlo.stats", 0.0),
        "montecarlo.bytes_per_round": counts.get("montecarlo.bytes_per_round", 0.0),
        "decoy.forward.self_s": self_s.get("decoy.forward", 0.0),
        "decoy.lp.calls": len(durations.get("decoy.lp", ())),
        "decoy.lp.busy_s": busy.get("decoy.lp", 0.0),
    }
    return sums, durations


def _percentile_ms(samples: list[float], q: int) -> float:
    if not samples:
        return 0.0
    if len(samples) == 1:
        return samples[0] * 1e3
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1] * 1e3


def layer_metrics(
    iterations: list[tuple[dict[str, float], dict[str, list[float]]]],
) -> dict[str, float]:
    """Combine traced iterations: medians of sums, percentiles of pooled spans."""
    metrics = {
        name: statistics.median(sums[name] for sums, _ in iterations) for name in iterations[0][0]
    }
    pooled: dict[str, list[float]] = {}
    for _, durations in iterations:
        for name, values in durations.items():
            pooled.setdefault(name, []).extend(values)
    key_rate_calls = metrics["model.key_rate.calls"]
    metrics["model.key_rate.us_per_call"] = _ratio(
        metrics["model.key_rate.busy_s"] * 1e6, key_rate_calls
    )
    metrics["optimize.call_p50_ms"] = _percentile_ms(pooled.get("optimize", []), 50)
    metrics["optimize.call_p90_ms"] = _percentile_ms(pooled.get("optimize", []), 90)
    metrics["decoy.forward.ms_p50"] = _percentile_ms(pooled.get("decoy.forward", []), 50)
    metrics["decoy.forward.ms_p90"] = _percentile_ms(pooled.get("decoy.forward", []), 90)
    metrics["decoy.bound.ms_p50"] = _percentile_ms(pooled.get("decoy.bound", []), 50)
    return metrics
