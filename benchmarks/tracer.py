"""Spans at the layer boundaries of ``run_experiment``, recorded from outside the package.

``Tracer.install`` replaces each layer's entry points, in the namespace where
the layer above looks them up, with wrappers that record a span: name,
start, end, parent span and trial (row) id.  ``Tracer.uninstall`` puts the
originals back, so untraced rounds run the unmodified code.  Nothing under
``src/`` is edited.

Strategy rounds are timed with the public ``RunHook``: the wrapper passes a
hook that stamps the clock, a round is the time between two successive hook
calls, and the finish runs from the last hook call to the strategy's return.
Spans stay in memory and are written out when the run ends.

The one private name wrapped is ``harness._trial_row``, the per-row boundary
inside ``run_experiment``; it is looked up as a module global on every row.
"""

from __future__ import annotations

import functools
import math
import statistics
import time

#: Span name -> per-layer metric holding the median duration of those spans.
MEDIAN_METRICS = {
    "generators.generate": "generators.generate_ms",
    "adapters.build": "adapters.build_ms",
    "adapters.relax": "adapters.relax_ms",
    "adapters.round": "adapters.round_ms",
    "lp.primal_solve": "lp.primal_solve_ms",
    "lp.covering_solve": "lp.covering_solve_ms",
    "strategies.round": "strategies.round_ms",
    "strategies.finish": "strategies.finish_ms",
    "matching.bipartite": "matching.bipartite_ms",
    "matching.bitmask": "matching.bitmask_ms",
    "matching.set_packing": "matching.set_packing_ms",
    "matching.packing_bruteforce": "matching.packing_bruteforce_ms",
    "matroids.greedy": "matroids.greedy_ms",
}

#: Metrics that are counts per row.
COUNT_METRICS = {
    "adapters.build": "adapters.builds_per_trial",
    "adapters.relax": "adapters.relax_calls_per_trial",
    "strategies.round": "strategies.rounds_per_trial",
}

#: Every per-layer metric with its unit, in report order.
METRIC_UNITS = {
    "harness.trial_ms": "ms",
    "harness.trial_p90_ms": "ms",
    "harness.self_ms": "ms",
    **{metric: "ms" for metric in MEDIAN_METRICS.values()},
    **{metric: "1/trial" for metric in COUNT_METRICS.values()},
    "strategies.round_self_ms": "ms",
    "lp.busy_share": "share",
    "trace.overhead_share": "share",
}

_NAME, _START, _END, _PARENT, _TRIAL = range(5)


def lp_route(prob) -> str:
    """The route ``solve_primal`` takes on its default ``route="auto"``.

    Mirrors the documented rule of ``stochpack.lp``: problems with far more
    constraints than variables are solved through the covering dual.
    """
    covering = prob.n > 300 and prob.n > 3 * prob.m
    return "lp.covering_solve" if covering else "lp.primal_solve"


class Tracer:
    def __init__(self, harness):
        import stochpack.adapters as adapters
        import stochpack.matroids as matroids

        self.spans: list[list] = []
        self._stack: list[int] = []
        self._trial = -1
        span = self._wrap
        targets = [
            (harness, "_trial_row", self._wrap_row),
            (harness, "generate", span("generators.generate")),
            (harness, "gen_objective", span("generators.objective")),
            (harness, "adapter_for", span("adapters.build")),
            (harness, "run_adaptive", self._wrap_strategy),
            (harness, "run_nonadaptive", self._wrap_strategy),
            (harness, "run_baseline", span("strategies.baseline")),
            (adapters, "solve_primal", span(lambda prob, *a, **k: lp_route(prob))),
            (adapters, "max_weight_bipartite_matching", span("matching.bipartite")),
            (adapters, "max_weight_matching_bitmask", span("matching.bitmask")),
            (adapters, "max_weight_set_packing", span("matching.set_packing")),
            (adapters, "max_weight_packing_bruteforce", span("matching.packing_bruteforce")),
            (matroids, "greedy_max_weight", span("matroids.greedy")),
        ]
        methods = {
            "solve_relaxation": "adapters.relax",
            "round_integral": "adapters.round",
            "omniscient_ip": "adapters.omniscient_ip",
        }
        for cls in vars(adapters).values():
            if isinstance(cls, type) and issubclass(cls, adapters.ProblemAdapter):
                for method, name in methods.items():
                    if method in cls.__dict__:
                        targets.append((cls, method, span(name)))
        self._patches = [
            (owner, attr, getattr(owner, attr), make(getattr(owner, attr)))
            for owner, attr, make in targets
        ]

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # -- recording --------------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        idx = len(self.spans)
        span = [name, 0, 0, self._stack[-1] if self._stack else -1, self._trial]
        self.spans.append(span)
        self._stack.append(idx)
        span[_START] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            span[_END] = time.perf_counter_ns()
            self._stack.pop()

    def _wrap(self, name):
        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                label = name(*args, **kwargs) if callable(name) else name
                return self._call(label, fn, args, kwargs)

            return traced

        return make

    def _wrap_row(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._trial += 1
            return self._call("harness.row", fn, args, kwargs)

        return traced

    def _wrap_strategy(self, fn):
        @functools.wraps(fn)
        def traced(inst, obj, oracle, adapter, config, hook=None):
            marks: list[int] = []

            def stamp(t, pessimistic):
                marks.append(time.perf_counter_ns())
                if hook is not None:
                    hook(t, pessimistic)

            run = len(self.spans)
            result = self._call(
                "strategies.run", fn, (inst, obj, oracle, adapter, config), {"hook": stamp}
            )
            self._add_rounds(run, marks, config.T)
            return result

        return traced

    def _add_rounds(self, run: int, marks: list[int], T: int) -> None:
        """Round spans between hook calls 0..T, and the finish after the last call."""
        trial = self.spans[run][_TRIAL]
        phases = [("strategies.round", marks[t - 1], marks[t]) for t in range(1, T + 1)]
        phases.append(("strategies.finish", marks[-1], self.spans[run][_END]))
        first_new = len(self.spans)
        for name, start, end in phases:
            self.spans.append([name, start, end, run, trial])
        # re-parent the run's direct children to the round or finish around them
        phase = first_new
        for idx in range(run + 1, first_new):
            span = self.spans[idx]
            if span[_PARENT] != run:
                continue
            while phase < len(self.spans) and self.spans[phase][_END] < span[_START]:
                phase += 1
            if phase < len(self.spans) and self.spans[phase][_START] <= span[_START]:
                span[_PARENT] = phase

    # -- results ----------------------------------------------------------

    def self_times(self) -> list[int]:
        child = [0] * len(self.spans)
        for span in self.spans:
            if span[_PARENT] >= 0:
                child[span[_PARENT]] += span[_END] - span[_START]
        return [s[_END] - s[_START] - c for s, c in zip(self.spans, child)]

    def metrics(self, overhead_share: float) -> tuple[dict, list[str]]:
        """Per-layer metrics, and the names of those this run never entered."""
        durations: dict[str, list[int]] = {}
        selfs: dict[str, list[int]] = {}
        for span, own in zip(self.spans, self.self_times()):
            durations.setdefault(span[_NAME], []).append(span[_END] - span[_START])
            selfs.setdefault(span[_NAME], []).append(own)
        rows = durations.get("harness.row", [])
        if not rows:
            raise RuntimeError("the traced rounds recorded no rows")
        values: dict[str, float] = {}
        absent: list[str] = []

        def median_ms(metric, samples):
            if samples:
                values[metric] = statistics.median(samples) / 1e6
            else:
                values[metric] = 0.0
                absent.append(metric)

        median_ms("harness.trial_ms", rows)
        # a p90 is a tail only with at least ten rows beyond it
        if len(rows) - math.ceil(0.9 * len(rows)) >= 10:
            values["harness.trial_p90_ms"] = statistics.quantiles(rows, n=10)[-1] / 1e6
        else:
            values["harness.trial_p90_ms"] = 0.0
            absent.append("harness.trial_p90_ms")
        # a row's children are its generator, adapter-build and strategy spans
        median_ms("harness.self_ms", selfs["harness.row"])
        for name, metric in MEDIAN_METRICS.items():
            median_ms(metric, durations.get(name, []))
        median_ms("strategies.round_self_ms", selfs.get("strategies.round", []))
        for name, metric in COUNT_METRICS.items():
            values[metric] = len(durations.get(name, [])) / len(rows)
        lp_ns = sum(
            sum(durations.get(name, [])) for name in ("lp.primal_solve", "lp.covering_solve")
        )
        values["lp.busy_share"] = lp_ns / sum(rows)
        values["trace.overhead_share"] = overhead_share
        ordered = {metric: values[metric] for metric in METRIC_UNITS}
        return ordered, absent

    def write(self, path) -> None:
        """One line per span; times in ns from the first span's start."""
        origin = min((s[_START] for s in self.spans), default=0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,trial,name,start_ns,end_ns,self_ns\n")
            for idx, (span, own) in enumerate(zip(self.spans, self.self_times())):
                fh.write(
                    f"{idx},{span[_PARENT]},{span[_TRIAL]},{span[_NAME]},"
                    f"{span[_START] - origin},{span[_END] - origin},{own}\n"
                )
