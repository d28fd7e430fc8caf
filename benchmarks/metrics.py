"""Names, units and meaning of every metric the benchmark reports.

``BENCHMARK.json`` lists the same names and units; its schema has no field for
which end-to-end metric a per-layer metric should move, so that mapping lives
here, in PER_LAYER, and the smoke test keeps the two lists in step.

End-to-end metrics come from an untraced run.  An *operation* is the unit a
workload times (see ``workloads.py``); a *call* is one call of a public entry
point.  Their times are in seconds of the machine at reference speed (see
the calibration in ``run.py``).  Per-layer metrics come from a separate
traced run and are given per operation, so counts repeat exactly for a fixed
document set; their ``self_s`` values are unscaled wall seconds.
"""
from __future__ import annotations

from tracing import LAYERS

# name -> (unit, better, meaning)
END_TO_END = {
    "setup_s": ("s", "lower", "process start to first timed operation (imports, inputs, "
                "warm-up); median of several fresh processes"),
    "reps_per_s": ("1/s", "higher", "Monte Carlo replications per second at the stated n "
                   "(summed over n_grid on mdep-weak-error); passes through the call mix "
                   "on exact-queries, which samples nothing"),
    "calls_per_s": ("1/s", "higher", "entry-point calls per second"),
    "call_ms_p50": ("ms", "lower", "median latency of one entry-point call"),
    "call_ms_p90": ("ms", "lower", "90th-percentile latency of one entry-point call"),
    "peak_rss_mb": ("MB", "lower", "peak resident memory of the workload process"),
}
# failed_frac (failed / attempted calls) is carried by the result's "attempted"
# and "failed" fields: it is 0 on a correct run, and a metric with a relative
# bound must never be 0.

# span name for metric prefixes that differ from it
SPAN_OF = {"pmf.marginal_matrix": "pmf.MarkovChainSpec.marginal_matrix"}

# (metric prefix, end-to-end metric it should move, workload where it should move it)
SPANS = (
    ("simulate.generate", "reps_per_s",
     "markov-deviation (main share), markov-union-bound; a third of mdep-weak-error"),
    ("simulate.deviation_experiment", "reps_per_s", "markov-deviation"),
    ("pmf.marginal_matrix", "reps_per_s",
     "markov-deviation, markov-union-bound; 0 calls on mdep-weak-error (no change)"),
    ("pmf.JointPmf.marginal", "call_ms_p90", "exact-queries"),
    ("regression.fit_least_squares", "reps_per_s", "mdep-weak-error"),
    ("regression.weak_error", "reps_per_s", "mdep-weak-error"),
    ("regression.family_bias", "reps_per_s", "mdep-weak-error"),
    ("blocking.union_bound_check", "reps_per_s", "markov-union-bound"),
    ("mixing.markov_beta", "call_ms_p50",
     "exact-queries; once per experiment on markov-deviation, where it stays negligible"),
    ("mixing.beta_max", "call_ms_p50", "exact-queries"),
    ("coupling.generalized_berbee", "call_ms_p90", "exact-queries (couple sets the tail)"),
    ("coupling.verify_coupling", "call_ms_p90", "exact-queries (couple sets the tail)"),
    ("entropy.covering_number_exact", "call_ms_p50", "exact-queries"),
    ("entropy.FunctionFamily.values", "call_ms_p50", "exact-queries"),
    ("bounds.beta_deviation_bound", "call_ms_p50",
     "exact-queries; negligible on the Monte Carlo workloads (no change)"),
    ("bounds.weak_error_bound", "call_ms_p50", "exact-queries"),
    ("cli.main", "call_ms_p50, setup_s", "exact-queries"),
)

# name -> (unit, better, moves, on)
PER_LAYER = {}
for _prefix, _moves, _on in SPANS:
    PER_LAYER[f"{_prefix}.calls"] = ("count", "lower", _moves, _on)
    PER_LAYER[f"{_prefix}.self_s"] = ("s", "lower", _moves, _on)
PER_LAYER.update({
    "pmf.marginal_matrix.calls_per_experiment": (
        "count", "lower", "reps_per_s", "markov-deviation (1 is useful; R+1 at seed)"),
    "regression.fit_least_squares.ridge_frac": (
        "ratio", "lower", "reps_per_s", "mdep-weak-error (ridge retries per fit)"),
    "blocking.sampler_calls_per_rep": (
        "count", "lower", "reps_per_s", "markov-union-bound (1 is useful; 10 at seed)"),
    "coupling.extended_cells": (
        "count", "lower", "call_ms_p90", "exact-queries (computed cells per couple call)"),
    "cli.output_bytes": ("bytes", "lower", "call_ms_p50, setup_s", "exact-queries"),
})
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.calls"] = (
        "count", "lower", "reps_per_s, calls_per_s", "every workload that calls the layer")
    PER_LAYER[f"{_layer}.self_s"] = (
        "s", "lower", "reps_per_s, calls_per_s", "every workload that calls the layer")
PER_LAYER.update({
    "trace.reps_per_s.untraced": (
        "1/s", "higher", "reps_per_s", "the same operations as the traced run, untraced"),
    "trace.reps_per_s.traced": ("1/s", "higher", "reps_per_s", "the traced operations"),
    "trace.overhead_frac": ("ratio", "lower", "none: the cost of tracing itself",
                            "traced time / untraced time - 1 on the same operations"),
})

# Traffic claims about the seed revision, checked in every traced run and
# reported; a later revision may change them on purpose.
PREDICTIONS = (
    ("mdep-weak-error", "pmf.marginal_matrix.calls", 0),
    ("markov-union-bound", "blocking.sampler_calls_per_rep", 10),
)


def per_layer(summary: dict, counters: dict, ops: int, replications: int,
              ridge_fits: int) -> dict:
    """Per-operation values of every PER_LAYER metric except the trace.* ones.

    ``summary`` maps span names to [calls, self seconds] (``Tracer.summary``);
    ``counters`` are the workload's own call counters over the same operations.
    """
    def span(name):
        return summary.get(name, [0, 0.0])

    out = {}
    for prefix, _, _ in SPANS:
        calls, self_s = span(SPAN_OF.get(prefix, prefix))
        out[f"{prefix}.calls"] = calls / ops
        out[f"{prefix}.self_s"] = self_s / ops
    for layer in LAYERS:
        rows = [v for k, v in summary.items() if k.split(".", 1)[0] == layer]
        out[f"{layer}.calls"] = sum(r[0] for r in rows) / ops
        out[f"{layer}.self_s"] = sum(r[1] for r in rows) / ops

    def ratio(num, den):
        return num / den if den else 0.0

    experiments = counters["experiments"]
    out["pmf.marginal_matrix.calls_per_experiment"] = ratio(
        span(SPAN_OF["pmf.marginal_matrix"])[0], experiments)
    out["regression.fit_least_squares.ridge_frac"] = ratio(
        ridge_fits, span("regression.fit_least_squares")[0])
    out["blocking.sampler_calls_per_rep"] = ratio(
        counters["sampler_calls"], experiments * replications)
    out["coupling.extended_cells"] = ratio(counters["extended_cells"], counters["couple_calls"])
    out["cli.output_bytes"] = counters["output_bytes"] / ops
    return out
