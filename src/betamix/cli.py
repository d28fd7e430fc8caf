"""Command-line front end.

One executable, eight subcommands (beta, couple, partition, entropy, bound,
regress, simulate, verify), all file/stdout based.  Exit status 0 on success,
1 on domain or hypothesis violations (the message names the violated
inequality), 2 on I/O or parse failures.  Configs are validated before any
computation starts and outputs are written whole or not at all.

Every answer is one JSON document in the stdlib encoder's ``indent=2`` layout
(``partition`` writes compact JSON, ``simulate --format csv`` one CSV row per
report row), and its bytes are fixed by the config and the seed.  The library
returns values and result objects; this module lays out every document from
them, a joint in the layout ``config.joint_doc`` gives it.  The writer hands
each scalar and each container of scalars to the stdlib's C encoder, which the
stdlib uses only without ``indent``.  A 1-D float64 array, such as a joint's
flat probabilities, is written as the list of its floats would be, in the same
bytes: its +0.0 cells (most cells of a coupling's extended joint) as fixed
text, and only its other cells through the encoder.
``main(argv)`` may be called any number of times in one process: the argument
parser is built on the first call and every call parses into a fresh namespace.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import sys

import numpy as np

from . import bounds, config, coupling, entropy, mixing, regression, simulate
from .blocking import Z, m_steps_partition
from .errors import BetamixError, ConfigError, SizeError
from .pmf import CELL_CAP


_CONTAINERS = (dict, list, tuple, np.ndarray)


def _indented(value, pad=""):
    """What the stdlib's ``indent=2, default=float`` encoder writes for a value nested at ``pad``,
    a 1-D float64 array being written as the list of its floats.

    Each scalar and each container holding no container is one call to the C
    encoder: its item separator carries the newline and the next line's
    indentation.  An array's cells whose bits are +0.0 are the fixed text
    ``0.0``; its other cells go through one call to the C encoder, whose
    ``", "`` separator splits them, as no float's text holds it.  Dict keys
    must be strings.
    """
    if isinstance(value, dict):
        items, brackets = value.values(), "{}"
    elif isinstance(value, (list, tuple, np.ndarray)):
        if isinstance(value, np.ndarray) and (value.dtype != np.float64 or value.ndim != 1):
            raise TypeError(f"only a 1-D float64 array is written, got {value.dtype} of shape {value.shape}")
        items, brackets = value, "[]"
    else:
        return json.dumps(value, default=float)
    if not len(value):
        return brackets
    inner = pad + "  "
    if isinstance(value, np.ndarray):
        cells = ["0.0"] * len(value)
        nonzero = np.flatnonzero(value.view(np.uint64))
        for i, text in zip(nonzero.tolist(), json.dumps(value[nonzero].tolist())[1:-1].split(", ")):
            cells[i] = text
        body = (",\n" + inner).join(cells)
    elif not any(issubclass(kind, _CONTAINERS) for kind in set(map(type, items))):
        body = json.dumps(value, separators=(",\n" + inner, ": "), default=float)[1:-1]
    elif isinstance(value, dict):
        body = (",\n" + inner).join(json.dumps(key) + ": " + _indented(item, inner)
                                    for key, item in value.items())
    else:
        body = (",\n" + inner).join(_indented(item, inner) for item in value)
    return f"{brackets[0]}\n{inner}{body}\n{pad}{brackets[1]}"


def _emit(doc, output_path, compact=False):
    if compact:
        text = json.dumps(doc, separators=(",", ":"), default=float) + "\n"
    else:
        text = _indented(doc) + "\n"
    if output_path:
        with open(output_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _query(answer):
    """A subcommand that answers one config document with one JSON document."""
    def run(args) -> int:
        _emit(answer(config.load(args.config)), args.output)
        return 0
    return run


def _beta(doc) -> dict:
    source = doc.one_of(("chain", "joint", "process"))
    if source == "chain":
        chain = config.chain(doc.section("chain"))
        m, horizon = doc.get("m", config.integer, 1), doc.get("horizon", config.integer, mixing.HORIZON)
        return {"beta": mixing.markov_beta(chain, m, horizon=horizon), "m": m, "horizon": horizon}
    if source == "joint":
        return {"beta": mixing.beta_coefficient(config.joint(doc.section("joint")))}
    process, m = config.joint(doc.section("process")), doc.get("m", config.integer, 1)
    return {"beta_max": mixing.beta_max(process, m), "m": m}


def _couple(doc) -> dict:
    source = doc.one_of(("joint", "process"))
    original = config.joint(doc.section(source))
    couple = coupling.berbee_couple if source == "joint" else coupling.generalized_berbee
    result = couple(original)
    return {
        **config.joint_doc(result.extended_joint),
        "n_original": result.n_original,
        "starred_indices": list(result.starred_indices),
        "mismatch_probs": list(result.mismatch_probs),
        "verification": dataclasses.asdict(coupling.verify_coupling(result, original)),
    }


def _cmd_partition(args) -> int:
    part = m_steps_partition(args.n, args.m)
    if part.n > CELL_CAP:
        raise SizeError(f"partition of {part.n} indices is above the listing cap {CELL_CAP}")
    part.check()
    _emit([list(b) for b in part.blocks], args.output, compact=True)
    return 0


def _entropy(doc) -> dict:
    covers = {"exact_cover": entropy.covering_number_exact, "greedy_cover": entropy.covering_number_greedy}
    kind = doc.kind("entropy", tuple(covers) + config.ENTROPY_ESTIMATES, "sauer_shelah")
    r = doc.get("r", config.number)
    if kind in covers:
        return {"covering_number": covers[kind](doc.get("values", config.floats(None, None)), r), "r": r}
    return {"entropy": config.entropy_estimate(doc)(r), "r": r}


def _bound(doc) -> dict:
    params = config.params(doc.section("params"))
    kinds = ("indep_deviation", "beta_deviation", "weak_error", "subexp_rate", "subpoly_rate")
    kind = doc.kind("bound", kinds, "beta_deviation")
    if kind == "weak_error":
        bias, beta = doc.get("bias", config.number, 0.0), doc.get("beta_at_m", config.number, None)
        breakdown = bounds.weak_error_bound(params, bias, beta)
        return {**dataclasses.asdict(breakdown), "total": breakdown.total}
    if kind in ("subexp_rate", "subpoly_rate"):
        rate = bounds.subexp_rate if kind == "subexp_rate" else bounds.subpoly_rate
        return {"rate": rate(params, doc.get("C", config.number))}
    est, t = config.entropy_estimate(doc.section("entropy_spec")), doc.get("t", config.number)
    if kind == "indep_deviation":
        size = doc.get("size", config.integer, params.n)
        return {"bound": bounds.indep_deviation_bound(params, est, size, t)}
    return {"bound": bounds.beta_deviation_bound(params, est, t, doc.get("beta_at_m", config.number, None))}


def _regress(doc) -> dict:
    data = config.regression_data(doc)
    family = config.family(doc.section("family"), data.states)
    result = regression.fit_least_squares(data, family, doc.get("B", config.number))
    out = {"empirical_risk": result.empirical_risk, "ridge_used": result.ridge_used}
    if result.member_index is not None:
        out["member_index"] = result.member_index
    if result.coefficients is not None:
        out["coefficients"] = result.coefficients.tolist()
    return out


def _run_experiment(args) -> simulate.ExperimentReport:
    doc = config.load(args.config)
    kind = doc.kind("experiment", ("deviation", "weak_error"), "deviation")
    spec = config.generator(doc.section("generator"), args.seed)
    family = config.family(doc.section("family"), spec.states())
    params, replications = config.params(doc.section("params")), doc.get("replications", config.integer)
    if kind == "deviation":
        est = config.entropy_estimate(doc.section("entropy_spec"))
        t_grid = doc.get("t_grid", config.grid).tolist()
        return simulate.deviation_experiment(spec, family, params, est, t_grid, replications)
    truth = config.state_values(doc.section("truth"), spec.states())
    n_grid = doc.get("n_grid", lambda value: [config.integer(n) for n in config.grid(value).tolist()])
    return simulate.weak_error_experiment(spec, family, params, truth, n_grid, replications)


def _emit_report(report: simulate.ExperimentReport, output_path) -> None:
    _emit({"metadata": report.metadata, "rows": list(report.rows)}, output_path)


def _cmd_simulate(args) -> int:
    if args.format == "csv" and args.output is None:
        build_parser().error("simulate --format csv needs --output PATH")
    report = _run_experiment(args)
    if args.format == "csv":
        with open(args.output, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(report.rows[0]))
            writer.writeheader()
            writer.writerows(report.rows)
    else:
        _emit_report(report, args.output)
    return 0


def _cmd_verify(args) -> int:
    report = _run_experiment(args)
    _emit_report(report, args.output)
    if report.all_dominant:
        return 0
    row = next(row for row in report.rows if not row["dominant"])
    if "t" in row:
        rule = f"t={row['t']!r}: frequency + {Z:g}*stderr exceeds the bound"
    else:
        rule = f"n={row['n']}: weak_error exceeds bound_total + {Z:g}*stderr"
    sys.stderr.write(f"dominance violated at {rule}\n")
    return 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one argument parser, built on the first call.

    ``parse_args`` leaves it unchanged and returns a fresh namespace, so
    every call of ``main`` shares it.
    """
    parser = argparse.ArgumentParser(
        prog="betamix",
        description="Dependence coefficients, couplings, and deviation bounds on finite spaces.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, fn, needs_config=True):
        p = sub.add_parser(name)
        if needs_config:
            p.add_argument("config", help="path to a JSON config document")
        p.add_argument("--output", default=None)
        p.set_defaults(fn=fn)
        return p

    add("beta", _query(_beta))
    add("couple", _query(_couple))
    p = add("partition", _cmd_partition, needs_config=False)
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    add("entropy", _query(_entropy))
    add("bound", _query(_bound))
    add("regress", _query(_regress))
    simulate_parser = add("simulate", _cmd_simulate)
    simulate_parser.add_argument("--format", choices=("json", "csv"), default="json")
    for p in (simulate_parser, add("verify", _cmd_verify)):
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except BetamixError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc!r}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
