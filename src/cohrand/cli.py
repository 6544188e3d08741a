"""Batch command line interface.

Subcommands: measures, roof, verify, distill, sample, pipeline. All
structured output is JSON on stdout. Exit codes: 0 success, 1 a property
violation found by ``verify``, 2 a usage error, 3 a rejected input or a
failed computation, reported as one JSON object on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .channels import PropertyReport
from .distill import distill_exact, distill_simulate
from .errors import CohrandError
from .measures import (
    MeasureId,
    c_l1,
    c_rel_ent,
    coherence_concurrence_qubit,
    r_pure,
    r_qubit_analytic,
)
from .rng import pipeline_compare, sample_measurement
from .roof import RoofConfig, optimize_roof
from .stateio import format_stream, load_state, pure_to_dict
from .states import DensityMatrix, PureState, pure_state
from .verify import DEFAULT_MEASURES, run_property_suite


def _emit(data) -> None:
    # Encode in full before writing, so a NaN or inf (not JSON) leaves no
    # partial document on stdout.
    sys.stdout.write(json.dumps(data, indent=2, allow_nan=False) + "\n")


def _checked(parse, ok, rule):
    """An argparse type: ``parse`` the text, and reject a value failing
    ``ok`` by its ``rule``. Named after ``parse``, so text that does not
    parse reads "invalid int value" or "invalid float value"."""

    def check(text):
        value = parse(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    check.__name__ = parse.__name__
    return check


_unit_interval = _checked(float, lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
_positive_int = _checked(int, lambda v: v >= 1, "at least 1")
_seed = _checked(int, lambda v: v >= 0, "at least 0")


def _as_density(state) -> DensityMatrix:
    return state.projector() if isinstance(state, PureState) else state


def _load_pure(args) -> PureState:
    state = load_state(args.state)
    if not isinstance(state, PureState):
        raise ValueError(f"{args.command} needs a pure state file (amplitudes)")
    return state


def _cmd_measures(args) -> int:
    state = load_state(args.state)
    rho = _as_density(state)
    out = {
        "dim": rho.dim,
        "rel_ent": c_rel_ent(rho),
        "l1": c_l1(rho),
    }
    if isinstance(state, PureState):
        out["r_pure"] = r_pure(state)
    if rho.dim == 2:
        out["concurrence"] = coherence_concurrence_qubit(rho)
        out["qubit_analytic"] = r_qubit_analytic(rho)
    _emit(out)
    return 0


def _cmd_roof(args) -> int:
    rho = _as_density(load_state(args.state))
    result = optimize_roof(rho, RoofConfig(restarts=args.restarts, seed=args.seed))
    decomp = result.best_decomposition
    _emit(
        {
            "value": result.value,
            "converged": result.converged,
            "restarts_used": result.restarts_used,
            "decomposition": [
                {"p": float(p), "state": pure_to_dict(PureState(row))}
                for p, row in zip(decomp.weights, decomp.states)
            ],
        }
    )
    return 0


def _report_dict(report: PropertyReport) -> dict:
    return {
        "property": report.property_id.value,
        "passed": report.passed,
        "worst_slack": report.worst_slack,
        "witness": report.witness,
    }


def _cmd_verify(args) -> int:
    measures = tuple(MeasureId(m) for m in args.measures) if args.measures else DEFAULT_MEASURES
    reports = run_property_suite(measures=measures, samples=args.samples, seed=args.seed)
    _emit([_report_dict(r) for r in reports])
    return 0 if all(r.passed for r in reports) else 1


def _cmd_distill(args) -> int:
    alpha = math.sqrt(args.alpha_sq)
    beta = math.sqrt(1.0 - args.alpha_sq)
    psi = pure_state([alpha, beta])
    if args.exact:
        run = distill_exact(psi, args.n)
        _emit(
            {
                "mode": "exact",
                "n_copies": run.n_copies,
                "probabilities": list(run.probabilities),
                "subspace_dims": [len(idx) for idx in run.subspace_indices],
            }
        )
        return 0
    report = distill_simulate(psi, args.n, args.m, args.seed)
    counts = np.bincount(report.sampled_k, minlength=args.n + 1)
    _emit(
        {
            "mode": "simulate",
            "n_copies": report.n_copies,
            "n_groups": report.n_groups,
            "outcome_counts": {str(k): int(c) for k, c in enumerate(counts) if c},
            "total_log2_dim": report.total_log2_dim,
            "r": report.r,
            "yield": report.yield_rate,
            "input_randomness": report.input_randomness,
            "loss_actual": report.loss_actual,
            "loss_bound": report.loss_bound,
        }
    )
    return 0


def _cmd_sample(args) -> int:
    stream = sample_measurement(_load_pure(args), args.n, args.seed)
    if args.out:
        Path(args.out).write_text(format_stream(stream))
    else:
        sys.stdout.write(format_stream(stream))
    return 0


def _cmd_pipeline(args) -> int:
    cmp = pipeline_compare(
        _load_pure(args),
        n_groups=args.groups,
        group_n=args.group_n,
        seed=args.seed,
        entropy_mode=args.entropy,
    )
    _emit(dataclasses.asdict(cmp))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process; parse_args fills a fresh namespace each call."""
    parser = argparse.ArgumentParser(prog="cohrand")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measures", help="print all applicable coherence measures for a state")
    p.add_argument("state")
    p.set_defaults(func=_cmd_measures)

    roof = RoofConfig()
    p = sub.add_parser("roof", help="optimize the convex-roof randomness measure")
    p.add_argument("state")
    p.add_argument("--restarts", type=_positive_int, default=roof.restarts)
    p.add_argument("--seed", type=_seed, default=roof.seed)
    p.set_defaults(func=_cmd_roof)

    p = sub.add_parser("verify", help="run the coherence-measure property suite")
    p.add_argument("--samples", type=_positive_int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--measures",
        nargs="+",
        choices=[m.value for m in MeasureId],
        default=None,
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("distill", help="simulate the coherence distillation protocol")
    p.add_argument("--alpha-sq", type=_unit_interval, required=True)
    p.add_argument("--n", type=_positive_int, required=True, help="copies per group")
    p.add_argument("--m", type=_positive_int, default=1, help="number of groups")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--exact", action="store_true", help="state-vector mode (n <= 20)")
    p.set_defaults(func=_cmd_distill)

    p = sub.add_parser("sample", help="sample measurement outcomes of a pure state")
    p.add_argument("state")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("pipeline", help="compare extract-after-measure with distill-then-measure")
    p.add_argument("state")
    p.add_argument("--groups", type=_positive_int, default=200)
    p.add_argument("--group-n", type=_positive_int, default=50)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--entropy", choices=["shannon", "min"], default="shannon")
    p.set_defaults(func=_cmd_pipeline)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CohrandError, ValueError, OSError) as exc:
        error = {"error": type(exc).__name__, "message": str(exc), "command": args.command}
        sys.stderr.write(json.dumps(error) + "\n")
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
