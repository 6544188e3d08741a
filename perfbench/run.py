"""End-to-end and per-layer benchmark of the cohrand command line.

    python3 perfbench/run.py --workload qubit_roof --seed 0 --seconds 20 --trace 0

Run from a checkout of the repository: the package is imported from its
``src/`` directory, next to this one. The benchmark drives
``cohrand.cli.main`` in process, in a closed loop from a single process
(the next call starts when the previous one has returned), repeating whole
rounds of the workload's calls until ``--seconds`` have passed. Every
output is checked against values computed apart from ``cohrand``
(``reference.py``).

With ``--trace 0`` the last stdout line reports the end-to-end metrics:

* ``ops_per_s``: CLI calls completed per second of call time;
* ``setup_s``: median over fresh interpreters, half started before the
  loop and half after it, of importing ``cohrand.cli``, writing the inputs
  and making the warm-up call;
* ``peak_rss_mb``: peak resident memory of this process after the loop.

With ``--trace 1`` the loop runs once untraced and once with span-recording
wrappers around the package's public functions (``tracing.py``), and the
last line reports the per-layer metrics, per call. Every run writes a run
record, and a traced run its spans, under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# BLAS and OpenMP pools are sized once, when numpy is first imported: cap
# them at the cores this process may use, at most 2, before that happens.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = str(min(2, len(os.sched_getaffinity(0))))
for _var in THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Fresh set-up interpreters per run, half before the loop and half after,
# so that the samples span the run rather than its first seconds.
SETUP_REPEATS = 6
SETUP_TIMEOUT_S = 120

END_TO_END_UNITS = {"ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics, per CLI call of the traced loop.
SELF_S = (
    "_kernels.roof_descent",
    "_kernels.toeplitz_gf2",
    "roof.optimize_roof",
    "roof.decomposition_from_isometry",
    "cli.main",
    "stateio.load_state",
    "states.validate_density",
    "states.random_density",
    "states.von_neumann_entropy",
    "measures.c_rel_ent",
    "measures.c_l1",
    "measures.r_qubit_analytic",
    "channels.random_incoherent_kraus",
    "channels.is_incoherent_kraus_set",
    "channels.apply_channel",
    "channels.apply_selective",
    "channels.check_convexity",
    "verify.run_property_suite",
    "rng.pipeline_compare",
    "rng.sample_measurement",
    "rng.toeplitz_extract",
    "distill.distill_simulate",
    "distill.binomial_outcome_distribution",
)
CALLS = (
    "_kernels.roof_descent",
    "states.validate_density",
    "measures.c_rel_ent",
    "channels.exact_measure_value",
)
TRACED = tuple(dict.fromkeys(SELF_S + CALLS))


def metric(name: str, what: str) -> str:
    """Metric name for a traced function: metric names must start with a
    letter or digit, so the module `_kernels` reports as `kernels`."""
    return f"{name.removeprefix('_')}.{what}"


PER_LAYER_UNITS = {
    **{metric(name, "self_s"): "s" for name in SELF_S},
    **{metric(name, "calls"): "count" for name in CALLS},
    "kernels.roof_descent.nonconverged": "count",
    "roof.restarts_at_best_ratio": "ratio",
    "roof.gap_above_exact_bits": "bits",
    "rng.toeplitz_extract.out_bits": "count",
    "trace.overhead_ratio": "ratio",
}


def call(cli, argv):
    """One CLI call with stdout captured: (return value or exception,
    stdout, seconds)."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except (Exception, SystemExit) as exc:  # reported as a failed call
        code = exc
    return code, buf.getvalue(), time.perf_counter() - start


def run_loop(cli, ops, seconds: float) -> dict:
    """Whole rounds of ops until `seconds` of wall time have passed."""
    busy = 0.0
    attempted = failed = 0
    problems, failures, gaps = [], [], []
    start = time.perf_counter()
    while attempted == 0 or time.perf_counter() - start < seconds:
        for op in ops:
            code, out, dt = call(cli, op.argv)
            verdict = workloads.check(op, code, out)
            busy += dt
            attempted += 1
            if verdict.failed:
                failed += 1
                failures.append(op.argv)
            problems.extend(f"{' '.join(op.argv)}: {p}" for p in verdict.problems)
            if verdict.gap_bits is not None:
                gaps.append(verdict.gap_bits)
    return {
        "attempted": attempted,
        "failed": failed,
        "busy_s": busy,
        "ops_per_s": attempted / busy,
        "problems": problems,
        "failures": failures,
        "gaps": gaps,
    }


def measure_setup(workload: str, seed: int, workdir: Path, warmup, repeats: int) -> tuple:
    """Wall times of `repeats` fresh interpreters that each import
    cohrand.cli, write the inputs and make the warm-up call, one after
    another."""
    times, problems = [], []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-child"]
    cmd += [workload, str(seed), str(workdir)]
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            problems.append(f"set-up interpreter exited {proc.returncode}: {proc.stderr[-500:]}")
            continue
        child = json.loads(proc.stdout)
        code = child["code"] if isinstance(child["code"], int) else RuntimeError(child["code"])
        verdict = workloads.check(warmup, code, child["stdout"])
        problems.extend(f"warm-up {' '.join(warmup.argv)}: {p}" for p in verdict.problems)
        if verdict.failed:
            problems.append(f"warm-up {' '.join(warmup.argv)} failed")
    return times, problems


def setup_child(workload: str, seed: int, workdir: str) -> int:
    """Body of one set-up interpreter; prints the warm-up call's result."""
    sys.path.insert(0, str(SRC))
    import cohrand.cli as cli

    _, warmup = workloads.build(workload, Path(workdir), seed)
    code, out, _ = call(cli, warmup.argv)
    json.dump({"code": code if isinstance(code, int) else repr(code), "stdout": out}, sys.stdout)
    return 0


def toeplitz_problems(toeplitz_gf2, op, seed: int) -> list:
    """Linearity, shift and column probes of the Toeplitz hash the pipeline
    binds, at the pipeline's own input and output lengths."""
    try:
        probes = reference.toeplitz_probes(
            toeplitz_gf2, op.expect["n_total"], op.expect["path_a_bits"], seed
        )
    except Exception as exc:  # reported as an incorrect output
        return [f"Toeplitz probes raised {type(exc).__name__}: {exc}"]
    return [f"Toeplitz {name} probe failed" for name, ok in probes.items() if not ok]


def per_layer_metrics(spans, plain: dict, traced: dict) -> dict:
    n = traced["attempted"]
    summary = tracing.summarize(spans)
    values = {}
    for name in SELF_S:
        values[metric(name, "self_s")] = summary.get(name, {}).get("self_s", 0.0) / n
    for name in CALLS:
        values[metric(name, "calls")] = summary.get(name, {}).get("calls", 0) / n
    descents = [s[4] for s in spans if s[0] == "_kernels.roof_descent"]
    values["kernels.roof_descent.nonconverged"] = sum(1 for _, ok in descents if not ok) / n
    at_best, restarts = tracing.restarts_at_best(spans)
    values["roof.restarts_at_best_ratio"] = at_best / restarts if restarts else 0.0
    values["roof.gap_above_exact_bits"] = (
        statistics.median(traced["gaps"]) if traced["gaps"] else 0.0
    )
    values["rng.toeplitz_extract.out_bits"] = (
        sum(s[4] for s in spans if s[0] == "rng.toeplitz_extract") / n
    )
    values["trace.overhead_ratio"] = plain["ops_per_s"] / traced["ops_per_s"]
    return values


def machine_record() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "machine": platform.machine(),
        "cpu": cpu,
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numba": importlib.util.find_spec("numba") is not None,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def run(args, workdir: Path) -> tuple:
    sys.path.insert(0, str(SRC))
    import cohrand.cli as cli
    import cohrand.rng

    ops, warmup = workloads.build(args.workload, workdir, args.seed)
    setup_args = (args.workload, args.seed, workdir, warmup, SETUP_REPEATS // 2)
    problems, setup_samples = [], []
    if not args.trace:
        setup_samples, problems = measure_setup(*setup_args)
    code, out, _ = call(cli, warmup.argv)
    verdict = workloads.check(warmup, code, out)
    problems += [f"warm-up {' '.join(warmup.argv)}: {p}" for p in verdict.problems]
    if verdict.failed:
        problems.append(f"warm-up {' '.join(warmup.argv)} failed")

    plain = run_loop(cli, ops, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    phases = [plain]
    if args.trace:
        tracer = tracing.Tracer(TRACED)
        try:
            traced = run_loop(cli, ops, args.seconds)
        finally:
            tracer.remove()
        phases.append(traced)
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
        metrics = per_layer_metrics(tracer.spans, plain, traced)
        units = PER_LAYER_UNITS
    else:
        after, after_problems = measure_setup(*setup_args)
        setup_samples += after
        problems += after_problems
        setup_s = statistics.median(setup_samples)
        metrics = {"ops_per_s": plain["ops_per_s"], "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
        units = END_TO_END_UNITS
    if args.workload == "extract_pipeline":
        problems += toeplitz_problems(cohrand.rng.toeplitz_gf2, ops[0], args.seed)
    for phase in phases:
        problems += phase["problems"]

    result = {
        "correct": not problems,
        "attempted": sum(p["attempted"] for p in phases),
        "failed": sum(p["failed"] for p in phases),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "finished": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "host": machine_record(),
        "result": result,
        "rounds_ops": len(ops),
        "busy_s": [p["busy_s"] for p in phases],
        "setup_samples_s": setup_samples,
        "failed_calls": sorted(
            {" ".join(argv).replace(f"{workdir}/", "") for p in phases for argv in p["failures"]}
        ),
        "problems": problems[:50],
    }
    return result, record


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv[:1] == ["--setup-child"]:
        workload, seed, workdir = argv[1:4]
        return setup_child(workload, int(seed), workdir)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cohrand" / "cli.py").is_file():
        print(f"error: no cohrand package under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workdir = OUT / f"inputs-{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        result, record = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    OUT.mkdir(exist_ok=True)
    record_path = OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
