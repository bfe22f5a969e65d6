"""The repository benchmark: one workload, one seed, one result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload adhoc-checks --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` sets the workload up, runs whole rounds of its seeded
stream for at least ``--seconds`` (and the workload's ``min_rounds``)
with tracing off, checks every answer against its reference and
reports the end-to-end metrics.  ``--trace 1`` runs the same rounds
untraced and then traced, checks that both passes gave bit-identical
answers, and reports the per-layer metrics.
The last line of standard output is the JSON result; the line before
it is the environment fingerprint.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import cpu_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-up samples per ``--trace 0`` run: this process's own set-up plus
#: fresh processes running the identical set-up; the median is reported.
SETUP_SAMPLES = 3

#: Per-layer metrics, reported by ``--trace 1`` runs.
LAYER_UNITS = {
    "import.s": "s", "cli.main.self_s": "s", "models.build.s": "s",
    "logic.parse.s": "s", "logic.parse.calls": "count",
    "mc.check.s": "s", "mc.check.self_s": "s", "mc.check.calls": "count",
    "mc.sweep.s": "s", "mc.sweep.calls": "count", "mc.reduce.s": "s",
    "mc.reduce.calls_per_p3": "count/op", "mc.prepass.s": "s",
    "analysis.preflight.s": "s", "analysis.preflight.calls": "count",
    "ctmc.lump.s": "s", "ctmc.lump.calls": "count",
    "ctmc.lump.applied_frac": "fraction",
    "ctmc.lump.blocks_per_state": "fraction",
    "algorithms.sericola.s": "s", "algorithms.sericola.self_s": "s",
    "algorithms.sericola.calls": "count",
    "algorithms.erlang.s": "s", "algorithms.erlang.self_s": "s",
    "algorithms.erlang.calls": "count",
    "algorithms.discretization.s": "s",
    "algorithms.discretization.self_s": "s",
    "algorithms.discretization.calls": "count",
    "algorithms.propagation_steps": "count",
    "algorithms.matvec_count": "count",
    "algorithms.cache.hit_ratio": "fraction",
    "algorithms.parallel.s": "s", "algorithms.parallel.tasks": "count",
    "kernels.matmat.s": "s", "kernels.matmat.calls": "count",
    "kernels.matmat.flops": "flop", "kernels.shift.s": "s",
    "kernels.shift.calls": "count", "kernels.shift.bytes": "byte",
    "kernels.scan.s": "s", "kernels.scan.calls": "count",
    "kernels.sericola_triangular.s": "s",
    "kernels.sericola_triangular.calls": "count",
    "kernels.make_operator.s": "s", "kernels.get_backend.s": "s",
    "numerics.fox_glynn.s": "s", "numerics.fox_glynn.calls": "count",
    "exec.run.s": "s", "exec.cells": "count", "exec.retries": "count",
    "exec.restarts": "count", "exec.cpu_per_wall": "fraction",
    "fail.wrong": "count", "fail.refused": "count",
    "fail.crashed": "count", "fail.timeout": "count",
    "fail.known_crashed": "count", "probe.s": "s",
    "probe.cpu_per_wall": "fraction",
    "trace.overhead_frac": "fraction",
    "trace.unattributed_frac": "fraction",
}

ENGINES = ("sericola", "erlang", "discretization")

#: Derived per-layer metrics and the spans they are computed from.
DERIVED_SPANS = {
    "models.build.s": ("models.build",),
    "mc.reduce.calls_per_p3": ("mc.reduce", "mc.check"),
    "ctmc.lump.applied_frac": ("mc.prepass",),
    "ctmc.lump.blocks_per_state": ("ctmc.lump",),
    "algorithms.propagation_steps": tuple(f"algorithms.{e}"
                                          for e in ENGINES),
    "algorithms.matvec_count": tuple(f"algorithms.{e}" for e in ENGINES),
    "algorithms.cache.hit_ratio": tuple(f"algorithms.{e}" for e in ENGINES),
    "exec.cpu_per_wall": ("exec.run",),
}


#: Per-layer metrics read straight off the spans: metric ``a.b.fig`` is
#: figure ``fig`` of span ``a.b``, and the executor counters are figures
#: of ``exec.run``.  Import time, outcomes, probes and the tracing
#: figures come from elsewhere.
SPAN_METRICS = {
    metric: tuple(metric.rsplit(".", 1)) for metric in LAYER_UNITS
    if metric not in DERIVED_SPANS and not metric.startswith(
        ("import.", "fail.", "probe.", "trace."))}
SPAN_METRICS.update({f"exec.{figure}": ("exec.run", figure)
                     for figure in ("cells", "retries", "restarts")})


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Record:
    """One executed operation."""

    def __init__(self, query, answer, seconds):
        self.query = query
        self.answer = answer
        self.seconds = seconds
        self.outcome = answer.kind
        self.error = None
        self.cpu = 0.0


def run_rounds(workload, rounds, tracer=None, first_op=0):
    """Execute *rounds* (lists of queries) in order; the joint caches
    are cleared at the start of each round.  With *tracer*, each
    operation runs under a root span ``op`` numbered from *first_op*."""
    import repro.algorithms
    records = []
    for queries in rounds:
        repro.algorithms.clear_caches()
        for query in queries:
            if workload.independent_ops:
                repro.algorithms.clear_caches()
            root = None
            if tracer is not None:
                tracer.op_id = first_op + len(records)
                root = tracer.begin("op")
            start = time.perf_counter()
            answer = workload.execute(query, traced=tracer is not None)
            seconds = time.perf_counter() - start
            if root is not None:
                tracer.end(root)
                _adopt_child_spans(tracer, root, answer)
            records.append(Record(query, answer, seconds))
    return records


def _adopt_child_spans(tracer, root, answer) -> None:
    """Graft the span tree of a traced CLI process under its ``op``
    span; the child's own root becomes a ``process`` span (the same
    monotonic clock runs in both processes)."""
    if not answer.spans:
        return
    offset = len(tracer.spans)
    for span in answer.spans:
        if span[3] < 0:
            span[0], span[3] = "process", root
        else:
            span[3] += offset
        span[4] = tracer.op_id
    tracer.spans.extend(answer.spans)


def traced_pass(workload, stream, seconds, tracer):
    """Whole rounds until at least *seconds* have passed, run untraced
    and again traced: operation by operation where operations are
    independent, else round by round, so that drift of the machine
    between the two passes hits both alike."""
    executed, records, traced = [], [], []
    start = time.perf_counter()
    for queries in stream:
        executed.append(queries)
        batches = ([[q] for q in queries] if workload.independent_ops
                   else [queries])
        for batch in batches:
            records += run_rounds(workload, [batch])
            tracer.active = True
            traced += run_rounds(workload, [batch], tracer, len(traced))
            tracer.active = False
        if time.perf_counter() - start >= seconds:
            break
    return executed, records, traced


def timed_pass(workload, stream, seconds):
    """Whole rounds until at least *seconds* of wall clock have passed
    and at least ``workload.min_rounds`` rounds have run.  Returns the
    rounds, the records and, per round, its number of operations, wall
    clock and CPU time."""
    import repro.algorithms
    executed = []
    records = []
    per_round = []
    start = time.perf_counter()
    for queries in stream:
        executed.append(queries)
        cpu, begun = cpu_seconds(), time.perf_counter()
        records += run_rounds(workload, [queries])
        per_round.append((len(queries), time.perf_counter() - begun,
                          cpu_seconds() - cpu))
        if (time.perf_counter() - start >= seconds
                and len(executed) >= workload.min_rounds):
            break
    repro.algorithms.clear_caches()
    return executed, records, per_round, _peak_rss_mb()


def judge(workload, records) -> None:
    """Classify every record as correct, wrong, refused, crashed or
    timed out, against references computed here, after timing."""
    import numpy as np

    import streams
    from workloads import OP_TIMEOUT_S
    for record in records:
        answer = record.answer
        if answer.kind == "ok" and record.seconds > OP_TIMEOUT_S:
            record.outcome = "timeout"
        if record.outcome != "ok":
            continue
        reference, accuracy = workload.reference(record.query)
        values = np.asarray(answer.values, dtype=float)
        if values.shape != reference.shape:
            record.outcome = "wrong"
            continue
        deviation = np.abs(values - reference).max(axis=1)
        record.error = float(deviation.max())
        tolerance = np.asarray(workload.tolerance(record.query, reference,
                                                  accuracy))
        ok = bool(np.all(deviation <= tolerance))
        if answer.intervals is not None:
            lower, upper = answer.intervals
            slack = streams.CLI_PRINT_ROUNDING
            ok = ok and bool(np.all(lower - slack <= reference[0])
                             and np.all(reference[0] <= upper + slack))
        expected = workload.expected_exit(record.query, reference)
        if expected is not None and answer.exit_code != expected:
            ok = False
        record.outcome = "correct" if ok else "wrong"


def _outcome_counts(records):
    counts = {"wrong": 0, "refused": 0, "crashed": 0, "timeout": 0}
    for record in records:
        if record.outcome in counts:
            counts[record.outcome] += 1
    return counts


def setup_samples(args, first: float):
    """*first* plus set-up times of fresh processes."""
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-only"],
            cwd=str(ROOT), capture_output=True, text=True, timeout=170)
        if done.returncode != 0:
            raise RuntimeError("set-up process failed: " + done.stderr[-500:])
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return samples


def end_to_end(records, per_round, rss, setup):
    """Throughput and CPU per operation are medians over the rounds of
    the run (every round does the same work), latency the median over
    its operations."""
    latencies = [r.seconds * 1000.0 for r in records]
    errors = [r.error for r in records if r.error is not None]
    rates, cpu_per_op, first = [], [], 0
    for count, wall, cpu in per_round:
        done = records[first:first + count]
        first += count
        rates.append(sum(1 for r in done if r.outcome == "correct") / wall)
        cpu_per_op.append(cpu * 1000.0 / count)
    values = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (statistics.median(rates), "1/s"),
        "latency_p50_ms": (statistics.median(latencies), "ms"),
        "cpu_ms_per_op": (statistics.median(cpu_per_op), "ms"),
        "peak_rss_mb": (rss, "MiB"),
        "max_abs_err": (max(errors) if errors else 0.0, "prob"),
    }
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()}


def per_layer(workload, spans, traced, untraced, missing, probes):
    """The per-layer metrics of a traced run.  Metrics computed from a
    span whose wrapper could not be installed are left out."""
    from tracing import (ATTRS, NAME, OP, TARGETS, descendants_named,
                         layer_stats, unattributed)
    stats = layer_stats(spans)

    def get(name, key):
        return float(stats[name][key]) if name in stats else 0.0

    def engine_sum(key):
        return sum(get(f"algorithms.{e}", key) for e in ENGINES)

    values = {metric: get(span, figure)
              for metric, (span, figure) in SPAN_METRICS.items()}
    cli = "import" in stats  # spans of traced CLI processes
    values["import.s"] = (get("import", "s") if cli
                          else workload.timings["import_s"])
    values["models.build.s"] = (get("models.build", "s") if cli
                                else workload.timings["build_s"])
    p3_ops = {i for i, r in enumerate(traced) if r.query.is_p3}
    p3_checks = sum(1 for s in spans
                    if s[NAME] == "mc.check" and s[OP] in p3_ops)
    values["mc.reduce.calls_per_p3"] = (
        descendants_named(spans, "mc.check", "mc.reduce", p3_ops)
        / p3_checks if p3_checks else 0.0)
    prepasses = get("mc.prepass", "calls")
    values["ctmc.lump.applied_frac"] = (
        get("mc.prepass", "applied") / prepasses if prepasses else 0.0)
    ratios = [s[ATTRS]["blocks"] / s[ATTRS]["states"] for s in spans
              if s[NAME] == "ctmc.lump" and s[ATTRS]
              and s[ATTRS].get("states")]
    values["ctmc.lump.blocks_per_state"] = (sum(ratios) / len(ratios)
                                            if ratios else 0.0)
    values["algorithms.propagation_steps"] = engine_sum("propagation_steps")
    values["algorithms.matvec_count"] = engine_sum("matvec_count")
    lookups = engine_sum("cache_hits") + engine_sum("cache_misses")
    values["algorithms.cache.hit_ratio"] = (
        engine_sum("cache_hits") / lookups if lookups else 0.0)
    values["exec.cpu_per_wall"] = (get("exec.run", "cpu_s")
                                   / get("exec.run", "s")
                                   if get("exec.run", "s") else 0.0)
    counts = _outcome_counts(untraced + traced)
    for outcome, count in counts.items():
        values[f"fail.{outcome}"] = count
    values["fail.known_crashed"] = sum(1 for p in probes
                                       if p.outcome == "crashed")
    probe_wall = sum(p.seconds for p in probes)
    values["probe.s"] = probe_wall
    values["probe.cpu_per_wall"] = (sum(p.cpu for p in probes) / probe_wall
                                    if probe_wall else 0.0)
    untraced_rate = len(untraced) / sum(r.seconds for r in untraced)
    traced_rate = len(traced) / sum(r.seconds for r in traced)
    values["trace.overhead_frac"] = 1.0 - traced_rate / untraced_rate
    values["trace.unattributed_frac"] = unattributed(spans, "op")

    lost = set()
    for module, path, span, _ in TARGETS:
        if f"{module}.{path}" in missing:
            lost.update([span] if isinstance(span, str) else
                        [f"algorithms.{e}" for e in ENGINES])
    for metric, (span, _) in SPAN_METRICS.items():
        if span in lost:
            values.pop(metric)
    for metric, needed in DERIVED_SPANS.items():
        if lost.intersection(needed):
            values.pop(metric)
    return {name: {"value": float(value), "unit": LAYER_UNITS[name]}
            for name, value in values.items()}


def fingerprint(args, workload):
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    threads = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS",
                                          "OMP_NUM_THREADS",
                                          "MKL_NUM_THREADS")
               if k in os.environ}
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or commit
    import importlib.util
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": threads or "unset (library default)",
        "numba": importlib.util.find_spec("numba") is not None,
        "kernels": workload.kernels(),
        "memory_budget_bytes": workload.memory_budget,
        "commit": commit,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up once, print the set-up "
                             "time and exit (the extra set-up samples of a "
                             "--trace 0 run)")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        return _fail(f"no program to measure: {SRC / 'repro'} is missing "
                     f"(run from the root of a checkout)")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    # Temporary files of the program (worker flight recorders) stay in
    # the checkout too.
    scratch = HERE / "out" / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(scratch)
    import streams
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    if workload.memory_budget is not None:
        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        limit = workload.memory_budget
        if hard != resource.RLIM_INFINITY:
            limit = min(limit, hard)
        resource.setrlimit(resource.RLIMIT_AS, (limit, hard))

    start = time.perf_counter()
    workload.setup()
    setup_s = time.perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    stream = streams.rounds(args.workload, args.seed)
    traced, spans, missing, probes = [], [], [], []
    if args.trace:
        import repro.algorithms
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.active = False
        executed, records, traced = traced_pass(workload, stream,
                                                args.seconds, tracer)
        missing = tracer.finish()
        spans = tracer.spans
        for query in streams.PROBES.get(args.workload, ()):
            repro.algorithms.clear_caches()
            cpu, start = cpu_seconds(), time.perf_counter()
            probes.append(Record(query, workload.execute(query),
                                 time.perf_counter() - start))
            probes[-1].cpu = cpu_seconds() - cpu
        tracer.dump(str(HERE / "out"
                        / f"trace-{args.workload}-{args.seed}.jsonl"))
    else:
        executed, records, per_round, rss = timed_pass(workload, stream,
                                                       args.seconds)
    # References are computed after all timing, with no span recorded.
    judge(workload, records + traced)
    mismatched = sum(1 for a, b in zip(records, traced)
                     if a.answer.digest != b.answer.digest)
    every = records + traced
    failed = sum(1 for r in every if r.outcome != "correct") + mismatched
    errors = {}  # largest error per catalogue query: who sets max_abs_err
    for record in every:
        if record.error is not None:
            errors[record.query.key] = max(errors.get(record.query.key, 0.0),
                                           record.error)
    setups = [setup_s]
    if args.trace:
        metrics = per_layer(workload, spans, traced, records, missing,
                            probes)
    else:
        setups = setup_samples(args, setup_s)
        metrics = end_to_end(records, per_round, rss, setups)
    print(json.dumps({"fingerprint": fingerprint(args, workload),
                      "setup_samples_s": setups,
                      "rounds": len(executed), "operations": len(records),
                      "bit_identical_mismatches": mismatched,
                      "missing_wrappers": missing,
                      "largest_errors": {
                          key: float(f"{error:.3g}") for key, error in
                          sorted(errors.items(), key=lambda kv: -kv[1])[:5]},
                      "probes": [f"{p.query.key}: {p.outcome} "
                                 f"{p.seconds:.3f}s {p.answer.detail[:120]}"
                                 for p in probes],
                      "failures": [f"{r.query.key}: {r.outcome} "
                                   f"{r.answer.detail[:200]}"
                                   for r in every
                                   if r.outcome != "correct"][:20]}))
    print(json.dumps({"correct": failed == 0, "attempted": len(every),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
