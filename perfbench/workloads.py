"""Set-up, execution and references of the four workloads.

A workload sets itself up (``setup``: import of ``repro``, model
builds, one warm-up query per engine and model, cache clear), executes
queries of its stream one at a time (``execute``, a closed loop with a
single client) and computes the reference answer of a query outside
any timed region (``reference``).

Modules of ``repro`` and NumPy are imported inside ``setup``, never at
module level, so that their import is part of the measured set-up.
"""

from __future__ import annotations

import hashlib
import os
import re
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import streams
from streams import Query

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: An in-process operation slower than this counts as timed out; a CLI
#: process is killed after it.
OP_TIMEOUT_S = 120.0

#: ``large-models`` runs under this address-space limit, so a runaway
#: allocation fails the same way on a small and on a large machine.
LARGE_MEMORY_BUDGET = 4 * 2 ** 30

#: Monte-Carlo reference for the virus model, where no a-priori bounded
#: engine fits in memory: paths, confidence level, generator seed.
MC_SAMPLES = 4000
MC_CONFIDENCE = 0.999
MC_SEED = 2002

#: State whose grid answer is checked: three steps from the goal
#: corner, where the P3 probability is well away from 0.
GRID_STATE = 96 * 100 + 96


@dataclass
class Answer:
    """What one operation returned, before it is judged."""
    kind: str                       # ok | refused | crashed | timeout
    values: object = None           # (cells, checked states) array
    digest: str = ""                # hash of the full raw answer
    exit_code: Optional[int] = None
    intervals: object = None        # certified (lower, upper) arrays
    detail: str = ""
    spans: Optional[list] = None    # spans of a traced CLI child


def _digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def _classify(exc: BaseException) -> str:
    from repro.errors import BudgetExhaustedError, PreflightError
    if isinstance(exc, (PreflightError, BudgetExhaustedError)):
        return "refused"
    return "crashed"


def make_engine(engine: str, knob):
    """The engine object for a query knob (``None`` = checker default)."""
    from repro.algorithms import (DiscretizationEngine, ErlangEngine,
                                  SericolaEngine)
    if knob is None:
        return None if engine == "sericola" else engine
    if engine == "sericola":
        return SericolaEngine(epsilon=knob)
    if engine == "erlang":
        return ErlangEngine(phases=int(knob))
    return DiscretizationEngine(step=knob)


class Workload:
    name = ""
    memory_budget: Optional[int] = None
    #: Every operation starts from empty joint caches (they are cleared
    #: before each one, not only at the start of a round).
    independent_ops = False
    #: Fewest rounds of a ``--trace 0`` run, whatever ``--seconds`` says.
    min_rounds = 1

    def __init__(self):
        self.timings: Dict[str, float] = {}
        self._references: Dict[tuple, Tuple[object, object]] = {}

    # -- set-up -------------------------------------------------------------

    def setup(self) -> None:
        start = time.perf_counter()
        import repro  # noqa: F401  (the measured import)
        import repro.algorithms
        self.timings["import_s"] = time.perf_counter() - start
        start = time.perf_counter()
        self.build()
        self.timings["build_s"] = time.perf_counter() - start
        self.warm_up()
        repro.algorithms.clear_caches()

    def build(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    # -- operations ---------------------------------------------------------

    def execute(self, query: Query, traced: bool = False) -> Answer:
        raise NotImplementedError

    def _guarded(self, run) -> Answer:
        try:
            return run()
        except Exception as exc:  # the oracle classifies every outcome
            return Answer(_classify(exc),
                          detail=f"{type(exc).__name__}: {exc}"[:300])

    # -- references ---------------------------------------------------------

    def reference(self, query: Query):
        """``(values, accuracy)`` of the reference answer, cached per
        question (queries differing only in engine share it)."""
        key = (query.model, query.formula, query.times, query.rewards)
        if key not in self._references:
            self._references[key] = self.compute_reference(query)
        return self._references[key]

    def compute_reference(self, query: Query):
        raise NotImplementedError

    def tolerance(self, query: Query, reference, accuracy) -> List[float]:
        """Per-cell absolute tolerance of an answer."""
        return [streams.engine_tolerance(query.engine, query.knob,
                                         float(cell[0])) + accuracy
                for cell in reference]

    def expected_exit(self, query: Query, reference) -> Optional[int]:
        return None

    def kernels(self) -> Dict[str, str]:
        return {}


def _reference_checker(model):
    from repro import ModelChecker
    from repro.algorithms import SericolaEngine
    return ModelChecker(model, engine=SericolaEngine(
        epsilon=streams.REFERENCE_EPSILON),
        epsilon=streams.REFERENCE_EPSILON)


class _AdhocBase(Workload):
    """In-process workloads on the 9-state case-study model; every
    state's answer is checked, state 0 (the initial one) first."""
    knobs: Tuple[Tuple[str, float], ...] = ()

    def build(self) -> None:
        from repro import ModelChecker
        from repro.models import adhoc
        self.model = adhoc.adhoc_model()
        self.checkers = {(e, k): ModelChecker(self.model,
                                              engine=make_engine(e, k))
                         for e, k in self.knobs}

    def compute_reference(self, query: Query):
        import numpy as np
        checker = _reference_checker(self.model)
        phi, psi = streams.OPERANDS["adhoc"]
        grid = checker.until_probability_sweep(
            phi, psi, list(query.times), list(query.rewards))
        return (np.asarray(grid).reshape(-1, self.model.num_states),
                streams.REFERENCE_EPSILON)

    def kernels(self) -> Dict[str, str]:
        return {f"adhoc/{e}/{k:g}": str(c.engine.last_kernel)
                for (e, k), c in self.checkers.items()}


class AdhocChecks(_AdhocBase):
    name = "adhoc-checks"
    knobs = streams.ADHOC_KNOBS

    def warm_up(self) -> None:
        # The finest knob of each engine at the smallest catalogue
        # cell: the first discretisation call at a realistic size pays
        # ~1 s of lazy set-up that a tiny warm-up query does not.
        finest = {engine: knob for engine, knob in streams.ADHOC_KNOBS}
        t, r = streams.ADHOC_CELLS[0]
        for engine, knob in finest.items():
            self.checkers[(engine, knob)].check(
                Query("warm", "adhoc", engine, knob, (t,), (r,))
                .p3_formula())

    def execute(self, query: Query, traced: bool = False) -> Answer:
        def run():
            vector = self.checkers[(query.engine, query.knob)].check(
                query.p3_formula()).probabilities
            return Answer("ok", vector.reshape(1, -1),
                          _digest(vector.tobytes()))
        return self._guarded(run)


class AdhocSweeps(_AdhocBase):
    name = "adhoc-sweeps"
    independent_ops = True
    knobs = streams.SWEEP_KNOBS

    def warm_up(self) -> None:
        from repro.exec import ProcessShardExecutor
        phi, psi = streams.OPERANDS["adhoc"]
        times, rewards = list(streams.SWEEP_TIMES), list(
            streams.SWEEP_REWARDS)
        for checker in self.checkers.values():
            checker.until_probability_sweep(phi, psi, times, rewards)
        self.checkers[streams.SWEEP_KNOBS[1]].until_probability_sweep(
            phi, psi, times, rewards,
            executor=ProcessShardExecutor(max_workers=2))

    def execute(self, query: Query, traced: bool = False) -> Answer:
        from repro.exec import ProcessShardExecutor

        def run():
            phi, psi = streams.OPERANDS["adhoc"]
            executor = (ProcessShardExecutor(max_workers=2)
                        if query.mode == "sweep-process" else None)
            grid = self.checkers[(query.engine, query.knob)]\
                .until_probability_sweep(phi, psi, list(query.times),
                                         list(query.rewards),
                                         executor=executor)
            return Answer("ok", grid.reshape(-1, self.model.num_states),
                          _digest(grid.tobytes()))
        return self._guarded(run)


# -- cli-cold -----------------------------------------------------------------

_PROB_LINE = re.compile(r"^ [* ] (\S+)\s+([0-9.]+)$")
_INTERVAL_LINE = re.compile(
    r"^  (\S+)\s+\[([0-9.]+), ([0-9.]+)\]\s+(TRUE|FALSE|UNKNOWN)$")


def child_environment() -> Dict[str, str]:
    """The caller's environment with ``src`` importable; nothing else
    (BLAS threads included) is pinned."""
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


class CliCold(Workload):
    """One ``repro check`` process per operation, spawn to exit."""
    name = "cli-cold"
    independent_ops = True

    def build(self) -> None:
        from repro.models import adhoc
        self.model = adhoc.adhoc_model()

    def warm_up(self) -> None:
        self.execute(Query("warm", "adhoc", "sericola", None, (), (),
                           "cli", "Q2"))

    @staticmethod
    def argv(query: Query) -> List[str]:
        args = ["check", "--model", "adhoc", "--formula", query.formula,
                "--engine", query.engine]
        return args + (["--certify"] if query.mode == "certify" else [])

    def execute(self, query: Query, traced: bool = False) -> Answer:
        import numpy as np
        spans_path = None
        if traced:
            spans_path = OUT / f"child-{os.getpid()}.jsonl"
            command = [sys.executable, str(HERE / "cli_child.py"),
                       str(spans_path)] + self.argv(query)
        else:
            command = [sys.executable, "-m", "repro.cli"] + self.argv(query)
        try:
            done = subprocess.run(command, cwd=str(ROOT),
                                  env=child_environment(),
                                  capture_output=True, text=True,
                                  timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return Answer("timeout", detail=f"killed after {OP_TIMEOUT_S}s")
        spans = None
        if spans_path is not None and spans_path.exists():
            from tracing import load_spans
            spans = load_spans(str(spans_path))
            spans_path.unlink()
        digest = _digest(done.stdout.encode())
        if done.returncode == 2 and "cannot handle" in done.stderr:
            return Answer("refused", exit_code=2, digest=digest,
                          detail=done.stderr[-300:], spans=spans)
        if done.returncode not in (0, 1) or "Traceback" in done.stderr:
            return Answer("crashed", exit_code=done.returncode,
                          digest=digest, detail=done.stderr[-300:],
                          spans=spans)
        lines = done.stdout.splitlines()
        if query.mode == "certify":
            rows = [m.groups() for m in map(_INTERVAL_LINE.match, lines)
                    if m]
            lower = np.array([float(r[1]) for r in rows])
            upper = np.array([float(r[2]) for r in rows])
            values = ((lower + upper) / 2.0).reshape(1, -1)
            intervals = (lower, upper)
        else:
            rows = [m.groups() for m in map(_PROB_LINE.match, lines) if m]
            values = np.array([float(r[1]) for r in rows]).reshape(1, -1)
            intervals = None
        if values.size != self.model.num_states:
            return Answer("crashed", exit_code=done.returncode,
                          digest=digest,
                          detail="unparsable output: " + done.stdout[-300:],
                          spans=spans)
        return Answer("ok", values, digest, done.returncode, intervals,
                      spans=spans)

    def compute_reference(self, query: Query):
        import numpy as np
        from repro.models import adhoc
        checker = _reference_checker(self.model)
        vector = checker.check(getattr(adhoc, query.formula)).probabilities
        return np.asarray(vector).reshape(1, -1), streams.REFERENCE_EPSILON

    def tolerance(self, query: Query, reference, accuracy) -> List[float]:
        # Q1 and Q2 are not P3 formulas: the engine plays no part and
        # the checker's --epsilon (1e-9) bounds the error.
        engine = query.engine if query.formula == "Q3" else "sericola"
        rounding = streams.CLI_PRINT_ROUNDING
        return [streams.engine_tolerance(engine, None, float(cell[0]))
                + accuracy + rounding for cell in reference]

    def expected_exit(self, query: Query, reference) -> Optional[int]:
        return 0 if float(reference[0][0]) > streams.CLI_THRESHOLD else 1


# -- large-models ---------------------------------------------------------------

def _large_query(model: str, engine: str, knob) -> Query:
    _, t, r = streams.LARGE_MODELS[model]
    return Query(f"{model}-{engine}", model, engine, knob, (t,), (r,))


class LargeModels(Workload):
    name = "large-models"
    memory_budget = LARGE_MEMORY_BUDGET
    # A round takes 11-16 s on 2 vCPUs; with one round per run the
    # throughput of runs of the same code spread by up to a quarter.
    min_rounds = 2

    def build(self) -> None:
        from repro import ModelChecker
        from repro.models import workloads
        self.models = {
            name: eval(call, {}, vars(workloads))
            for name, (call, _, _) in streams.LARGE_MODELS.items()}
        self.checkers = {(m, e, k): ModelChecker(self.models[m],
                                                 engine=make_engine(e, k))
                         for m, e, k in streams.LARGE_KNOBS}
        self.checked = {
            name: GRID_STATE if name == "grid"
            else int(model.initial_distribution.argmax())
            for name, model in self.models.items()}

    def warm_up(self) -> None:
        from repro import ModelChecker
        from repro.models import workloads
        # One query per (engine, model family) on a small member of the
        # family: it pays the lazy first-call costs without a full
        # 10^5-state check per set-up.
        small = {"crowd": workloads.crowd_mrm(8, 64),
                 "virus": workloads.virus_mrm(60),
                 "grid": workloads.grid_mrm(8, 8)}
        for (model, engine, knob) in streams.LARGE_KNOBS:
            checker = ModelChecker(small[model],
                                   engine=make_engine(engine, knob))
            checker.check(_large_query(model, engine, knob).p3_formula())

    def execute(self, query: Query, traced: bool = False) -> Answer:
        from repro import ModelChecker
        key = (query.model, query.engine, query.knob)
        if key not in self.checkers:  # a probe outside the stream
            self.checkers[key] = ModelChecker(
                self.models[query.model],
                engine=make_engine(query.engine, query.knob))

        def run():
            checker = self.checkers[key]
            vector = checker.check(query.p3_formula()).probabilities
            state = self.checked[query.model]
            return Answer("ok", vector[[state]].reshape(1, 1),
                          _digest(vector.tobytes()))
        return self._guarded(run)

    def compute_reference(self, query: Query):
        import numpy as np
        model = self.models[query.model]
        state = self.checked[query.model]
        if query.model == "virus":
            from repro.logic.intervals import Interval
            from repro.sim import estimate_until_probability
            everything = set(range(model.num_states))
            phi = everything - set(model.states_with("outbreak"))
            psi = set(model.states_with("extinct"))
            estimate = estimate_until_probability(
                model, phi, psi, Interval(0.0, query.times[0]),
                Interval(0.0, query.rewards[0]), samples=MC_SAMPLES,
                seed=MC_SEED, initial_state=state,
                confidence=MC_CONFIDENCE)
            return np.array([[estimate.value]]), estimate.half_width
        vector = _reference_checker(model).check(
            query.p3_formula()).probabilities
        return (np.asarray(vector)[[state]].reshape(1, 1),
                streams.REFERENCE_EPSILON)

    def kernels(self) -> Dict[str, str]:
        return {f"{m}/{e}": str(c.engine.last_kernel)
                for (m, e, _), c in self.checkers.items()}


WORKLOADS = {cls.name: cls for cls in (CliCold, AdhocChecks, AdhocSweeps,
                                       LargeModels)}
