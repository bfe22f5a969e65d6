"""Query catalogues, seeded query streams and answer tolerances.

Each workload has a fixed catalogue of queries.  A run is a sequence
of *rounds*; a round is the whole catalogue in a seeded order, with
exact repeats of a fixed number of seeded queries inserted at seeded
positions after the original (the joint caches are cleared at the
start of every round, so a repeat hits the cache only through the
stream's own reuse).  Runs under different seeds therefore do the same
work in a different order with different repeats, which keeps the
end-to-end figures comparable between seeds while the seed still
decides the inputs the program sees.

Nothing here imports the program; the module is pure Python so the
stream tests can check it cheaply.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Tuple

#: Engine knobs of the paper's Tables 2-4 used by ``adhoc-checks``:
#: Sericola epsilon, pseudo-Erlang phases k, discretisation step d.
#: Erlang below k = 256 is left out: its 5-20 ms checks would put the
#: median latency at the edge of a cost cluster, where it jumps by a
#: third from run to run; with these knobs and 3 repeats it sits in
#: the middle of the 140-180 ms cluster.
ADHOC_KNOBS: Tuple[Tuple[str, float], ...] = (
    ("sericola", 1e-4), ("sericola", 1e-6), ("sericola", 1e-8),
    ("erlang", 256), ("erlang", 1024),
    ("discretization", 1.0 / 32), ("discretization", 1.0 / 64),
)

#: (t, r) cells on the discretisation grid of the case study, t <= 24 h
#: and r <= 600 mAh (Q3 itself is (24, 600)).
ADHOC_CELLS: Tuple[Tuple[float, float], ...] = (
    (12.0, 300.0), (24.0, 300.0), (12.0, 600.0), (24.0, 600.0),
    (18.0, 450.0))

#: The (t, r) grid of one ``adhoc-sweeps`` operation.
SWEEP_TIMES: Tuple[float, ...] = (12.0, 18.0, 24.0)
SWEEP_REWARDS: Tuple[float, ...] = (300.0, 450.0, 600.0)
SWEEP_KNOBS: Tuple[Tuple[str, float], ...] = (
    ("sericola", 1e-8), ("erlang", 256), ("discretization", 1.0 / 32))

#: The case-study formulas of the paper (``repro check --model adhoc
#: --formula Q1|Q2|Q3``): all three are ``P>0.5`` formulas.
CLI_FORMULAS = ("Q1", "Q2", "Q3")
CLI_ENGINES = ("sericola", "erlang", "discretization")
CLI_THRESHOLD = 0.5

#: Until operands per model: (phi, psi).
OPERANDS: Dict[str, Tuple[str, str]] = {
    "adhoc": ("(call_idle | doze)", "call_initiated"),
    "crowd": ("true", "crowded"),
    "virus": ("!outbreak", "extinct"),
    "grid": ("true", "goal"),
}

#: Large models: (generator call, P3 time bound, P3 reward bound).
#: crowd_mrm(200, 500) has 10^5 states and lumps to 16 blocks;
#: virus_mrm(450) has 101,926 states and lumps only to 44,186 blocks
#: (sparse kernel); the 10^4-state grid does not lump at all.
LARGE_MODELS: Dict[str, Tuple[str, float, float]] = {
    "crowd": ("crowd_mrm(200, 500)", 2.0, 3.0),
    "virus": ("virus_mrm(450)", 1.0, 4.0),
    "grid": ("grid_mrm(100, 100)", 4.0, 8.0),
}

#: (model, engine, knob) of ``large-models``; knob ``None`` is the
#: checker's default engine.  Sericola, the default, is not run on
#: virus (it needs a 15 GiB buffer there, see ``PROBES``), and
#: discretisation only on crowd: on virus preflight (E004) refuses any
#: step above 1/280, on the grid one check takes ~45 s.
LARGE_KNOBS: Tuple[Tuple[str, str, Optional[float]], ...] = (
    ("crowd", "sericola", None), ("crowd", "erlang", 64),
    ("crowd", "discretization", 1.0 / 64),
    ("virus", "erlang", 8),
    ("grid", "sericola", None), ("grid", "erlang", 64),
)


@dataclass(frozen=True)
class Query:
    """One operation of a stream."""
    key: str
    model: str
    engine: str
    knob: Optional[float]
    times: Tuple[float, ...]
    rewards: Tuple[float, ...]
    mode: str = "check"      # check | sweep | sweep-process | cli | certify
    formula: str = ""        # Q1/Q2/Q3 for the CLI modes
    repeat: bool = False

    @property
    def is_p3(self) -> bool:
        """Whether the operation is a time- and reward-bounded until."""
        return self.mode in ("check", "certify") or (
            self.mode == "cli" and self.formula == "Q3")

    def p3_formula(self) -> str:
        phi, psi = OPERANDS[self.model]
        return (f"P>=0 [ {phi} U[0,{self.times[0]:g}]"
                f"[0,{self.rewards[0]:g}] {psi} ]")


def catalogue(workload: str) -> List[Query]:
    """The fixed query catalogue of *workload*."""
    if workload == "cli-cold":
        queries = [Query(f"{q}-{e}", "adhoc", e, None, (), (), "cli", q)
                   for q in CLI_FORMULAS for e in CLI_ENGINES]
        queries.append(Query("Q3-certify", "adhoc", "sericola", None, (),
                             (), "certify", "Q3"))
        return queries
    if workload == "adhoc-checks":
        return [Query(f"{e}-{k:g}-{t:g}-{r:g}", "adhoc", e, k, (t,), (r,))
                for e, k in ADHOC_KNOBS for t, r in ADHOC_CELLS]
    if workload == "adhoc-sweeps":
        return [Query(f"{e}-{mode}", "adhoc", e, k, SWEEP_TIMES,
                      SWEEP_REWARDS, mode)
                for e, k in SWEEP_KNOBS
                for mode in ("sweep", "sweep-process")
                if (e, mode) != ("discretization", "sweep-process")]
    if workload == "large-models":
        return [Query(f"{m}-{e}", m, e, k, (LARGE_MODELS[m][1],),
                      (LARGE_MODELS[m][2],))
                for m, e, k in LARGE_KNOBS]
    raise KeyError(f"unknown workload {workload!r}")


#: Exact repeats inserted per round, each of a different query.
#: ``large-models`` repeats every query once: a repeat there still pays
#: the reduction and the lumping pre-pass, and costs from 0.3 s (grid)
#: to 1.5 s (virus), so a seeded choice of which query repeats would
#: change the work of a round.  Sweeps have none: thread and process
#: sweeps of one engine share the joint cache cell by cell, so
#: ``adhoc-sweeps`` clears it before every operation instead.
REPEATS_PER_ROUND = {"cli-cold": 0, "adhoc-checks": 3, "adhoc-sweeps": 0,
                     "large-models": len(LARGE_KNOBS)}

#: Known problems kept out of the streams and run once, outside the
#: stream, in the traced run of a workload; their outcome and time are
#: per-layer metrics.  Sericola, the default engine, needs a 15 GiB
#: buffer on virus and fails with MemoryError under the memory budget.
#: The discretisation sweep across worker processes takes 0.3-10 s
#: from run to run (BLAS threads of two workers oversubscribe two
#: cores), which no end-to-end bound could hold.
PROBES: Dict[str, Tuple[Query, ...]] = {
    "large-models": (Query("virus-sericola", "virus", "sericola", None,
                           (LARGE_MODELS["virus"][1],),
                           (LARGE_MODELS["virus"][2],)),),
    "adhoc-sweeps": (Query("discretization-sweep-process", "adhoc",
                           "discretization", SWEEP_KNOBS[2][1],
                           SWEEP_TIMES, SWEEP_REWARDS, "sweep-process"),),
}

WORKLOADS = tuple(REPEATS_PER_ROUND)


#: Workloads whose rounds keep the catalogue's model order and shuffle
#: only within each model: the high-water mark of a 10^5-state model
#: depends on which model's arrays the allocator held just before.
MODEL_ORDERED = {"large-models"}


def _one_round(queries: List[Query], repeats: int,
               rng: random.Random) -> List[Query]:
    order = list(queries)
    rng.shuffle(order)
    for query in rng.sample(queries, repeats):
        after = order.index(query) + 1
        order.insert(rng.randrange(after, len(order) + 1),
                     replace(query, repeat=True))
    return order


def rounds(workload: str, seed: int) -> Iterator[List[Query]]:
    """The endless seeded stream of rounds of *workload*."""
    rng = random.Random(f"{workload}:{seed}")
    base = catalogue(workload)
    repeats = REPEATS_PER_ROUND[workload]
    while True:
        if workload not in MODEL_ORDERED:
            yield _one_round(base, repeats, rng)
            continue
        models = list(dict.fromkeys(q.model for q in base))
        share = repeats / len(base)
        order: List[Query] = []
        for model in models:
            group = [q for q in base if q.model == model]
            order += _one_round(group, round(share * len(group)), rng)
        yield order


# -- tolerances -------------------------------------------------------------

#: Table 3 of the paper: relative error (percent) of the pseudo-Erlang
#: value at the case-study point, per phase count k.
PAPER_ERLANG_REL_PCT = {1: 17.10, 2: 8.22, 4: 3.65, 8: 1.61, 16: 0.73,
                        32: 0.34, 64: 0.17, 128: 0.08, 256: 0.04,
                        512: 0.02, 1024: 0.01}
#: Table 4 of the paper: relative error (percent) of discretisation,
#: per 1/d.  Coarser steps scale linearly from d = 1/64, the method
#: being first order in d.
PAPER_DISC_REL_PCT = {64: 0.05, 128: 0.03, 256: 0.01, 512: 0.01}

#: The paper states the k and d errors at one (t, r) point; other
#: cells of the grid carry a different error constant, so an answer
#: may be off by this multiple of the stated figure.
SAFETY = 4.0

#: Engine defaults where the query uses none: the checker's Sericola
#: epsilon, and the engine classes' defaults.
DEFAULT_KNOB = {"sericola": 1e-9, "erlang": 64, "discretization": 1 / 64}

#: Reference and print accuracies.
REFERENCE_EPSILON = 1e-12
CLI_PRINT_ROUNDING = 5e-9


def engine_tolerance(engine: str, knob: Optional[float],
                     reference: float) -> float:
    """Absolute error an answer of *engine* at *knob* may carry, for a
    query whose reference value is *reference*."""
    knob = DEFAULT_KNOB[engine] if knob is None else knob
    if engine == "sericola":
        return float(knob)
    if engine == "erlang":
        pct = PAPER_ERLANG_REL_PCT[int(knob)]
    elif engine == "discretization":
        inverse = int(round(1.0 / knob))
        pct = PAPER_DISC_REL_PCT.get(
            inverse, PAPER_DISC_REL_PCT[64] * 64.0 / inverse)
    else:
        raise KeyError(engine)
    return SAFETY * pct / 100.0 * abs(reference)
