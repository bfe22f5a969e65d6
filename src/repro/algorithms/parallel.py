"""GIL-releasing threaded fan-out for independent engine queries.

The sweep API (:meth:`~repro.algorithms.base.JointEngine.\
joint_probability_sweep`) removes the redundancy *within* one
``(t, r)`` grid, but a workload still contains genuinely independent
computations: the distinct reduced models produced by
``until_reduction`` for different formulas, or the distinct
``r``-driven chain expansions of the pseudo-Erlang engine.  Those are
embarrassingly parallel, and the heavy inner loops -- scipy's sparse
matrix x dense block products and LAPACK's banded triangular solve --
release the GIL, so plain threads give real wall-clock parallelism
without pickling models across processes.

Design rules, enforced here so callers do not have to think about
them:

* **Deterministic ordering** -- results come back in task order
  whatever the completion order, and worker statistics are merged in
  task order too, so repeated runs are bit-identical.
* **Per-worker statistics** -- every task runs on a shallow *clone* of
  the engine with a private :class:`~repro.algorithms.cache.\
EngineStats`; the clones share the accuracy parameters (hence the
  result cache entries, the caches are lock-protected) but never race
  on counters.  After the join, the clones' counters are merged into
  ``engine.stats``.
* **Failure isolation** -- a raising worker does not poison the pool:
  its exception is wrapped in a :class:`~repro.errors.WorkerError`
  carrying the task index and label, not-yet-started tasks are
  cancelled, and one :class:`~repro.errors.ParallelExecutionError`
  with *every* failure attached is raised after the pool has drained
  (no thread is left running).
* **Deadlines** -- :func:`deadline_map` runs a fan-out against a
  wall-clock deadline and returns whatever completed, plus an explicit
  record of the tasks that did not, instead of raising.
* **`max_workers` knob** -- ``None`` picks ``min(cpu_count, 8,
  len(tasks))``; ``1`` (or a single task) degrades to a plain
  sequential loop with zero threading overhead.

For sweep workloads that need *crash* isolation rather than thread
isolation -- worker segfaults, OOM kills, hangs -- the process-based
executor in :mod:`repro.exec` builds on the same contracts
(``resolve_workers``, deadline bookkeeping, ``WorkerError`` /
``ParallelExecutionError``) and adds retries, circuit breaking and
checkpointed resume; see ``docs/EXECUTION.md``.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import (FIRST_EXCEPTION, ThreadPoolExecutor,
                                wait)
from typing import (Callable, Iterable, List, Optional, Sequence,
                    Tuple, TypeVar)

import numpy as np

from repro.errors import ParallelExecutionError, WorkerError
from repro.obs import OBS, REGISTRY

_T = TypeVar("_T")
_R = TypeVar("_R")

#: Upper bound on the default worker count; fan-outs are memory-bound
#: sparse kernels, so more threads than this rarely help.
DEFAULT_WORKER_CAP = 8


def remaining(deadline: Optional[float]) -> float:
    """Seconds left until *deadline* (an absolute ``time.monotonic()``
    timestamp); ``math.inf`` when there is no deadline.

    The single time-arithmetic point of the module: every deadline
    comparison is ``remaining(deadline) <= 0.0`` and every pool wait
    timeout is derived from the same value, so the slack cannot drift
    between call sites.
    """
    if deadline is None:
        return math.inf
    return deadline - time.monotonic()


def _record_deadline_missed(count: int) -> None:
    """Count tasks abandoned because their deadline passed.

    Recorded unconditionally (the registry is always on): a silent
    timeout is precisely the situation observability must not lose.
    """
    if count > 0:
        REGISTRY.counter("repro_deadline_missed_total").inc(count)


def _traced(function: Callable[[_T], _R],
            labels: Optional[Sequence[str]]
            ) -> Callable[[int, _T], _R]:
    """Wrap *function* for the fan-out: with observability enabled,
    each task runs inside a worker-labelled child span attached to the
    *calling* thread's current span (captured here, before any worker
    starts), so a sweep's tasks appear under the sweep span instead of
    as detached roots."""
    if not OBS.enabled:
        return lambda index, item: function(item)
    parent = OBS.tracer.current()

    def run(index: int, item: _T) -> _R:
        label = _label_of(labels, index) or f"task {index}"
        with OBS.tracer.span("worker", parent=parent, worker=label):
            return function(item)

    return run


def resolve_workers(max_workers: Optional[int], num_tasks: int) -> int:
    """The effective worker count for *num_tasks* tasks.

    ``None`` means ``min(cpu_count, DEFAULT_WORKER_CAP, num_tasks)``;
    explicit values are clipped to the task count (threads without
    work are never spawned).
    """
    if num_tasks <= 0:
        return 0
    if max_workers is None:
        available = os.cpu_count() or 1
        return max(1, min(available, DEFAULT_WORKER_CAP, num_tasks))
    return max(1, min(int(max_workers), num_tasks))


def _label_of(labels: Optional[Sequence[str]], index: int
              ) -> Optional[str]:
    if labels is None:
        return None
    try:
        return labels[index]
    except IndexError:
        return None


def threaded_map(function: Callable[[_T], _R],
                 items: Sequence[_T],
                 max_workers: Optional[int] = None,
                 labels: Optional[Sequence[str]] = None) -> List[_R]:
    """``[function(x) for x in items]`` on a thread pool, order kept.

    Falls back to a sequential loop when only one worker (or one item)
    is effective.  A raising task aborts the fan-out *cleanly*: tasks
    that have not started yet are cancelled, already-running tasks
    drain, and a single :class:`~repro.errors.ParallelExecutionError`
    is raised whose ``failures`` list holds one
    :class:`~repro.errors.WorkerError` (task index, optional *labels*
    entry, original exception) per failing task.  The sequential path
    raises the same wrapper so callers handle one exception shape.
    """
    items = list(items)
    workers = resolve_workers(max_workers, len(items))
    task = _traced(function, labels)
    if workers <= 1:
        results: List[_R] = []
        for index, item in enumerate(items):
            try:
                results.append(task(index, item))
            except Exception as exc:
                failure = WorkerError(index, exc,
                                      _label_of(labels, index))
                error = ParallelExecutionError([failure], len(items))
                raise error from exc
        return results
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(task, index, item)
                   for index, item in enumerate(items)]
        done, pending = wait(futures, return_when=FIRST_EXCEPTION)
        if any(f.exception() is not None for f in done):
            # Cancel everything that has not started; running tasks
            # drain when the pool context exits.
            for future in pending:
                future.cancel()
    failures = [WorkerError(index, future.exception(),
                            _label_of(labels, index))
                for index, future in enumerate(futures)
                if not future.cancelled()
                and future.exception() is not None]
    if failures:
        error = ParallelExecutionError(failures, len(items))
        raise error from failures[0].cause
    return [future.result() for future in futures]


def deadline_map(function: Callable[[_T], _R],
                 items: Sequence[_T],
                 deadline: Optional[float] = None,
                 max_workers: Optional[int] = None,
                 labels: Optional[Sequence[str]] = None
                 ) -> Tuple[List[Optional[_R]], List[bool],
                            List[WorkerError]]:
    """Fan out *items* against a wall-clock *deadline*, keeping
    whatever completes.

    *deadline* is an absolute ``time.monotonic()`` timestamp (``None``
    = no deadline).  Returns ``(results, completed, failures)``:
    ``results[i]`` is the task's value (``None`` when it did not
    complete), ``completed[i]`` says whether it did, and *failures*
    collects a :class:`~repro.errors.WorkerError` per raising task in
    task order -- nothing is raised, so partial progress survives.

    When the deadline passes, tasks that have not started are
    cancelled and the pool drains its running tasks before this
    function returns (no thread is left running); tasks that finish
    while draining still count as completed.
    """
    items = list(items)
    n = len(items)
    results: List[Optional[_R]] = [None] * n
    completed = [False] * n
    failures: List[WorkerError] = []

    def record(index: int, future) -> None:
        if future.cancelled():
            return
        exc = future.exception()
        if exc is not None:
            failures.append(
                WorkerError(index, exc, _label_of(labels, index)))
        else:
            results[index] = future.result()
            completed[index] = True

    workers = resolve_workers(max_workers, n)
    task = _traced(function, labels)
    if workers <= 1:
        started = 0
        for index, item in enumerate(items):
            if remaining(deadline) <= 0.0:
                break
            started = index + 1
            try:
                results[index] = task(index, item)
                completed[index] = True
            except Exception as exc:
                failures.append(
                    WorkerError(index, exc, _label_of(labels, index)))
        _record_deadline_missed(n - started)
        return results, completed, failures

    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(task, index, item)
                   for index, item in enumerate(items)]
        pending = set(futures)
        while pending:
            left = remaining(deadline)
            timeout = None if left == math.inf else max(0.0, left)
            done, pending = wait(pending, timeout=timeout)
            if pending and remaining(deadline) <= 0.0:
                cancelled = sum(
                    1 for future in pending if future.cancel())
                _record_deadline_missed(cancelled)
                break
        # The context exit joins the running stragglers.
    for index, future in enumerate(futures):
        record(index, future)
    failures.sort(key=lambda failure: failure.index)
    return results, completed, failures


def publish_clone_stats(engine_name: str, clones) -> None:
    """Publish each worker clone's counter delta, worker-labelled.

    Every fan-out gives its clones fresh
    :class:`~repro.algorithms.cache.EngineStats`, so a clone's
    counters *are* its delta.  Publication happens here, at the
    fan-out site, rather than inside the clone's own engine span --
    whether a pool ran a task inline or on a fresh thread must not
    decide whether its counters surface.  The labels
    (``worker="thread-i"``) mirror the process executor's
    ``worker="process-N"`` scheme, so summing a counter over its
    ``worker`` label gives the same totals whichever executor ran the
    sweep.
    """
    if not OBS.enabled:
        return
    from repro.obs import record_engine_stats
    for clone in clones:
        delta = clone.stats.as_dict()
        if any(delta.values()):
            record_engine_stats(
                OBS.metrics, engine_name, delta,
                worker=getattr(clone, "_obs_worker_label", None)
                or "thread-?")


def parallel_joint_vectors(engine,
                           queries: Iterable[Tuple],
                           max_workers: Optional[int] = None
                           ) -> List[np.ndarray]:
    """Fan independent ``joint_probability_vector`` queries over threads.

    *queries* is a sequence of ``(model, t, r, target)`` tuples --
    typically distinct reduced models, or grid points no sweep can
    share.  Results return in query order; every worker clone's
    counters are merged into ``engine.stats`` afterwards (also when a
    task fails -- completed workers' counters are never lost).
    """
    queries = list(queries)
    clones = [engine._worker_clone(label=f"thread-{i}")
              for i in range(len(queries))]

    def run(task):
        clone, (model, t, r, target) = task
        return clone.joint_probability_vector(model, t, r, target)

    labels = [f"query {i}: t={q[1]}, r={q[2]}"
              for i, q in enumerate(queries)]
    try:
        return threaded_map(run, list(zip(clones, queries)),
                            max_workers, labels=labels)
    finally:
        publish_clone_stats(engine.name, clones)
        for clone in clones:
            engine.stats.merge(clone.stats)


def parallel_joint_sweeps(engine,
                          queries: Iterable[Tuple],
                          max_workers: Optional[int] = None
                          ) -> List[np.ndarray]:
    """Fan independent ``joint_probability_sweep`` grids over threads.

    *queries* is a sequence of ``(model, times, reward_bounds,
    target)`` tuples; each yields a ``(len(times), len(reward_bounds),
    |S|)`` grid.  This is the "distinct models" axis of parallelism --
    each model's grid is itself evaluated with the shared-prefix sweep,
    so the two reuse layers compose.
    """
    queries = list(queries)
    clones = [engine._worker_clone(label=f"thread-{i}")
              for i in range(len(queries))]

    def run(task):
        clone, (model, times, rewards, target) = task
        return clone.joint_probability_sweep(model, times, rewards,
                                             target)

    labels = [f"sweep {i}" for i in range(len(queries))]
    try:
        return threaded_map(run, list(zip(clones, queries)),
                            max_workers, labels=labels)
    finally:
        publish_clone_stats(engine.name, clones)
        for clone in clones:
            engine.stats.merge(clone.stats)
