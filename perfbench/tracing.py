"""Span recording from outside the program, and per-layer metrics.

The benchmark does not instrument ``src/``: it replaces public
functions and methods of each layer with timing wrappers at run time.
A wrapper records one span per call -- name, start, end, the enclosing
span and the operation it belongs to -- in memory; spans are written
out when the benchmark ends.  Functions are wrapped at every call
site: each ``repro.*`` module attribute bound to the original function
(``from x import f`` copies) is replaced, including in modules that
are imported only later, lazily, by the program.

A target that no longer exists (renamed or removed) is reported in
:attr:`Tracer.missing`; its metrics are then absent from the output,
and the run goes on.
"""

from __future__ import annotations

import functools
import importlib.abc
import json
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

# One span: [name, start, end, parent index or -1, op id, attrs or None].
NAME, START, END, PARENT, OP, ATTRS = range(6)


def _operator_flops(args, kwargs, result, attrs, state=None):
    """Computed flops of one step-operator product: 2 per stored entry
    (2·nnz sparse, 2·rows·cols dense) per vector of the operand."""
    operator, block = args[0], args[1]
    rows, cols = operator.shape
    batch = max(block.size // max(cols, 1), 1)
    nnz = getattr(getattr(operator, "matrix", None), "nnz", None)
    per_column = 2 * (nnz if nnz is not None else rows * cols)
    attrs["flops"] = per_column * batch


def _shift_bytes(args, kwargs, result, attrs, state=None):
    attrs["bytes"] = int(args[1].nbytes) + int(args[2].nbytes)


def _parallel_tasks(args, kwargs, result, attrs, state=None):
    items = args[1] if len(args) > 1 else kwargs.get("items",
                                                     kwargs.get("queries"))
    try:
        attrs["tasks"] = len(items)
    except TypeError:
        attrs["tasks"] = len(result) if result is not None else 0


def _lump_blocks(args, kwargs, result, attrs, state=None):
    attrs["states"] = int(args[0].num_states)
    attrs["blocks"] = (int(result.num_blocks) if result is not None
                       else int(args[0].num_states))


def _prepass_applied(args, kwargs, result, attrs, state=None):
    attrs["applied"] = result is not None


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _exec_accounting(args, kwargs, result, attrs, state):
    """Cells, retries, restarts and CPU seconds of one executor run;
    worker CPU counts once the run has reaped its workers."""
    executor = args[0]
    times = args[3] if len(args) > 3 else kwargs["times"]
    rewards = args[4] if len(args) > 4 else kwargs["reward_bounds"]
    attrs["cells"] = len(times) * len(rewards)
    attrs["cpu_s"] = cpu_seconds() - state[0]
    attrs["retries"] = executor.retries - state[1]
    attrs["restarts"] = executor.restarts - state[2]


_exec_accounting.before = lambda args, kwargs: (
    cpu_seconds(), args[0].retries, args[0].restarts)


def _engine_accounting(args, kwargs, result, attrs, state):
    """Work and cache counters an engine call added to ``engine.stats``."""
    now = args[0].stats.as_dict()
    for key in ("propagation_steps", "matvec_count", "cache_hits",
                "cache_misses"):
        attrs[key] = now.get(key, 0) - state.get(key, 0)


_engine_accounting.before = lambda args, kwargs: args[0].stats.as_dict()


def _engine_name(args):
    return "algorithms." + str(getattr(args[0], "name", "engine"))


# (module, attribute path, span name or namer, post hook).  A method is
# wrapped on its class, a function at every call site.
TARGETS = [
    ("repro.cli", "main", "cli.main", None),
    ("repro.models.adhoc", "adhoc_model", "models.build", None),
    ("repro.models.workloads", "crowd_mrm", "models.build", None),
    ("repro.models.workloads", "virus_mrm", "models.build", None),
    ("repro.models.workloads", "grid_mrm", "models.build", None),
    ("repro.logic.parser", "parse_formula", "logic.parse", None),
    ("repro.mc.checker", "ModelChecker.check", "mc.check", None),
    ("repro.mc.checker", "ModelChecker.until_probability_sweep",
     "mc.sweep", None),
    ("repro.mc.transform", "until_reduction", "mc.reduce", None),
    ("repro.mc.prepass", "prepare", "mc.prepass", _prepass_applied),
    ("repro.analysis.engine_passes", "engine_compatibility",
     "analysis.preflight", None),
    ("repro.ctmc.lumping", "try_lump", "ctmc.lump", _lump_blocks),
    ("repro.algorithms.base", "JointEngine.joint_probability_vector",
     _engine_name, _engine_accounting),
    ("repro.algorithms.base", "JointEngine.joint_probability_sweep",
     _engine_name, _engine_accounting),
    ("repro.algorithms.base", "JointEngine.joint_probability_interval",
     _engine_name, _engine_accounting),
    ("repro.algorithms.base",
     "JointEngine.joint_probability_sweep_partial", _engine_name,
     _engine_accounting),
    ("repro.algorithms.parallel", "threaded_map", "algorithms.parallel",
     _parallel_tasks),
    ("repro.algorithms.parallel", "parallel_joint_sweeps",
     "algorithms.parallel", _parallel_tasks),
    ("repro.kernels", "get_backend", "kernels.get_backend", None),
    ("repro.kernels.base", "make_operator", "kernels.make_operator", None),
    *[("repro.kernels.base", f"{kind}Operator.{method}", "kernels.matmat",
       _operator_flops)
      for kind in ("Dense", "Sparse")
      for method in ("matmat", "matvec", "rmatvec")],
    ("repro.kernels.numpy_backend", "NumpyBackend.shift_down",
     "kernels.shift", _shift_bytes),
    ("repro.kernels.numpy_backend", "NumpyBackend.shift_up",
     "kernels.shift", _shift_bytes),
    ("repro.kernels.numpy_backend", "NumpyBackend.first_order_scan",
     "kernels.scan", None),
    ("repro.kernels.numpy_backend", "NumpyBackend.sericola_triangular",
     "kernels.sericola_triangular", None),
    ("repro.numerics.poisson", "poisson_weights", "numerics.fox_glynn",
     None),
    ("repro.exec.executor", "ProcessShardExecutor.run", "exec.run",
     _exec_accounting),
]


class Tracer:
    """In-memory span store with per-thread span stacks."""

    def __init__(self):
        self.spans: List[list] = []
        self.missing: List[str] = []
        self.op_id = -1
        #: Wrappers record only while this is true.
        self.active = True
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: List[int] = []
        self._lock = threading.Lock()
        self._originals: Dict[int, Callable] = {}
        self._pending: Dict[str, list] = defaultdict(list)
        self._installed = False
        # A forked worker process (repro.exec) records nothing: its
        # spans could not reach this process, and the lock may have
        # been held by another thread at the fork.
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        self.active = False
        self._lock = threading.Lock()

    # -- recording -------------------------------------------------------

    def _stack(self) -> List[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # A pool worker's first span nests under whatever the
            # calling (main) thread is blocked in.
            parent = self._main_stack[-1] if self._main_stack else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), 0.0, parent,
                               self.op_id, None])
        stack.append(index)
        return index

    def end(self, index: int, attrs: Optional[dict] = None) -> None:
        if not self.spans[index][END]:
            self.spans[index][END] = time.perf_counter()
        if attrs:
            self.spans[index][ATTRS] = attrs
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    def wrap(self, fn: Callable, name, post=None) -> Callable:
        tracer = self

        before = getattr(post, "before", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span_name = name(args) if callable(name) else name
            state = before(args, kwargs) if before is not None else None
            index = tracer.begin(span_name)
            result = None
            attrs: Optional[dict] = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.spans[index][END] = time.perf_counter()
                if post is not None:
                    attrs = {}
                    try:
                        post(args, kwargs, result, attrs, state)
                    except (AttributeError, IndexError, KeyError,
                            TypeError):
                        attrs = None
                tracer.end(index, attrs)

        wrapper.__perfbench_original__ = fn
        self._originals[id(fn)] = wrapper
        return wrapper

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every target; targets in modules not yet imported are
        wrapped when the program imports them."""
        if self._installed:
            return
        self._installed = True
        for target in TARGETS:
            module_name = target[0]
            if module_name in sys.modules:
                self._apply(sys.modules[module_name], target)
            else:
                self._pending[module_name].append(target)
        for module_name in list(sys.modules):
            if module_name.startswith("repro"):
                self._rebind(sys.modules[module_name])
        sys.meta_path.insert(0, _PatchFinder(self))

    def _apply(self, module, target) -> None:
        _, path, name, post = target
        owner = module
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
        fn = getattr(owner, parts[-1], None) if owner is not None else None
        if fn is None:
            self.missing.append(f"{module.__name__}.{path}")
            return
        if hasattr(fn, "__perfbench_original__"):
            return
        setattr(owner, parts[-1], self.wrap(fn, name, post))

    def _rebind(self, module) -> None:
        """Point *module*'s copies of wrapped functions at the wrappers."""
        for attr, value in list(vars(module).items()):
            wrapped = self._originals.get(id(value))
            if wrapped is not None and wrapped.__perfbench_original__ is value:
                setattr(module, attr, wrapped)

    def loaded(self, module) -> None:
        for target in self._pending.pop(module.__name__, []):
            self._apply(module, target)
        self._rebind(module)

    def finish(self) -> List[str]:
        """Targets that do not exist in the program (call after the
        traced work).  A target whose module the program never loaded
        was bypassed, not missing: its module is imported now, outside
        any measurement, only to tell the two apart."""
        for module_name, targets in list(self._pending.items()):
            try:
                module = __import__(module_name, fromlist=["_"])
            except ImportError:
                module = None
            for target in targets:
                owner = module
                for part in target[1].split("."):
                    owner = getattr(owner, part, None)
                if owner is None:
                    self.missing.append(f"{module_name}.{target[1]}")
        self._pending.clear()
        return list(self.missing)

    # -- output ----------------------------------------------------------

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


class _PatchFinder(importlib.abc.MetaPathFinder):
    """Wraps targets in ``repro`` modules the program imports later."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def find_spec(self, name, path, target=None):
        if not name.startswith("repro"):
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(name, path, target)
            if spec is not None:
                break
        else:
            return None
        loader = spec.loader
        if loader is None or not hasattr(loader, "exec_module"):
            return spec
        run = loader.exec_module
        tracer = self.tracer

        def exec_module(module):
            run(module)
            tracer.loaded(module)

        loader.exec_module = exec_module
        return spec


def load_spans(path: str) -> List[list]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


# -- aggregation ----------------------------------------------------------

def _union_length(intervals, lo: float, hi: float) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def layer_stats(spans: List[list]) -> Dict[str, Dict[str, float]]:
    """Per span name: inclusive seconds, calls and summed attributes of
    outermost spans (a span with an ancestor of the same name is nested
    work, not a new call), and self seconds of every span."""
    children: Dict[int, List[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(index)
    stats: Dict[str, Dict[str, float]] = defaultdict(
        lambda: defaultdict(float))
    for index, span in enumerate(spans):
        name = span[NAME]
        entry = stats[name]
        kids = [(spans[k][START], spans[k][END]) for k in children[index]]
        duration = span[END] - span[START]
        entry["self_s"] += duration - _union_length(kids, span[START],
                                                    span[END])
        parent = span[PARENT]
        nested = False
        while parent >= 0:
            if spans[parent][NAME] == name:
                nested = True
                break
            parent = spans[parent][PARENT]
        if not nested:
            entry["s"] += duration
            entry["calls"] += 1
            for key, value in (span[ATTRS] or {}).items():
                entry[key] += float(value)
    return stats


def unattributed(spans: List[list], root_name: str = "op") -> float:
    """Share of root-span wall time covered by no child span."""
    children: Dict[int, List[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(index)
    wall = gap = 0.0
    for index, span in enumerate(spans):
        if span[NAME] != root_name:
            continue
        duration = span[END] - span[START]
        kids = [(spans[k][START], spans[k][END]) for k in children[index]]
        wall += duration
        gap += duration - _union_length(kids, span[START], span[END])
    return gap / wall if wall > 0 else 0.0


def descendants_named(spans: List[list], ancestor: str, name: str,
                      ops) -> int:
    """Number of *name* spans of operations *ops* that lie below an
    *ancestor* span."""
    count = 0
    for span in spans:
        if span[NAME] != name or span[OP] not in ops:
            continue
        parent = span[PARENT]
        while parent >= 0:
            if spans[parent][NAME] == ancestor:
                count += 1
                break
            parent = spans[parent][PARENT]
    return count
