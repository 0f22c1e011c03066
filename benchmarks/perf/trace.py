"""Outside-in tracer: benchmark-owned wrappers around the program's public
functions, spans kept in memory, folded into per-layer self times.

A span is ``(name, id, parent, thread, pid, turn, wall0, wall1, cpu0, cpu1,
failed, value)``.  ``cpu*`` is *thread* CPU (``time.thread_time``), so spans
on concurrent actor threads add up to process CPU; waiting is wall minus
CPU.  ``wall*`` is ``perf_counter`` — CLOCK_MONOTONIC on Linux, one epoch
for every process on the machine, which is what lets an engine-side submit
pair with the worker-side start of the same turn.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple


class Span(NamedTuple):
    name: str
    sid: int
    parent: int
    thread: int
    pid: int
    turn: Any
    wall0: float
    wall1: float
    cpu0: float
    cpu1: float
    failed: bool
    value: Optional[float]

    @property
    def wall(self) -> float:
        return self.wall1 - self.wall0

    @property
    def cpu(self) -> float:
        return self.cpu1 - self.cpu0


#: turn keys that mark the thread as serving that turn from here on (the
#: worker side); the others tag only the one span (the scheduler side)
STICKY_TURNS = ("begin", "round")


class Recorder:
    """Where wrappers put spans.  ``list.append`` is atomic under the
    interpreter lock, so recording takes no lock of its own."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.pid = os.getpid()
        self._local = threading.local()
        self._ids = itertools.count(1)
        #: how many times each turn key was seen: the n-th submit, the n-th
        #: swap-in and the n-th result of one client are the same turn
        #: (per-client FIFO, one turn of a client in flight at a time)
        self._turn_counts: Dict[Any, int] = defaultdict(int)

    def state(self) -> Any:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.turn = None
            local.open = set()
        return local

    def next_turn(self, key: Tuple[str, Any]) -> Tuple[Any, int]:
        self._turn_counts[key] += 1
        return (key[1], self._turn_counts[key])

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf8") as fh:
            json.dump({"pid": self.pid, "spans": self.spans}, fh)


def load_spans(path: str) -> List[Span]:
    with open(path, encoding="utf8") as fh:
        data = json.load(fh)
    out = []
    for row in data["spans"]:
        row[5] = tuple(row[5]) if isinstance(row[5], list) else row[5]
        out.append(Span(*row))
    return out


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
def _wrap_call(fn: Callable, name: str, rec: Recorder, turn_hook, value_hook,
               outermost: bool) -> Callable:
    perf, cpu_clock, ident = time.perf_counter, time.thread_time, threading.get_ident
    spans, ids, pid = rec.spans, rec._ids, rec.pid

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        state = rec.state()
        if outermost:
            if name in state.open:
                return fn(*args, **kwargs)
            state.open.add(name)
        if turn_hook is not None:
            key = turn_hook(args)
            turn = rec.next_turn(key)
            if key[0] in STICKY_TURNS:
                state.turn = turn
        else:
            turn = state.turn
        stack = state.stack
        sid = next(ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        failed, value = True, None
        wall0 = perf()
        cpu0 = cpu_clock()
        try:
            result = fn(*args, **kwargs)
            failed = False
            if value_hook is not None:
                value = value_hook(result)
            return result
        finally:
            cpu1 = cpu_clock()
            wall1 = perf()
            stack.pop()
            if outermost:
                state.open.discard(name)
            spans.append((name, sid, parent, ident(), pid, turn,
                          wall0, wall1, cpu0, cpu1, failed, value))

    return wrapper


def _wrap_iter(fn: Callable, name: str, rec: Recorder) -> Callable:
    """One span per item: the time the consumer waits in ``next()``."""
    perf, cpu_clock, ident = time.perf_counter, time.thread_time, threading.get_ident

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        iterator = iter(fn(*args, **kwargs))
        while True:
            state = rec.state()
            stack = state.stack
            sid = next(rec._ids)
            parent = stack[-1] if stack else 0
            wall0 = perf()
            cpu0 = cpu_clock()
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                cpu1 = cpu_clock()
                wall1 = perf()
                rec.spans.append((name, sid, parent, ident(), rec.pid, state.turn,
                                  wall0, wall1, cpu0, cpu1, False, None))
            yield item

    return wrapper


def resolve(module: str, path: str) -> Tuple[Any, str, Any]:
    """``(owner, attribute, function)`` for a target: the class in the MRO
    (or the module) whose namespace actually holds the attribute, so an
    inherited method is patched where it is defined and exactly once."""
    owner: Any = importlib.import_module(module)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    getattr(owner, attr)  # AttributeError here = the public function moved
    if isinstance(owner, type):
        for klass in owner.__mro__:
            if attr in vars(klass):
                owner = klass
                break
    return owner, attr, vars(owner)[attr]


class Installation:
    """Wrappers in place; ``remove()`` restores every original binding."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def _set(self, owner: Any, attr: str, new: Any) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def install(rec: Recorder, targets: Iterable[Any], hooks: Dict[str, Callable]) -> Installation:
    inst = Installation()
    done = set()
    for target in targets:
        owner, attr, raw = resolve(target.module, target.path)
        if (id(owner), attr) in done:
            continue
        done.add((id(owner), attr))
        kind = type(raw)
        fn = raw.__func__ if kind in (classmethod, staticmethod) else raw
        if target.mode == "iter":
            wrapped: Any = _wrap_iter(fn, target.span, rec)
        else:
            wrapped = _wrap_call(
                fn, target.span, rec,
                hooks[target.turn] if target.turn else None,
                hooks[target.value] if target.value else None,
                outermost=target.mode == "outermost",
            )
        if kind in (classmethod, staticmethod):
            wrapped = kind(wrapped)
        inst._set(owner, attr, wrapped)
        for site in target.sites:
            site_mod = importlib.import_module(site)
            if vars(site_mod).get(attr) is raw:
                inst._set(site_mod, attr, wrapped)
    return inst


# ----------------------------------------------------------------------
# folding
# ----------------------------------------------------------------------
class Row(NamedTuple):
    calls: int
    cpu: float        # inclusive thread CPU
    self_cpu: float   # own minus children
    wall: float
    self_wall: float
    failed: int
    value_sum: float
    value_n: int

    @property
    def self_wait(self) -> float:
        return max(0.0, self.self_wall - self.self_cpu)


def fold(spans: Iterable[Span]) -> Dict[str, Row]:
    """Per span name: a layer's self time is its spans' duration minus the
    part their child spans cover (children sit on the parent's thread)."""
    spans = list(spans)
    child_cpu: Dict[Tuple[int, int], float] = defaultdict(float)
    child_wall: Dict[Tuple[int, int], float] = defaultdict(float)
    present = {(s.pid, s.sid) for s in spans}
    for s in spans:
        key = (s.pid, s.parent)
        if s.parent and key in present:
            child_cpu[key] += s.cpu
            child_wall[key] += s.wall
    acc: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0, 0.0, 0.0, 0, 0.0, 0])
    for s in spans:
        a = acc[s.name]
        key = (s.pid, s.sid)
        a[0] += 1
        a[1] += s.cpu
        a[2] += s.cpu - child_cpu.get(key, 0.0)
        a[3] += s.wall
        a[4] += s.wall - child_wall.get(key, 0.0)
        a[5] += 1 if s.failed else 0
        if s.value is not None:
            a[6] += s.value
            a[7] += 1
    return {name: Row(int(a[0]), a[1], a[2], a[3], a[4], int(a[5]), a[6], int(a[7]))
            for name, a in acc.items()}


def top_level_cpu(spans: Iterable[Span]) -> Dict[Tuple[int, int], float]:
    """CPU inside spans per ``(pid, thread)``: what the span table already
    accounts for on that thread (spans whose parent is not in the set)."""
    spans = list(spans)
    present = {(s.pid, s.sid) for s in spans}
    out: Dict[Tuple[int, int], float] = defaultdict(float)
    for s in spans:
        if not s.parent or (s.pid, s.parent) not in present:
            out[(s.pid, s.thread)] += s.cpu
    return out


def attribute_cpu(spans: Iterable[Span], threads: Dict[int, Tuple[str, float]],
                  worker_cpu: float, groups: Dict[str, Tuple[str, ...]]) -> Dict[str, Any]:
    """Split the CPU of a traced window into what spans cover and what they
    do not, by where the uncovered part ran.

    ``threads`` is this process's per-thread CPU over the window, ``worker_cpu``
    the CPU of worker processes.  CPU outside spans on a thread whose name
    carries one of a group's fragments is that group's (``group_outside``), on
    the main thread it is the harness (probe, lap loop) and leaves the total,
    in a worker process it is ``worker_outside``; the rest is ``unattributed``.
    """
    spans = list(spans)
    pid = os.getpid()
    main = threading.main_thread().ident
    in_spans = top_level_cpu(spans)
    harness = threads[main][1] - in_spans.get((pid, main), 0.0)
    group_total = dict.fromkeys(groups, 0.0)
    group_outside = dict.fromkeys(groups, 0.0)
    for ident, (name, cpu) in threads.items():
        for group, fragments in groups.items():
            if any(fragment in name for fragment in fragments):
                group_total[group] += cpu
                group_outside[group] += cpu - in_spans.get((pid, ident), 0.0)
    worker_outside = max(0.0, worker_cpu - sum(
        cpu for (span_pid, _), cpu in in_spans.items() if span_pid != pid))
    program = sum(cpu for _, cpu in threads.values()) - harness + worker_cpu
    covered = sum(in_spans.values()) + sum(group_outside.values()) + worker_outside
    return {"program": program, "unattributed": program - covered,
            "group_total": group_total, "group_outside": group_outside,
            "worker_outside": worker_outside}


def in_window(spans: Iterable[Span], start: float, end: float) -> List[Span]:
    return [s for s in spans if s.wall0 >= start and s.wall1 <= end]


def layer_value(layer: Any, rows: Dict[str, Row], worker_rows: Dict[str, Row],
                updates: int) -> Optional[float]:
    """One span-derived per-layer metric (``None`` for ``extra`` kinds)."""
    if layer.kind == "extra":
        return None
    source = worker_rows if layer.worker_only else rows
    picked = [source[name] for name in layer.spans if name in source]
    if layer.kind == "mean":
        n = sum(r.value_n for r in picked)
        return sum(r.value_sum for r in picked) / n if n else 0.0
    field = {
        "self": lambda r: r.self_cpu,
        "cpu": lambda r: r.cpu,
        "wait": lambda r: r.self_wait,
        "calls": lambda r: float(r.calls),
        "sum": lambda r: r.value_sum,
    }[layer.kind]
    return sum(field(r) for r in picked) / updates


def pair_turns(spans: Iterable[Span]) -> Dict[str, float]:
    """Mean queue wait (submit end → swap-in start) and round trip (submit
    start → result end) over the turns seen whole."""
    submits, begins, results = {}, {}, {}
    for s in spans:
        if s.name == "runtime.submit":
            submits[s.turn] = s
        elif s.name == "node.swap_in":
            begins[s.turn] = s
        elif s.name == "scheduler.ticket_wait":
            results[s.turn] = s
    waits = [begins[t].wall0 - s.wall1 for t, s in submits.items() if t in begins]
    rtts = [results[t].wall1 - s.wall0 for t, s in submits.items() if t in results]
    return {
        "queue_wait_s": sum(waits) / len(waits) if waits else 0.0,
        "turn_rtt_s": sum(rtts) / len(rtts) if rtts else 0.0,
        "submitted": float(len(submits)),
        "started": float(len(begins)),
        "returned": float(sum(1 for r in results.values() if not r.failed)),
    }


# ----------------------------------------------------------------------
# thread CPU by name (this process)
# ----------------------------------------------------------------------
def thread_cpu_snapshot() -> Dict[int, Tuple[str, float]]:
    """``{thread ident: (name, CPU seconds)}`` for every live thread."""
    out = {}
    for thread in threading.enumerate():
        if thread.ident is None:
            continue
        try:
            clock = time.pthread_getcpuclockid(thread.ident)
            out[thread.ident] = (thread.name, time.clock_gettime(clock))
        except (OSError, AttributeError):
            continue
    return out


def thread_cpu_delta(before: Dict[int, Tuple[str, float]],
                     after: Dict[int, Tuple[str, float]]) -> Dict[int, Tuple[str, float]]:
    return {ident: (name, cpu - before[ident][1] if ident in before else cpu)
            for ident, (name, cpu) in after.items()}
