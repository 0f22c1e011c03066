"""Round-level metrics collection and reporting.

:meth:`MetricsCollector.add` is also the framework's single callback hook
point: every execution path — the synchronous round loop and all scheduler
policies — funnels its :class:`RoundRecord` stream through one ``add`` call,
so callbacks registered on the collector observe every aggregation uniformly
without each policy growing its own hook wiring.  A callback that calls
:meth:`MetricsCollector.request_stop` makes the next ``add`` raise
:class:`StopRun`, which the round loop and the scheduler runtime both catch
to finish the run cleanly (drain in-flight work, final evaluation).

The history ``add`` appends to is a :class:`RecordLog`: an async run keeps
one record per applied update for the rest of the run, so records are packed
into one typed row each as they arrive and rebuilt when read.
"""

from __future__ import annotations

import numbers
import operator
import statistics
import struct
from array import array
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

from repro.utils.logging import get_logger

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.callbacks import Callback

__all__ = ["RoundRecord", "RecordLog", "MetricsCollector", "NodeStats", "StopRun"]

_LOG = get_logger("metrics")


class StopRun(Exception):
    """Control-flow signal: a callback requested the run to stop early."""

    def __init__(self, reason: str = "stop requested") -> None:
        self.reason = reason
        super().__init__(reason)


class _NoEntries(Mapping):
    """The empty, read-only mapping a record's ``per_edge``/``per_node`` read
    as until a writer assigns a dict of its own.  Async runs keep one record
    per applied update and almost none has a breakdown, so records share this
    instead of each allocating two empty dicts; and because it cannot be
    written, a writer that forgets to assign fails instead of filling in
    every record at once."""

    __slots__ = ()

    def __getitem__(self, key: Any) -> Any:
        raise KeyError(key)

    def __iter__(self) -> Iterator[Any]:
        return iter(())

    def __len__(self) -> int:
        return 0

    def __hash__(self) -> int:
        # immutable, hence hashable — which is what lets a dataclass field
        # take the shared instance as its default
        return 0

    def __repr__(self) -> str:
        return "{}"


_NO_ENTRIES = _NoEntries()


class NodeStats(Mapping):
    """One node's numeric stats for one round, as a read-only
    ``Mapping[str, float]``.

    The rounds loop keeps one per node per round for as long as the history
    lives, so it holds neither a dict nor boxed numbers: the key tuple is
    shared with every other ``NodeStats`` built through the same ``interned``
    table and the values are packed doubles.  A bool or int stat therefore
    reads back as the float ``to_payload`` would make of it (``True`` → 1.0).
    """

    __slots__ = ("_keys", "_values")

    def __init__(self, stats: Mapping[str, float],
                 interned: Dict[Tuple[str, ...], Tuple[str, ...]]) -> None:
        keys = tuple(stats)
        self._keys = interned.setdefault(keys, keys)
        self._values = array("d", stats.values())

    def __getitem__(self, key: str) -> float:
        try:
            return self._values[self._keys.index(key)]
        except ValueError:
            raise KeyError(key) from None

    def __iter__(self) -> Iterator[str]:
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)

    def __repr__(self) -> str:
        return repr(dict(self))


@dataclass(slots=True)
class RoundRecord:
    """Everything measured in one global round."""

    round_idx: int
    train_loss: float = 0.0
    train_accuracy: float = 0.0
    eval_accuracy: Optional[float] = None
    eval_loss: Optional[float] = None
    wall_seconds: float = 0.0
    sim_comm_seconds: float = 0.0
    bytes_sent: int = 0
    #: virtual time at which this aggregation happened (async scheduler runs)
    sim_time: float = 0.0
    #: client updates merged by this aggregation (1 for FedAsync, K for
    #: FedBuff, participants-per-round for sync/semi-sync)
    applied: int = 0
    #: mean staleness (in global versions) of the merged updates
    staleness_mean: float = 0.0
    #: which tier produced this record: "global" (root aggregations, the
    #: default) or "site" (per-site collectors in hierarchical async runs)
    tier: str = "global"
    #: site uploads merged by this aggregation (hierarchical outer tier)
    sites_merged: int = 0
    #: RMS distance of peer models from the consensus average (gossip runs)
    consensus_dist: Optional[float] = None
    #: bytes moved per directed edge ("u->v") since the previous record
    #: (gossip runs; per-edge accounting of the exchange traffic)
    per_edge: Mapping[str, int] = _NO_ENTRIES
    #: per-participant stats (rounds loop) or per-site breakdown (hierarchical
    #: outer tier); like ``per_edge``, assigned whole by the one who fills it
    per_node: Mapping[str, Mapping[str, float]] = _NO_ENTRIES

    def as_dict(self) -> Dict[str, Any]:
        return {
            "round": self.round_idx,
            "train_loss": self.train_loss,
            "train_accuracy": self.train_accuracy,
            "eval_accuracy": self.eval_accuracy,
            "eval_loss": self.eval_loss,
            "wall_seconds": self.wall_seconds,
            "sim_comm_seconds": self.sim_comm_seconds,
            "bytes_sent": self.bytes_sent,
            "sim_time": self.sim_time,
            "applied": self.applied,
            "staleness_mean": self.staleness_mean,
            "tier": self.tier,
            "sites_merged": self.sites_merged,
            "consensus_dist": self.consensus_dist,
        }

    def to_payload(self) -> Dict[str, Any]:
        """Full, plain-scalar serialization (``RunResult.save`` format)."""

        def scalar(v: Any) -> Any:
            # numpy scalars must become native ints/floats or the YAML
            # dumper would emit their repr instead of a number
            if v is None or isinstance(v, (bool, str)):
                return v
            if isinstance(v, numbers.Integral):
                return int(v)
            return float(v)

        payload = {k: scalar(v) for k, v in self.as_dict().items()}
        payload["per_node"] = {
            name: {k: float(v) for k, v in stats.items()}
            for name, stats in self.per_node.items()
        }
        payload["per_edge"] = {edge: int(n) for edge, n in self.per_edge.items()}
        return payload

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "RoundRecord":
        data = dict(payload)
        record = cls(round_idx=int(data.pop("round")))
        per_node = data.pop("per_node", None)
        if per_node:
            record.per_node = {str(name): dict(stats) for name, stats in per_node.items()}
        per_edge = data.pop("per_edge", None)
        if per_edge:
            record.per_edge = {str(edge): int(n) for edge, n in per_edge.items()}
        for key, value in data.items():
            if hasattr(record, key):
                setattr(record, key, value)
        return record


#: the fields every record has, packed into one row per record in this order
#: (a record's tier follows them as a one-byte code)
_PACKED = (
    ("round_idx", "q"), ("train_loss", "d"), ("train_accuracy", "d"),
    ("wall_seconds", "d"), ("sim_comm_seconds", "d"), ("bytes_sent", "q"),
    ("sim_time", "d"), ("applied", "i"), ("staleness_mean", "d"), ("sites_merged", "i"),
)
_ROW = struct.Struct("<" + "".join(code for _, code in _PACKED) + "B")
_ROW_SIZE = _ROW.size
_ZERO_ROW = bytes(_ROW_SIZE)
#: a storage chunk holds ``1 << _CHUNK_BITS`` rows.  A log allocates its
#: rows a chunk at a time and never moves one: one growing buffer would be
#: copied on every resize, and the heap keeps the pages of each buffer it
#: outgrew resident.
_CHUNK_BITS = 8
_CHUNK_MASK = (1 << _CHUNK_BITS) - 1
#: the native type a packed field must hold for its row to read back exactly
_NATIVE = tuple(int if code in "qi" else float for _, code in _PACKED)
#: packed field -> its position in a row
_COLUMNS = {name: k for k, (name, _) in enumerate(_PACKED)}
#: the fields most records leave at their default, kept per field and index
_SPARSE = {"eval_accuracy": None, "eval_loss": None, "consensus_dist": None,
           "per_edge": _NO_ENTRIES, "per_node": _NO_ENTRIES}


class RecordLog(Sequence):
    """The append-only history of a :class:`MetricsCollector`, packed.

    An async run keeps one record per applied update for as long as the run
    lives, so each record costs only its numbers here: the ten fields every
    record has go into one 73-byte ``struct`` row of a fixed-size
    ``bytearray`` chunk, its tier into one byte of that row (a code into a
    small table), and the fields almost every record leaves at their default
    (``eval_*``, ``consensus_dist``, ``per_edge``, ``per_node``) into one map
    per field, keyed by record index, holding only the records that set them.

    Reading works like a list — ``len``, indices (negative too), slices,
    iteration, ``reversed``, truth — and hands back a fresh
    :class:`RoundRecord` whose every value has the type and bits it was
    appended with.  A record whose packed fields are not all a Python
    ``int``/``float`` as declared (a numpy scalar, a bool, an int in a float
    field) or do not fit their column keeps those values verbatim beside a
    zero row, so it reads back as it went in too.  The log cannot be edited
    through what it hands back: the one write after :meth:`append` is
    :meth:`set_eval`.
    """

    __slots__ = ("_chunks", "_n", "_tiers", "_tier_codes", "_verbatim",
                 "_eval_accuracy", "_eval_loss", "_consensus_dist", "_per_edge", "_per_node")

    def __init__(self) -> None:
        self._chunks: List[bytearray] = []
        self._n = 0
        self._tiers: List[str] = []
        self._tier_codes: Dict[str, int] = {}
        #: index -> the packed fields and tier of a record no row holds exactly
        self._verbatim: Dict[int, Tuple[Any, ...]] = {}
        self._eval_accuracy: Dict[int, Any] = {}
        self._eval_loss: Dict[int, Any] = {}
        self._consensus_dist: Dict[int, Any] = {}
        self._per_edge: Dict[int, Mapping[str, int]] = {}
        self._per_node: Dict[int, Mapping[str, Mapping[str, float]]] = {}

    # -- writing -----------------------------------------------------------
    def append(self, record: RoundRecord) -> None:
        r, i, chunks = record, self._n, self._chunks
        if i >> _CHUNK_BITS == len(chunks):
            chunks.append(bytearray(_ROW_SIZE << _CHUNK_BITS))
        chunk, offset = chunks[i >> _CHUNK_BITS], (i & _CHUNK_MASK) * _ROW_SIZE
        ri, tl, ta, ws, sc = r.round_idx, r.train_loss, r.train_accuracy, r.wall_seconds, r.sim_comm_seconds
        bs, st, ap, sm, sites = r.bytes_sent, r.sim_time, r.applied, r.staleness_mean, r.sites_merged
        code = self._tier_codes.get(r.tier)
        try:
            if (code is None or not int is type(ri) is type(bs) is type(ap) is type(sites)
                    or not float is type(tl) is type(ta) is type(ws) is type(sc) is type(st) is type(sm)):
                raise TypeError
            _ROW.pack_into(chunk, offset, ri, tl, ta, ws, sc, bs, st, ap, sm, sites, code)
        except (TypeError, struct.error):
            self._pack_slow(r, chunk, offset)
        self._n = i + 1
        if r.eval_accuracy is not None:
            self._eval_accuracy[i] = r.eval_accuracy
        if r.eval_loss is not None:
            self._eval_loss[i] = r.eval_loss
        if r.consensus_dist is not None:
            self._consensus_dist[i] = r.consensus_dist
        if r.per_edge is not _NO_ENTRIES:
            self._per_edge[i] = r.per_edge
        if r.per_node is not _NO_ENTRIES:
            self._per_node[i] = r.per_node

    def _pack_slow(self, record: RoundRecord, chunk: bytearray, offset: int) -> None:
        """Write the row of a record the fast path did not pack: a tier seen
        for the first time gets its code; values no row holds exactly are
        kept verbatim behind a zero row."""
        tier = record.tier
        code = self._tier_codes.get(tier)
        if code is None and len(self._tiers) < 256:
            code = self._tier_codes[tier] = len(self._tiers)
            self._tiers.append(tier)
        values = tuple(getattr(record, name) for name, _ in _PACKED)
        if code is not None and tuple(map(type, values)) == _NATIVE:
            try:
                _ROW.pack_into(chunk, offset, *values, code)
                return
            except struct.error:  # an int beyond its column's range
                pass
        # a failed pack_into may have written part of the row
        chunk[offset:offset + _ROW_SIZE] = _ZERO_ROW
        self._verbatim[self._n] = (*values, tier)

    def set_eval(self, index: int, loss: Any, accuracy: Any) -> None:
        """Set one record's ``eval_loss`` and ``eval_accuracy``."""
        i = self._index(index)
        self._eval_loss[i], self._eval_accuracy[i] = loss, accuracy

    # -- reading -----------------------------------------------------------
    def _index(self, index: int) -> int:
        i = operator.index(index)
        if i < 0:
            i += self._n
        if not 0 <= i < self._n:
            raise IndexError("record index out of range")
        return i

    def _record(self, i: int) -> RoundRecord:
        ri, tl, ta, ws, sc, bs, st, ap, sm, sites, code = _ROW.unpack_from(
            self._chunks[i >> _CHUNK_BITS], (i & _CHUNK_MASK) * _ROW_SIZE)
        verbatim = self._verbatim.get(i)
        if verbatim is None:
            tier = self._tiers[code]
        else:
            ri, tl, ta, ws, sc, bs, st, ap, sm, sites, tier = verbatim
        record = RoundRecord(ri, tl, ta, self._eval_accuracy.get(i), self._eval_loss.get(i),
                             ws, sc, bs, st, ap, sm, tier, sites)
        if self._consensus_dist or self._per_edge or self._per_node:  # none in most runs
            record.consensus_dist = self._consensus_dist.get(i)
            record.per_edge = self._per_edge.get(i, _NO_ENTRIES)
            record.per_node = self._per_node.get(i, _NO_ENTRIES)
        return record

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, index: Union[int, slice]) -> Any:
        if isinstance(index, slice):
            return list(map(self._record, range(*index.indices(self._n))))
        return self._record(self._index(index))

    def __iter__(self) -> Iterator[RoundRecord]:
        i = 0
        while i < self._n:  # like a list's iterator, it sees what is appended meanwhile
            yield self._record(i)
            i += 1

    def __reversed__(self) -> Iterator[RoundRecord]:
        for i in range(self._n - 1, -1, -1):
            yield self._record(i)

    def column(self, name: str) -> List[Any]:
        """One field of every record, oldest first, without rebuilding them."""
        if name in _SPARSE:
            values = getattr(self, "_" + name)
            default = _SPARSE[name]
            return [values.get(i, default) for i in range(self._n)]
        k = _COLUMNS[name]
        chunks, unpack = self._chunks, _ROW.unpack_from
        out = [unpack(chunks[i >> _CHUNK_BITS], (i & _CHUNK_MASK) * _ROW_SIZE)[k] for i in range(self._n)]
        for i, verbatim in self._verbatim.items():
            out[i] = verbatim[k]
        return out

    def __repr__(self) -> str:
        return f"RecordLog({self._n} records)"


class MetricsCollector:
    """Accumulates :class:`RoundRecord` history and computes summaries.

    Also the callback hook point (see the module docstring): ``callbacks``
    fire on every :meth:`add`, and a requested stop surfaces as
    :class:`StopRun` out of the ``add`` that observed it.
    """

    def __init__(self) -> None:
        self.history = RecordLog()
        self.callbacks: List["Callback"] = []
        self.stop_requested = False
        self.stop_reason: Optional[str] = None

    def request_stop(self, reason: str = "stop requested") -> None:
        """Ask the driving loop to finish the run after the current record."""
        self.stop_requested = True
        if self.stop_reason is None:
            self.stop_reason = reason

    def reset_stop(self) -> None:
        """Re-arm the collector for a continuation run.

        Called at the start of every run so a stop requested in an earlier
        run does not instantly abort the next one; ``stop_reason`` is kept
        as the record of why the previous run ended.
        """
        self.stop_requested = False

    def _fire(self, hook: Callable[[RoundRecord, "MetricsCollector"], None],
              record: RoundRecord) -> None:
        """Run one callback hook, isolated.

        A raising observer must not abort the run mid-aggregation: the
        exception is logged and the record stream continues.  The sanctioned
        way for a callback to end the run is :meth:`request_stop`, which the
        tail of :meth:`add` turns into :class:`StopRun` — so a ``StopRun``
        raised *directly* from a hook is honored as that same request rather
        than swallowed.
        """
        try:
            hook(record, self)
        except StopRun as stop:
            self.request_stop(stop.reason)
        except Exception:  # noqa: BLE001 - observer errors never abort
            owner = getattr(hook, "__self__", hook)
            _LOG.exception(
                "callback %s failed in %s; continuing the run",
                type(owner).__name__, getattr(hook, "__name__", hook),
            )

    def add(self, record: RoundRecord) -> None:
        """Log ``record`` and show it to every callback.  The history holds
        the values the record has now: callbacks observe it, they do not
        edit it (:meth:`evaluate_last` is the one later write)."""
        self.history.append(record)
        for cb in self.callbacks:
            self._fire(cb.on_update, record)
            if record.eval_accuracy is not None or record.eval_loss is not None:
                self._fire(cb.on_evaluate, record)
            if record.tier == "global":
                self._fire(cb.on_round_end, record)
        if self.stop_requested:
            raise StopRun(self.stop_reason or "stop requested")

    def evaluate_last(self, evaluate: Callable[[], Tuple[Any, Any]]) -> None:
        """End the history on an evaluated record: when the last record has
        no ``eval_accuracy``, set its ``(eval_loss, eval_accuracy)`` to what
        ``evaluate()`` returns.  Both run loops end a run with this."""
        log = self.history
        if log and log[-1].eval_accuracy is None:
            log.set_eval(-1, *evaluate())

    @property
    def last(self) -> Optional[RoundRecord]:
        return self.history[-1] if self.history else None

    def final_accuracy(self) -> Optional[float]:
        for acc in reversed(self.history.column("eval_accuracy")):
            if acc is not None:
                return acc
        return None

    def best_accuracy(self) -> Optional[float]:
        accs = [a for a in self.history.column("eval_accuracy") if a is not None]
        return max(accs) if accs else None

    def median_round_time(self) -> float:
        times = self.history.column("wall_seconds")
        return statistics.median(times) if times else 0.0

    def total_bytes(self) -> int:
        return sum(self.history.column("bytes_sent"))

    def sim_makespan(self) -> float:
        """Virtual completion time of the run (async scheduler histories)."""
        return max(self.history.column("sim_time"), default=0.0)

    def total_applied(self) -> int:
        """Client updates merged across the whole history."""
        return sum(self.history.column("applied"))

    def summary(self) -> Dict[str, Any]:
        return {
            "rounds": len(self.history),
            "final_accuracy": self.final_accuracy(),
            "best_accuracy": self.best_accuracy(),
            "median_round_seconds": self.median_round_time(),
            "total_bytes_sent": self.total_bytes(),
            "total_sim_comm_seconds": sum(self.history.column("sim_comm_seconds")),
            "sim_makespan": self.sim_makespan(),
            "applied_updates": self.total_applied(),
            # why the last run ended (None: ran to completion) — lets ops
            # consumers tell an early stop from a finished run
            "stop_reason": self.stop_reason,
        }

    def table(self) -> str:
        """Plain-text round table for logs and example scripts."""
        lines = [f"{'round':>5} {'loss':>8} {'train_acc':>9} {'eval_acc':>8} {'secs':>7}"]
        for r in self.history:
            eval_txt = f"{r.eval_accuracy:8.4f}" if r.eval_accuracy is not None else "       -"
            lines.append(
                f"{r.round_idx:>5} {r.train_loss:8.4f} {r.train_accuracy:9.4f} {eval_txt} {r.wall_seconds:7.2f}"
            )
        return "\n".join(lines)
