"""Round-level metrics collection and reporting.

:meth:`MetricsCollector.add` is also the framework's single callback hook
point: every execution path — the synchronous round loop and all scheduler
policies — funnels its :class:`RoundRecord` stream through one ``add`` call,
so callbacks registered on the collector observe every aggregation uniformly
without each policy growing its own hook wiring.  A callback that calls
:meth:`MetricsCollector.request_stop` makes the next ``add`` raise
:class:`StopRun`, which the round loop and the scheduler runtime both catch
to finish the run cleanly (drain in-flight work, final evaluation).
"""

from __future__ import annotations

import numbers
import statistics
from array import array
from collections.abc import Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.utils.logging import get_logger

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.callbacks import Callback

__all__ = ["RoundRecord", "MetricsCollector", "NodeStats", "StopRun"]

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


class MetricsCollector:
    """Accumulates :class:`RoundRecord` history and computes summaries.

    Also the callback hook point (see the module docstring): ``callbacks``
    fire on every :meth:`add`, and a requested stop surfaces as
    :class:`StopRun` out of the ``add`` that observed it.
    """

    def __init__(self) -> None:
        self.history: List[RoundRecord] = []
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
        self.history.append(record)
        for cb in self.callbacks:
            self._fire(cb.on_update, record)
            if record.eval_accuracy is not None or record.eval_loss is not None:
                self._fire(cb.on_evaluate, record)
            if record.tier == "global":
                self._fire(cb.on_round_end, record)
        if self.stop_requested:
            raise StopRun(self.stop_reason or "stop requested")

    @property
    def last(self) -> Optional[RoundRecord]:
        return self.history[-1] if self.history else None

    def final_accuracy(self) -> Optional[float]:
        for rec in reversed(self.history):
            if rec.eval_accuracy is not None:
                return rec.eval_accuracy
        return None

    def best_accuracy(self) -> Optional[float]:
        accs = [r.eval_accuracy for r in self.history if r.eval_accuracy is not None]
        return max(accs) if accs else None

    def median_round_time(self) -> float:
        times = [r.wall_seconds for r in self.history]
        return statistics.median(times) if times else 0.0

    def total_bytes(self) -> int:
        return sum(r.bytes_sent for r in self.history)

    def sim_makespan(self) -> float:
        """Virtual completion time of the run (async scheduler histories)."""
        return max((r.sim_time for r in self.history), default=0.0)

    def total_applied(self) -> int:
        """Client updates merged across the whole history."""
        return sum(r.applied for r in self.history)

    def summary(self) -> Dict[str, Any]:
        return {
            "rounds": len(self.history),
            "final_accuracy": self.final_accuracy(),
            "best_accuracy": self.best_accuracy(),
            "median_round_seconds": self.median_round_time(),
            "total_bytes_sent": self.total_bytes(),
            "total_sim_comm_seconds": sum(r.sim_comm_seconds for r in self.history),
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
