"""The public client-runtime contract.

A :class:`ClientRuntime` is the seam between scheduling policy and client
execution: schedulers (and ``Engine.evaluate``) submit *turns* — one method
call on one logical client — and consume the returned tickets, without
knowing whether the client lives on a dedicated in-process node, on the
pool's one in-process node (run on the caller's thread), or in a worker
process on another machine behind a broker.  Time is virtual on every
substrate, so where a turn ran changes no record field but its wall-clock
duration.

The contract, which every implementation must honor:

``pooled``
    ``True`` when logical clients outnumber execution slots and per-client
    state is swapped in and out around each turn.  Schedulers use this only
    for capacity bookkeeping, never for correctness.
``client_ids()``
    The logical client ids this runtime can execute, sorted.
``submit(client, method, *args, **kwargs)``
    Enqueue one turn and return a future-like ticket with ``result(timeout)``
    and ``exception(timeout)``.  Turns for the *same* client execute in
    submission order (per-client FIFO) — this is what makes pooled and
    dedicated execution bit-identical.  Turns for different clients may run
    in any order or in parallel.  Where a turn runs on the waiting thread
    (``memory://``), ``timeout`` bounds only the wait after it.
``evaluate_all(max_batches=None, timeout=None)``
    Run ``evaluate`` on every client against its own state and return the
    ``(mean_loss, mean_accuracy)`` over clients in sorted-id order.
    ``timeout`` bounds the wait per client result; the default waits
    indefinitely (remote substrates have no universally safe bound).
``shutdown()``
    Release execution resources.  Pending (unstarted) turns fail with
    ``RuntimeError``; already-running turns complete.  Idempotent.

Two implementations: :class:`DedicatedRuntime` here, and the pooled
:class:`~repro.runtime.pool.ClientPool`, whose broker decides whether turns
run on the caller's thread or on worker processes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.engine import Engine

__all__ = ["ClientRuntime", "DedicatedRuntime"]


class ClientRuntime:
    """Uniform interface for running logical-client turns (see module doc)."""

    #: True when clients share execution slots and state is swapped per turn
    pooled: bool = False

    def client_ids(self) -> List[int]:
        """Sorted logical client ids this runtime executes."""
        raise NotImplementedError

    def submit(self, client: int, method: str, *args, **kwargs):
        """Enqueue one turn; returns a ticket with ``result``/``exception``."""
        raise NotImplementedError

    def evaluate_all(self, max_batches: Optional[int] = None,
                     timeout: Optional[float] = None) -> Tuple[float, float]:
        """Per-client ``evaluate`` fan-out -> (mean_loss, mean_accuracy)."""
        raise NotImplementedError

    def shutdown(self) -> None:
        """Release resources; pending turns fail, running turns finish."""
        raise NotImplementedError


class DedicatedRuntime(ClientRuntime):
    """One node (and actor thread) per logical client — no state swapping.

    The degenerate runtime used when the cohort is small enough to
    materialize fully; turns go straight to each client's own actor, so
    per-client FIFO falls out of the actor's mailbox order.
    """

    pooled = False

    def __init__(self, engine: "Engine", id_to_pos) -> None:
        # the engine's actor list, not the engine: nothing the engine owns
        # points back at it, so dropping an engine frees it there and then
        self._actors = engine.actors
        self._id_to_pos = {int(c): int(p) for c, p in dict(id_to_pos).items()}

    def client_ids(self) -> List[int]:
        return sorted(self._id_to_pos)

    def submit(self, client: int, method: str, *args, **kwargs):
        return self._actors[self._id_to_pos[int(client)]].submit(
            method, *args, **kwargs
        )

    def evaluate_all(self, max_batches: Optional[int] = None,
                     timeout: Optional[float] = None) -> Tuple[float, float]:
        futures = [
            self.submit(client, "evaluate", None, max_batches)
            for client in self.client_ids()
        ]
        pairs = [f.result(timeout) for f in futures]
        losses = [p[0] for p in pairs]
        accs = [p[1] for p in pairs]
        return float(np.mean(losses)), float(np.mean(accs))

    def shutdown(self) -> None:
        # actors belong to the engine (it tears them down in Engine.shutdown)
        pass
