"""The Experiment: one entrypoint from a spec to a structured result.

``Experiment(spec).run()`` builds the engine with ``Engine.from_spec``,
runs the loop the spec implies (:meth:`ExperimentSpec.run_mode`: the
scheduler runtime when a scheduler is named or the clients are pooled —
under the topology's default policy if none is named — synchronous
collective rounds otherwise), and returns a
:class:`~repro.experiment.result.RunResult`.

Callbacks (see :mod:`repro.engine.callbacks`) attach here and observe the
run identically under either loop::

    spec = ExperimentSpec(...)
    result = Experiment(spec, callbacks=[EarlyStopping("eval_accuracy")]).run()
    result.save("runs/my-run")
"""

from __future__ import annotations

import time
from typing import Iterable, Optional

from repro.engine.callbacks import Callback
from repro.engine.engine import Engine
from repro.experiment.result import RunResult
from repro.experiment.spec import ExperimentSpec
from repro.utils.logging import get_logger

__all__ = ["Experiment"]

_LOG = get_logger("experiment")


class Experiment:
    """One configured federated experiment, runnable exactly once at a time.

    The engine is an internal executor: it is built lazily by :meth:`run`
    and shut down before the result is returned, but stays reachable as
    ``self.engine`` for post-run inspection (scheduler state, node stats).
    """

    def __init__(
        self,
        spec: ExperimentSpec,
        callbacks: Iterable[Callback] = (),
    ) -> None:
        if not isinstance(spec, ExperimentSpec):
            raise TypeError(
                f"Experiment needs an ExperimentSpec, got {type(spec).__name__}"
            )
        self.spec = spec
        self.callbacks = list(callbacks)
        self.engine: Optional[Engine] = None
        self.result: Optional[RunResult] = None

    def run(self) -> RunResult:
        """Execute the spec end to end and return the structured result."""
        engine = Engine.from_spec(self.spec, callbacks=self.callbacks)
        self.engine = engine
        loop = self.spec.run_mode(engine.topology.trainer_count())
        start = time.perf_counter()
        try:
            if loop == "async":
                metrics = engine.run_async(total_updates=self.spec.total_updates)
            else:
                metrics = engine.run()
            wall = time.perf_counter() - start
            result = RunResult(
                spec=self.spec,
                metrics=metrics,
                final_state=engine.global_state(),
                comm=engine.comm_summary(),
                mode=loop,
                fingerprint=self.spec.fingerprint(),
                wall_seconds=wall,
                stop_reason=metrics.stop_reason,
            )
        finally:
            engine.shutdown()
        self.result = result
        _LOG.info(
            "experiment done: %s records=%d final_acc=%s (%.2fs)",
            loop, len(result.history),
            f"{result.final_accuracy():.4f}" if result.final_accuracy() is not None else "-",
            result.wall_seconds,
        )
        return result
