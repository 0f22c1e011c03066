"""Structured run results: everything one federated run produced.

A :class:`RunResult` bundles the metrics history, the final (or consensus)
global model state, the communication summary, and a snapshot of the
resolved spec + seed fingerprint that produced it — enough to archive a run
to a directory with :meth:`RunResult.save` and reload it later with
:meth:`RunResult.load` for comparison or reporting.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

from repro.config import yaml as _yaml
from repro.engine.metrics import MetricsCollector, RecordLog, RoundRecord
from repro.experiment.spec import ExperimentSpec

__all__ = ["RunResult"]

_SPEC_FILE = "spec.yaml"
_RESULT_FILE = "result.yaml"
_METRICS_FILE = "metrics.yaml"
_STATE_FILE = "state.npz"


@dataclass
class RunResult:
    """What :meth:`repro.experiment.Experiment.run` returns."""

    spec: ExperimentSpec
    metrics: MetricsCollector
    #: final global model state — on gossip topologies the consensus
    #: (stationary-distribution-weighted) average
    final_state: Optional[Dict[str, np.ndarray]] = None
    #: per-communicator-group lifetime totals (bytes, simulated seconds)
    comm: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: "rounds" or "async" — the mode the dispatcher actually ran
    mode: str = "rounds"
    #: stable identity of (resolved spec, seed)
    fingerprint: str = ""
    wall_seconds: float = 0.0
    #: why the run ended early, if a callback stopped it
    stop_reason: Optional[str] = None

    # -- convenience views -------------------------------------------------
    @property
    def history(self) -> RecordLog:
        return self.metrics.history

    def final_accuracy(self) -> Optional[float]:
        return self.metrics.final_accuracy()

    def best_accuracy(self) -> Optional[float]:
        return self.metrics.best_accuracy()

    def sim_makespan(self) -> float:
        return self.metrics.sim_makespan()

    def total_applied(self) -> int:
        return self.metrics.total_applied()

    def total_bytes(self) -> int:
        return self.metrics.total_bytes()

    def summary(self) -> Dict[str, Any]:
        out = dict(self.metrics.summary())
        out.update(
            mode=self.mode,
            fingerprint=self.fingerprint,
            wall_seconds=self.wall_seconds,
            stop_reason=self.stop_reason,
        )
        return out

    def table(self) -> str:
        return self.metrics.table()

    # -- persistence -------------------------------------------------------
    def save(self, directory: str) -> str:
        """Archive the run to ``directory``; returns the directory path."""
        os.makedirs(directory, exist_ok=True)
        self.spec.save(os.path.join(directory, _SPEC_FILE))
        _yaml.dump(
            [rec.to_payload() for rec in self.metrics.history],
            os.path.join(directory, _METRICS_FILE),
        )
        meta = {
            "mode": self.mode,
            "fingerprint": self.fingerprint,
            "wall_seconds": float(self.wall_seconds),
            "stop_reason": self.stop_reason,
            "comm": {
                group: {k: float(v) for k, v in stats.items()}
                for group, stats in self.comm.items()
            },
        }
        _yaml.dump(meta, os.path.join(directory, _RESULT_FILE))
        if self.final_state is not None:
            np.savez(os.path.join(directory, _STATE_FILE), **self.final_state)
        return directory

    @classmethod
    def load(cls, directory: str) -> "RunResult":
        """Rebuild a result from a :meth:`save` directory."""
        spec = ExperimentSpec.load(os.path.join(directory, _SPEC_FILE))
        meta = _yaml.load(os.path.join(directory, _RESULT_FILE)) or {}
        metrics = MetricsCollector()
        records = _yaml.load(os.path.join(directory, _METRICS_FILE)) or []
        for rec in records:
            metrics.history.append(RoundRecord.from_payload(rec))
        final_state = None
        state_path = os.path.join(directory, _STATE_FILE)
        if os.path.isfile(state_path):
            with np.load(state_path) as npz:
                final_state = {key: npz[key] for key in npz.files}
        return cls(
            spec=spec,
            metrics=metrics,
            final_state=final_state,
            comm={g: dict(s) for g, s in (meta.get("comm") or {}).items()},
            mode=str(meta.get("mode", "rounds")),
            fingerprint=str(meta.get("fingerprint", "")),
            wall_seconds=float(meta.get("wall_seconds", 0.0)),
            stop_reason=meta.get("stop_reason"),
        )
