"""Typed, validated experiment specifications — the framework's one config.

The paper's core claim is *configuration-driven* federation: one declarative
description mixing topology, algorithm, comm, compression, and privacy with
no code changes.  :class:`ExperimentSpec` is that description as a frozen
dataclass tree:

* :class:`DataSpec`      — dataset + partitioning (who sees what data);
* :class:`TrainSpec`     — model, algorithm, round/eval budget;
* :class:`PluginSpec`    — compressor / outer_compressor / dp codecs;
* :class:`FaultSpec`     — participation, dropouts, stragglers, selection;
* :class:`SchedulerSpec` — the execution policy (when updates merge).

Component fields (``topology``, ``data.dataset``, ``train.model``, ...)
accept three shapes:

1. a **registry name** (``"centralized"``, ``"fedavg"``) with kwargs in the
   sibling ``*_kwargs`` field — the declarative, serializable form;
2. a **Hydra-style mapping** with a ``_target_`` key — what
   :func:`ExperimentSpec.from_config` produces from composed YAML;
3. an **opaque object/factory** — a live ``Topology``, a model factory, a
   ``Scheduler`` instance: the code-level override; such specs run fine
   but cannot serialize.

Specs in forms 1–2 roundtrip losslessly through the framework's own YAML
dumper: ``ExperimentSpec.from_yaml(spec.to_yaml()) == spec``.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from typing import Any, Callable, Dict, Mapping, Optional

from repro.config import yaml as _yaml

__all__ = [
    "SpecError",
    "DataSpec",
    "TrainSpec",
    "PluginSpec",
    "FaultSpec",
    "SchedulerSpec",
    "AttackSpec",
    "AggregationSpec",
    "MTDSpec",
    "ExperimentSpec",
]


class SpecError(ValueError):
    """Raised on invalid or non-serializable experiment specifications."""


# --------------------------------------------------------------------------
# helpers
# --------------------------------------------------------------------------

def _check_serializable(value: Any, path: str) -> None:
    if value is None or isinstance(value, (bool, int, float, str)):
        return
    if isinstance(value, Mapping):
        for k, v in value.items():
            if not isinstance(k, str):
                raise SpecError(f"{path}: mapping keys must be strings, got {k!r}")
            _check_serializable(v, f"{path}.{k}")
        return
    if isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            _check_serializable(v, f"{path}[{i}]")
        return
    raise SpecError(
        f"{path}: {type(value).__name__} is not serializable — specs built "
        "from live objects cannot be dumped; use registry names or _target_ "
        "mappings instead"
    )


def _freeze(obj: Any, name: str, value: Any) -> None:
    object.__setattr__(obj, name, value)


def _plain(value: Any) -> Any:
    """Deep-copy mappings/sequences into plain dicts/lists."""
    if isinstance(value, Mapping):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _check_keys(data: Any, known: Any, path: str) -> None:
    if not isinstance(data, Mapping):
        raise SpecError(f"{path} must be a mapping, got {type(data).__name__}")
    unknown = set(data) - set(known)
    if unknown:
        raise SpecError(f"{path}: unknown keys {sorted(unknown)} (known: {sorted(known)})")


#: top-level keys that used to select something the program now works out
#: itself, and what to do instead
_REMOVED_KEYS = {
    "mode": (
        "the loop is derived, not set: name a scheduler for the async runtime "
        "(a redis:// or tcp:// broker implies it), or none for synchronous rounds"
    ),
    "batch_turns": (
        "turn fusion is automatic (a memory:// pool fuses every turn it can "
        "prove bit-identical to per-turn execution): delete the key"
    ),
}


def _check_top_level(data: Any, known: Any, path: str) -> None:
    """The gate for a whole spec or composed config from outside the program
    (a saved ``spec.yaml``, a ``RunResult`` archive, CLI overrides)."""
    if isinstance(data, Mapping):
        for key, instead in _REMOVED_KEYS.items():
            if key in data:
                raise SpecError(f"{path}: {key!r} was removed — {instead}")
    _check_keys(data, known, path)


def _from_dict(cls: type, data: Mapping[str, Any], path: str) -> Any:
    _check_keys(data, {f.name for f in fields(cls)}, path)
    return cls(**{k: _plain(v) for k, v in data.items()})


# --------------------------------------------------------------------------
# the spec tree
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DataSpec:
    """Dataset and partitioning: who trains on what."""

    dataset: Any = "cifar10"
    kwargs: Dict[str, Any] = field(default_factory=dict)
    partition: str = "dirichlet"
    partition_alpha: float = 0.5
    batch_size: int = 32
    feature_noniid: float = 0.0

    def __post_init__(self) -> None:
        _freeze(self, "kwargs", _plain(self.kwargs or {}))
        if self.batch_size < 1:
            raise SpecError("data.batch_size must be >= 1")
        if self.partition_alpha <= 0:
            raise SpecError("data.partition_alpha must be > 0")
        if self.feature_noniid < 0:
            raise SpecError("data.feature_noniid must be >= 0")


@dataclass(frozen=True)
class TrainSpec:
    """Model, algorithm, and the round/evaluation budget."""

    algorithm: Any = "fedavg"
    algorithm_kwargs: Dict[str, Any] = field(default_factory=dict)
    model: Any = "simple_cnn"
    model_kwargs: Dict[str, Any] = field(default_factory=dict)
    global_rounds: int = 5
    eval_every: int = 1
    eval_max_batches: Optional[int] = None

    def __post_init__(self) -> None:
        _freeze(self, "algorithm_kwargs", _plain(self.algorithm_kwargs or {}))
        _freeze(self, "model_kwargs", _plain(self.model_kwargs or {}))
        if self.global_rounds < 1:
            raise SpecError("train.global_rounds must be >= 1")
        if self.eval_every < 0:
            raise SpecError("train.eval_every must be >= 0")
        if self.eval_max_batches is not None and self.eval_max_batches < 1:
            raise SpecError("train.eval_max_batches must be >= 1 (or null)")


@dataclass(frozen=True)
class PluginSpec:
    """Update-path plugins: compression and differential privacy.

    ``compressor``/``outer_compressor`` take a registry name (kwargs in the
    sibling field) or a ``_target_`` mapping; ``dp`` takes keyword arguments
    for :class:`~repro.privacy.dp.DifferentialPrivacy` or a ``_target_``
    mapping.  ``outer_compressor`` applies only to the slow cross-site link
    in hierarchical deployments (the paper's §3.4.5 trick).
    """

    compressor: Any = None
    compressor_kwargs: Dict[str, Any] = field(default_factory=dict)
    outer_compressor: Any = None
    outer_compressor_kwargs: Dict[str, Any] = field(default_factory=dict)
    dp: Any = None

    def __post_init__(self) -> None:
        _freeze(self, "compressor_kwargs", _plain(self.compressor_kwargs or {}))
        _freeze(self, "outer_compressor_kwargs", _plain(self.outer_compressor_kwargs or {}))
        if isinstance(self.dp, Mapping):
            _freeze(self, "dp", _plain(self.dp))


@dataclass(frozen=True)
class FaultSpec:
    """Participation and failure model of the client population."""

    client_fraction: float = 1.0
    drop_prob: float = 0.0
    straggler_prob: float = 0.0
    straggler_delay: float = 0.0
    selection: str = "random"
    selection_kwargs: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _freeze(self, "selection_kwargs", _plain(self.selection_kwargs or {}))
        if not (0.0 < self.client_fraction <= 1.0):
            raise SpecError("faults.client_fraction must be in (0, 1]")
        for name in ("drop_prob", "straggler_prob"):
            p = getattr(self, name)
            if not (0.0 <= p <= 1.0):
                raise SpecError(f"faults.{name} must be in [0, 1]")
        if self.straggler_delay < 0:
            raise SpecError("faults.straggler_delay must be >= 0")


@dataclass(frozen=True)
class SchedulerSpec:
    """Execution policy: when client updates enter the global model.

    ``name`` picks a registered policy (``sync``, ``semi_sync``,
    ``fedasync``, ``fedbuff``, ``hier_async``, ``gossip_async``) with policy
    kwargs in ``kwargs``; alternatively ``kwargs`` may carry a Hydra-style
    ``_target_`` mapping and ``name`` stays null.
    """

    name: Optional[str] = None
    kwargs: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _freeze(self, "kwargs", _plain(self.kwargs or {}))
        if self.name is None and "_target_" not in self.kwargs:
            raise SpecError("scheduler needs a policy name or a _target_ mapping")
        if self.name is not None and not isinstance(self.name, str):
            raise SpecError("scheduler.name must be a string")

    @classmethod
    def from_value(cls, value: Any) -> Any:
        """Normalize the ``scheduler=`` shapes (str / dict / object)."""
        if value is None or isinstance(value, (cls,)):
            return value
        if isinstance(value, str):
            return cls(name=value)
        if isinstance(value, Mapping):
            kwargs = _plain(value)
            if "_target_" in kwargs:
                return cls(name=None, kwargs=kwargs)
            name = kwargs.pop("name", None)
            if name is None:
                raise SpecError("scheduler mapping needs a 'name' (or '_target_') key")
            return cls(name=str(name), kwargs=kwargs)
        return value  # opaque Scheduler instance: passes through


_ATTACK_KINDS = ("label_flip", "sign_flip", "scaled_update", "backdoor")
_ROBUST_NAMES = ("median", "trimmed_mean", "krum", "multi_krum", "norm_clip")


@dataclass(frozen=True)
class AttackSpec:
    """Byzantine client roles: which attack, and how much of the cohort.

    ``fraction`` of the logical clients (at least one when > 0) run the
    ``kind`` behavior; assignment is a pure function of ``(seed, fraction,
    num_clients)`` (``seed`` defaults to the run seed) so broker workers and
    live members derive the identical attacker set from the published spec.
    ``scale`` drives the update attacks (``sign_flip``/``scaled_update``);
    the ``target_label``/``trigger_*``/``poison_frac`` knobs drive
    ``backdoor``.  ``fraction: 0`` is byte-identical to no attack block.
    """

    kind: str = "sign_flip"
    fraction: float = 0.0
    scale: float = 10.0
    seed: Optional[int] = None
    target_label: int = 0
    trigger_value: float = 2.5
    trigger_frac: float = 0.1
    poison_frac: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in _ATTACK_KINDS:
            raise SpecError(
                f"attack.kind must be one of {_ATTACK_KINDS}, got {self.kind!r}"
            )
        if not (0.0 <= self.fraction <= 1.0):
            raise SpecError("attack.fraction must be in [0, 1]")
        if self.scale <= 0:
            raise SpecError("attack.scale must be > 0")
        if self.target_label < 0:
            raise SpecError("attack.target_label must be >= 0")
        for name in ("trigger_frac", "poison_frac"):
            p = getattr(self, name)
            if not (0.0 < p <= 1.0):
                raise SpecError(f"attack.{name} must be in (0, 1]")


@dataclass(frozen=True)
class AggregationSpec:
    """Server/peer-side aggregation hardening.

    ``robust`` names a robust combination rule (coordinate-wise ``median``,
    ``trimmed_mean``, ``krum``, ``multi_krum``, ``norm_clip``) that replaces
    the weighted mean inside every scheduler policy — sync/semi-sync rounds,
    the fedasync interpolation target, the fedbuff flush, hierarchical
    site/outer tiers, and gossip neighbor mixing.  ``kwargs`` go to the
    rule's constructor (``trim_ratio``, ``f``, ``multi``, ``clip_norm``).
    """

    robust: Optional[str] = None
    kwargs: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _freeze(self, "kwargs", _plain(self.kwargs or {}))
        if self.robust is not None and self.robust not in _ROBUST_NAMES:
            raise SpecError(
                f"aggregation.robust must be one of {_ROBUST_NAMES}, got {self.robust!r}"
            )


@dataclass(frozen=True)
class MTDSpec:
    """Moving-target defense for gossip runs: re-sample the neighbor map
    and mixing matrix per epoch from a seeded stream.

    ``degree`` is the target overlay degree (2 = a re-permuted ring),
    ``reshuffle_every`` the epoch length in applied updates (null: once per
    ``len(peers)`` updates, i.e. roughly per round), ``seed`` the sampling
    seed (null: the run seed).  Only meaningful with a gossip topology.
    """

    degree: int = 2
    reshuffle_every: Optional[int] = None
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.degree < 2:
            raise SpecError("mtd.degree must be >= 2 (ring connectivity)")
        if self.reshuffle_every is not None and self.reshuffle_every < 1:
            raise SpecError("mtd.reshuffle_every must be >= 1 (or null)")


@dataclass(frozen=True)
class ExperimentSpec:
    """One complete, validated federated experiment."""

    topology: Any = "centralized"
    topology_kwargs: Dict[str, Any] = field(default_factory=dict)
    data: DataSpec = field(default_factory=DataSpec)
    train: TrainSpec = field(default_factory=TrainSpec)
    plugins: PluginSpec = field(default_factory=PluginSpec)
    faults: FaultSpec = field(default_factory=FaultSpec)
    #: the execution policy; naming one is what selects the scheduler
    #: runtime over synchronous collective rounds (see :meth:`run_mode`)
    scheduler: Any = None
    seed: int = 0
    #: async run length in applied client updates (null: global_rounds x
    #: trainer count, the scheduler default)
    total_updates: Optional[int] = None
    #: cohort size override injected into the topology (flat topologies'
    #: ``num_clients``); null keeps the topology's own setting
    num_clients: Optional[int] = None
    #: simulate the cohort on this many dispatch slots instead of one
    #: dedicated node per client (null: dedicated).  A pool >= the trainer
    #: count degenerates to dedicated execution; a smaller pool stays
    #: bit-identical to dedicated.  On ``memory://`` it counts dispatch
    #: slots only (one reusable node runs every turn); a distributed broker
    #: also sizes its default worker fleet by it
    pool_size: Optional[int] = None
    #: turn-queue broker URL for pooled execution: ``memory://`` (default)
    #: runs turns on the caller's thread, ``redis://host:port/db``
    #: dispatches them to worker processes, ``tcp://host:port?min_nodes=N``
    #: listens for live workers that join as cluster members (either kind
    #: is a ``repro worker <url>`` process); see :mod:`repro.runtime.broker`
    #: for the scheme registry
    broker: str = "memory://"
    #: byzantine client roles (:class:`AttackSpec`): null runs an honest
    #: cohort; a mapping assigns ``attack.fraction`` of the clients the
    #: ``attack.kind`` behavior at the client-update seam
    attack: Any = None
    #: aggregation hardening (:class:`AggregationSpec`): ``robust`` swaps a
    #: robust combination rule in for the weighted mean on every policy
    aggregation: Any = None
    #: moving-target defense (:class:`MTDSpec`) for gossip runs: re-sample
    #: the overlay per epoch from a seeded stream; null keeps it static
    mtd: Any = None

    def __post_init__(self) -> None:
        _freeze(self, "topology_kwargs", _plain(self.topology_kwargs or {}))
        if isinstance(self.data, Mapping):
            _freeze(self, "data", _from_dict(DataSpec, self.data, "data"))
        if isinstance(self.train, Mapping):
            _freeze(self, "train", _from_dict(TrainSpec, self.train, "train"))
        if isinstance(self.plugins, Mapping):
            _freeze(self, "plugins", _from_dict(PluginSpec, self.plugins, "plugins"))
        if isinstance(self.faults, Mapping):
            _freeze(self, "faults", _from_dict(FaultSpec, self.faults, "faults"))
        if isinstance(self.scheduler, (str, Mapping)):
            _freeze(self, "scheduler", SchedulerSpec.from_value(self.scheduler))
        if isinstance(self.attack, Mapping):
            _freeze(self, "attack", _from_dict(AttackSpec, self.attack, "attack"))
        if isinstance(self.aggregation, Mapping):
            _freeze(self, "aggregation", _from_dict(AggregationSpec, self.aggregation, "aggregation"))
        if isinstance(self.mtd, Mapping):
            _freeze(self, "mtd", _from_dict(MTDSpec, self.mtd, "mtd"))
        if self.total_updates is not None and self.total_updates < 1:
            raise SpecError("total_updates must be >= 1 (or null)")
        if self.num_clients is not None and self.num_clients < 1:
            raise SpecError("num_clients must be >= 1 (or null)")
        if self.pool_size is not None and self.pool_size < 1:
            raise SpecError("pool_size must be >= 1 (or null)")
        if self.broker is None:
            _freeze(self, "broker", "memory://")
        # scheme registry owns URL validation (ValueError names the
        # registered schemes, or the scheme's own parser the bad parameter);
        # imported lazily to keep spec import-light
        from repro.runtime.broker import broker_class

        broker = broker_class(self.broker)
        try:
            broker.check_url(self.broker)
        except ValueError as exc:
            raise SpecError(str(exc)) from exc
        if broker.live:
            self._check_live_rules()

    def _check_live_rules(self) -> None:
        """What a live broker (real worker processes under wall-clock time)
        rules out."""
        if self.faults.drop_prob > 0 or self.faults.straggler_prob > 0:
            raise SpecError(
                "a live broker replaces the scripted fault model with real "
                "membership: set faults.drop_prob and "
                "faults.straggler_prob to 0 (kill worker processes instead)"
            )
        if self.pool_size is not None:
            raise SpecError(
                "a live broker serves clients from the workers that join it, "
                "not a sized pool; leave pool_size null"
            )

    # -- dispatch ----------------------------------------------------------
    def pooled(self, trainer_count: Optional[int] = None) -> bool:
        """Whether a worker pool serves the logical clients instead of one
        dedicated node each: always under a distributed broker (its workers
        live out of process), and under the memory broker exactly when
        ``pool_size`` is below the trainer count — a pool at least that
        large degenerates to dedicated nodes.  ``trainer_count`` saves
        resolving the topology when the caller already has."""
        from repro.runtime.broker import broker_class

        if broker_class(self.broker).distributed:
            return True
        if self.pool_size is None:
            return False
        if trainer_count is None:
            trainer_count = resolve_topology(self).trainer_count()
        return self.pool_size < trainer_count

    def run_mode(self, trainer_count: Optional[int] = None) -> str:
        """Which loop runs this spec — decided here and nowhere else:
        ``"async"`` (the scheduler runtime) when a scheduler is named or
        the clients are pooled (a pool has no collective rounds; the
        topology's default policy runs if none is named), else
        ``"rounds"`` (synchronous collective rounds)."""
        if self.scheduler is not None or self.pooled(trainer_count):
            return "async"
        return "rounds"

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-container form (raises :class:`SpecError` on opaque parts)."""
        out: Dict[str, Any] = {
            "topology": self.topology,
            "topology_kwargs": dict(self.topology_kwargs),
            "data": asdict(self.data),
            "train": asdict(self.train),
            "plugins": asdict(self.plugins),
            "faults": asdict(self.faults),
            "scheduler": asdict(self.scheduler) if is_dataclass(self.scheduler) else self.scheduler,
            "seed": self.seed,
            "total_updates": self.total_updates,
            "num_clients": self.num_clients,
            "pool_size": self.pool_size,
            "broker": self.broker,
            "attack": asdict(self.attack) if is_dataclass(self.attack) else self.attack,
            "aggregation": (
                asdict(self.aggregation) if is_dataclass(self.aggregation) else self.aggregation
            ),
            "mtd": asdict(self.mtd) if is_dataclass(self.mtd) else self.mtd,
        }
        _check_serializable(out, "spec")
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        _check_top_level(data, {f.name for f in fields(cls)}, "spec")
        payload = dict(data)
        scheduler = payload.pop("scheduler", None)
        spec_kwargs: Dict[str, Any] = {key: _plain(value) for key, value in payload.items()}
        if scheduler is not None:
            if isinstance(scheduler, Mapping) and set(scheduler) <= {"name", "kwargs"}:
                spec_kwargs["scheduler"] = SchedulerSpec(
                    name=scheduler.get("name"), kwargs=_plain(scheduler.get("kwargs") or {})
                )
            else:
                spec_kwargs["scheduler"] = SchedulerSpec.from_value(scheduler)
        return cls(**spec_kwargs)

    def to_yaml(self) -> str:
        """Serialize through the framework's own YAML dumper."""
        return _yaml.dumps(self.to_dict())

    @classmethod
    def from_yaml(cls, text: str) -> "ExperimentSpec":
        data = _yaml.loads(text)
        if data is None:
            data = {}
        return cls.from_dict(data)

    @classmethod
    def load(cls, path: str) -> "ExperimentSpec":
        with open(path, "r", encoding="utf8") as fh:
            return cls.from_yaml(fh.read())

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf8") as fh:
            fh.write(self.to_yaml())

    def fingerprint(self) -> str:
        """Stable hash of the resolved spec (seed included): run identity."""
        try:
            canonical = self.to_yaml()
        except SpecError:
            canonical = repr(self)  # opaque specs: best-effort identity
        return hashlib.sha256(canonical.encode("utf8")).hexdigest()[:16]

    # -- construction from composed configs --------------------------------
    @classmethod
    def from_config(cls, cfg: Any) -> "ExperimentSpec":
        """Build a spec from a composed Hydra-style config (Fig. 2 layout).

        Expects the shape of ``repro/conf/experiment.yaml``: ``topology``,
        ``algorithm``, ``model``, ``datamodule`` nodes (each carrying a
        ``_target_``) plus scalar engine settings, with optional
        ``compression``, ``outer_compression`` (the cross-site link only),
        ``privacy``, and ``scheduler`` nodes.  Any other key is an error.
        """
        from repro.config.node import ConfigNode

        if isinstance(cfg, ConfigNode):
            cfg = cfg.to_container(resolve=True)
        _check_top_level(cfg, _CONFIG_KEYS, "config")
        for key in ("topology", "algorithm", "model", "datamodule"):
            if key not in cfg:
                raise SpecError(f"config is missing the {key!r} node")
        comp_cfg = cfg.get("compression")
        outer_cfg = cfg.get("outer_compression")
        dp_cfg = cfg.get("privacy")
        sched_cfg = cfg.get("scheduler")
        return cls(
            topology=_plain(cfg["topology"]),
            data=DataSpec(
                dataset=_plain(cfg["datamodule"]),
                partition=str(cfg.get("partition", "dirichlet")),
                partition_alpha=float(cfg.get("partition_alpha", 0.5)),
                batch_size=int(cfg.get("batch_size", 32)),
                feature_noniid=float(cfg.get("feature_noniid", 0.0)),
            ),
            train=TrainSpec(
                algorithm=_plain(cfg["algorithm"]),
                model=_plain(cfg["model"]),
                global_rounds=int(cfg.get("global_rounds", 2)),
                eval_every=int(cfg.get("eval_every", 1)),
                eval_max_batches=cfg.get("eval_max_batches"),
            ),
            plugins=PluginSpec(
                compressor=_plain(comp_cfg) if comp_cfg else None,
                outer_compressor=_plain(outer_cfg) if outer_cfg else None,
                dp=_plain(dp_cfg) if dp_cfg else None,
            ),
            faults=FaultSpec(
                client_fraction=float(cfg.get("client_fraction", 1.0)),
                drop_prob=float(cfg.get("drop_prob", 0.0)),
                straggler_prob=float(cfg.get("straggler_prob", 0.0)),
                straggler_delay=float(cfg.get("straggler_delay", 0.0)),
                selection=str(cfg.get("selection", "random")),
                selection_kwargs=_plain(cfg.get("selection_kwargs") or {}),
            ),
            scheduler=SchedulerSpec.from_value(
                _plain(sched_cfg) if isinstance(sched_cfg, Mapping) else sched_cfg
            ),
            seed=int(cfg.get("seed", 0)),
            total_updates=(
                int(cfg["total_updates"]) if cfg.get("total_updates") is not None else None
            ),
            num_clients=(
                int(cfg["num_clients"]) if cfg.get("num_clients") is not None else None
            ),
            pool_size=(
                int(cfg["pool_size"]) if cfg.get("pool_size") is not None else None
            ),
            broker=str(cfg.get("broker") or "memory://"),
            attack=_plain(cfg.get("attack")) if cfg.get("attack") is not None else None,
            aggregation=(
                _plain(cfg.get("aggregation")) if cfg.get("aggregation") is not None else None
            ),
            mtd=_plain(cfg.get("mtd")) if cfg.get("mtd") is not None else None,
        )


#: every top-level key :meth:`ExperimentSpec.from_config` reads
_CONFIG_KEYS = frozenset({
    "topology", "algorithm", "model", "datamodule", "scheduler",
    "compression", "outer_compression", "privacy",
    "partition", "partition_alpha", "batch_size", "feature_noniid",
    "global_rounds", "eval_every", "eval_max_batches",
    "client_fraction", "drop_prob", "straggler_prob", "straggler_delay",
    "selection", "selection_kwargs",
    "seed", "total_updates", "num_clients", "pool_size", "broker",
    "attack", "aggregation", "mtd",
})


# --------------------------------------------------------------------------
# component resolution (spec -> live objects the executor consumes)
# --------------------------------------------------------------------------

def resolve_topology(spec: ExperimentSpec) -> Any:
    from repro.config.instantiate import instantiate
    from repro.topology.base import build_topology

    ref = spec.topology
    kw = dict(spec.topology_kwargs)
    if spec.num_clients is not None:
        if not isinstance(ref, (str, Mapping)):
            raise SpecError(
                "num_clients cannot override an opaque topology object; "
                "set the cohort size on the object itself"
            )
        kw["num_clients"] = int(spec.num_clients)
    if isinstance(ref, str):
        return build_topology(ref, **kw)
    if isinstance(ref, Mapping):
        return instantiate(dict(ref), **kw)
    return ref


def resolve_datamodule(spec: ExperimentSpec) -> Any:
    from repro.config.instantiate import instantiate
    from repro.data.registry import build_datamodule

    ref = spec.data.dataset
    if isinstance(ref, str):
        return build_datamodule(ref, **dict(spec.data.kwargs))
    if isinstance(ref, Mapping):
        return instantiate(dict(ref), **dict(spec.data.kwargs))
    return ref


def _inject_model_dims(kw: Dict[str, Any], is_mlp: bool, dm: Any, seed: int) -> Dict[str, Any]:
    kw.setdefault("num_classes", dm.num_classes)
    if is_mlp and dm.in_features is not None:
        kw.setdefault("in_features", dm.in_features)
    elif dm.in_channels:
        kw.setdefault("in_channels", dm.in_channels)
    kw.setdefault("seed", seed)
    return kw


def resolve_model_fn(spec: ExperimentSpec, dm: Any) -> Callable[[], Any]:
    from repro.config.instantiate import instantiate
    from repro.models.registry import build_model

    ref = spec.train.model
    if isinstance(ref, str):
        kw = _inject_model_dims(dict(spec.train.model_kwargs), ref == "mlp", dm, spec.seed)
        return lambda: build_model(ref, **kw)
    if isinstance(ref, Mapping):
        cfg = dict(ref)
        cfg.update(spec.train.model_kwargs)
        cfg = _inject_model_dims(cfg, "mlp" in str(cfg.get("_target_", "")), dm, spec.seed)
        return lambda: instantiate(dict(cfg))
    return ref  # opaque factory


def _factory(ref: Any, kwargs: Mapping[str, Any], build: Callable[..., Any]) -> Any:
    """A zero-argument factory for one component reference: a registry name
    builds through ``build``, a ``_target_`` mapping instantiates (``kwargs``
    on top either way), anything else already is the factory — or ``None``."""
    from repro.config.instantiate import instantiate

    if isinstance(ref, str):
        kw = dict(kwargs)
        return lambda: build(ref, **kw)
    if isinstance(ref, Mapping):
        cfg = {**ref, **kwargs}
        return lambda: instantiate(dict(cfg))
    return ref


def resolve_algorithm_fn(spec: ExperimentSpec) -> Callable[[], Any]:
    from repro.algorithms.base import build_algorithm

    return _factory(spec.train.algorithm, spec.train.algorithm_kwargs, build_algorithm)


def resolve_plugin_fns(spec: ExperimentSpec):
    """(compressor_fn, outer_compressor_fn, dp_fn) factories, each optional."""
    from repro.compression.base import build_compressor
    from repro.config.instantiate import instantiate
    from repro.privacy.dp import DifferentialPrivacy

    plugins = spec.plugins
    comp_fn = _factory(plugins.compressor, plugins.compressor_kwargs, build_compressor)
    outer_fn = _factory(
        plugins.outer_compressor, plugins.outer_compressor_kwargs, build_compressor
    )

    dp_ref = plugins.dp
    if dp_ref is None:
        dp_fn = None
    elif isinstance(dp_ref, Mapping):
        cfg = dict(dp_ref)
        if "_target_" in cfg:
            dp_fn = lambda: instantiate(dict(cfg))  # noqa: E731
        else:
            dp_fn = lambda: DifferentialPrivacy(**cfg)  # noqa: E731
    else:
        dp_fn = dp_ref  # opaque factory
    return comp_fn, outer_fn, dp_fn


def resolve_scheduler(sched: Any) -> Any:
    """The live scheduler for a spec's ``scheduler`` field (or anything
    :meth:`SchedulerSpec.from_value` normalized): a :class:`SchedulerSpec`
    builds by registry name or ``_target_``, a ``Scheduler`` instance
    passes through, ``None`` stays ``None``."""
    from repro.config.instantiate import instantiate
    from repro.scheduler.base import Scheduler, build_scheduler

    if sched is None or isinstance(sched, Scheduler):
        return sched
    if not isinstance(sched, SchedulerSpec):
        raise TypeError(f"cannot build a scheduler from {type(sched).__name__}")
    if sched.name is not None:
        return build_scheduler(sched.name, **sched.kwargs)
    obj = instantiate(dict(sched.kwargs))
    if not isinstance(obj, Scheduler):
        raise TypeError(f"scheduler config built {type(obj).__name__}, not a Scheduler")
    return obj


def resolve_attack_plan(spec: ExperimentSpec, num_clients: int, num_classes: int) -> Any:
    """The executable attack plan for this spec, or ``None`` (honest run).

    Pure in ``(spec, num_clients, num_classes)``: the engine, broker
    workers, and live cluster members all call this against the same published
    spec and derive the identical attacker set.
    """
    if spec.attack is None:
        return None
    from repro.robust.roles import build_attack_plan

    return build_attack_plan(spec.attack, int(num_clients), int(num_classes), int(spec.seed))


def resolve_data_provider(spec: ExperimentSpec, datamodule: Any, num_clients: int) -> Any:
    """The per-client data views.  Pure in ``(spec, num_clients)``: the
    engine and every worker process partition identically."""
    from repro.data.views import ClientDataProvider

    return ClientDataProvider(
        datamodule,
        int(num_clients),
        spec.data.partition,
        alpha=spec.data.partition_alpha,
        seed=int(spec.seed),
        feature_noniid=float(spec.data.feature_noniid),
    )


def resolve_node_fn(spec: ExperimentSpec, datamodule: Any, attack_plan: Any) -> Callable[..., Any]:
    """``(node_spec, train_dataset) -> Node``: the one place nodes are built.

    The engine calls it for every topology node and pool worker, and each
    worker process calls it for its trainer against the published spec —
    the same seeded factories either way, which is what makes a remote
    turn bit-identical to an in-process one.  Training-only parts (dp,
    scripted faults, the attack) attach to trainer roles only.
    """
    from repro.node.node import Node

    model_fn = resolve_model_fn(spec, datamodule)
    algorithm_fn = resolve_algorithm_fn(spec)
    compressor_fn, outer_compressor_fn, dp_fn = resolve_plugin_fns(spec)
    faults = spec.faults

    def make_node(nspec: Any, train_dataset: Any = None) -> Any:
        trains = nspec.role.trains()
        return Node(
            spec=nspec,
            model=model_fn(),
            algorithm=algorithm_fn(),
            train_dataset=train_dataset,
            test_dataset=datamodule.test,
            batch_size=int(spec.data.batch_size),
            seed=int(spec.seed),
            dp=dp_fn() if (dp_fn is not None and trains) else None,
            compressor=compressor_fn() if compressor_fn is not None else None,
            outer_compressor=outer_compressor_fn() if outer_compressor_fn is not None else None,
            drop_prob=faults.drop_prob if trains else 0.0,
            straggler_prob=faults.straggler_prob if trains else 0.0,
            straggler_delay=faults.straggler_delay,
            attack=attack_plan.attack if attack_plan is not None and trains else None,
            attacker_ids=attack_plan.attacker_ids if attack_plan is not None else (),
        )

    return make_node


def resolve_robust_fn(spec: ExperimentSpec) -> Optional[Callable[[], Any]]:
    """A factory of fresh robust-aggregator instances, or ``None``.

    A *factory* rather than an instance: every scheduler binding (including
    each hierarchical site tier) gets its own instance so clip/reject
    counters stay per-tier.  The name and kwargs are validated eagerly so a
    bad spec fails at engine construction, not mid-run.
    """
    agg = spec.aggregation
    if agg is None or agg.robust is None:
        return None
    from repro.robust.aggregators import build_robust_aggregator

    name, kwargs = str(agg.robust), dict(agg.kwargs)
    build_robust_aggregator(name, **kwargs)  # validate eagerly
    return lambda: build_robust_aggregator(name, **kwargs)
