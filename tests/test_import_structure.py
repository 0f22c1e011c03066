"""What a process imports: lazy package surfaces and the worker's closure.

Package ``__init__``s that gather heavy siblings re-export lazily
(:mod:`repro.utils.lazy`), so a ``python -m repro worker`` process loads the
turn loop and nothing of the rounds loop, the schedulers, the ops server or
Paillier.  Each check runs in a fresh interpreter, because this test
session has long since imported everything.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.experiment import ExperimentSpec
from repro.utils.lazy import lazy_surface

SRC = Path(repro.__file__).resolve().parents[1]

LAZY_PACKAGES = [
    "repro", "repro.engine", "repro.experiment", "repro.runtime", "repro.comm",
    "repro.privacy", "repro.telemetry",
]

#: what a worker never needs: the rounds loop and its communicators, the
#: schedulers, the ops HTTP server, HE/SA, the live-cluster control plane
WORKER_NEVER_IMPORTS = [
    "repro.engine.engine", "repro.scheduler", "repro.comm.rpc", "repro.comm.pubsub",
    "repro.comm.torchdist", "repro.comm.collectives", "repro.comm.transport",
    "repro.telemetry.server", "repro.privacy.paillier", "repro.privacy.he",
    "repro.privacy.secure_agg", "repro.cluster", "repro.experiment.experiment",
    "http.server",
]


def _run(code: str, stdin: str = "") -> str:
    proc = subprocess.run(
        [sys.executable, "-c", code], input=stdin, capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_worker_load_imports_only_the_turn_loop():
    # Worker.load itself (spec from YAML -> datamodule -> data provider ->
    # node -> FusedTurnRunner.build), fed the published spec by a stub link
    spec = ExperimentSpec(
        topology="centralized", num_clients=8,
        data={"dataset": "blobs", "kwargs": {"train_size": 32, "test_size": 16},
              "partition": "iid", "batch_size": 4},
        train={"algorithm": "fedavg", "model": "mlp", "global_rounds": 1, "eval_every": 0,
               "algorithm_kwargs": {"lr": 0.05, "local_epochs": 1, "max_batches_per_epoch": 1}},
        scheduler={"name": "fedasync", "concurrency": 4},
        broker="redis://127.0.0.1:1/0?run=imports",
    )
    code = f"""
import sys
from repro.runtime.broker import TurnBroker, register_broker
from repro.runtime.worker import Worker

class SpecLink:
    def open(self):
        return sys.stdin.read(), None

@register_broker("specfile")
class SpecBroker(TurnBroker):
    @classmethod
    def worker_link(cls, url, worker_id):
        return SpecLink()

worker = Worker("specfile://x")
worker.load()
assert worker.runner is not None  # the fusing configuration, as on redis://
never = {WORKER_NEVER_IMPORTS!r}
print(sorted(m for m in sys.modules if any(m == n or m.startswith(n + ".") for n in never)))
"""
    assert _run(code, stdin=spec.to_yaml()).strip() == "[]"


def _definitions(package: str) -> dict:
    """name -> the one module under ``package`` whose source binds it at top
    level (a def, a class or an assignment; re-exports do not count)."""
    root = SRC.joinpath(*package.split("."))
    found: dict = {}
    for path in sorted(root.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        if module.endswith(".__init__"):
            continue
        for node in ast.parse(path.read_text(encoding="utf8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                found.setdefault(name, set()).add(module)
    return found


@pytest.mark.parametrize("preload", [False, True], ids=["lazy", "submodules-first"])
def test_lazy_surfaces_resolve_to_their_defining_objects(preload):
    # "submodules-first" imports every defining module before touching a
    # surface: the order in which a submodule import could rebind a name
    expected = {}
    for package in LAZY_PACKAGES:
        defs = _definitions(package)
        for name in importlib.import_module(package).__all__:
            if name == "__version__":
                continue
            modules = sorted(defs.get(name, ()))
            assert len(modules) == 1, (package, name, modules)
            expected.setdefault(package, {})[name] = modules[0]
    code = f"""
import importlib
expected = {expected!r}
if {preload!r}:
    for names in expected.values():
        for module in names.values():
            importlib.import_module(module)
for package, names in expected.items():
    pkg = importlib.import_module(package)
    listed = dir(pkg)
    for name, module in names.items():
        assert name in listed, (package, name)
        value = getattr(pkg, name)
        assert value is getattr(importlib.import_module(module), name), (package, name)
namespace = {{}}
exec("from repro import *", namespace)
import repro
assert set(repro.__all__) <= set(namespace), set(repro.__all__) - set(namespace)
print("ok")
"""
    assert _run(code).strip() == "ok"


def test_a_name_that_shadows_its_submodule_cannot_be_lazy():
    # importing repro.config.compose rebinds repro.config.compose to the
    # module, so a lazy `compose` would turn into the module under a caller
    with pytest.raises(ValueError, match="import it eagerly"):
        lazy_surface("repro.config", {"repro.config.compose": ["compose"]})
