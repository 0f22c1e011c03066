"""The map: what a spec can reach, and nothing else.

Four rules over the stdlib ``ast`` of ``src/`` (the fourth over every
``.py`` file of the repo; no ``repro`` module is imported, so the audit sees
the files as committed and runs in about three seconds):

* **modules** — every module is reachable from :data:`ROOTS` along import
  edges, or sits in :data:`ALLOWED` beside the paper artefact it exists for;
* **names** — every public top-level ``def``/``class`` of a reachable module
  has a user outside ``tests/``, computed to a fixpoint (a name whose only
  users are dead names is dead);
* **dependencies** — every third-party import of ``src/`` is declared in
  ``setup.py``'s ``install_requires``, and every declared requirement is
  imported;
* **imports** — every module-level import binds a name its file uses (what
  ``ruff check``'s F401 asks of the same files, with the same exemption for
  the registry ``__init__`` modules of ``src/repro``).

Each rule is a function of a source root, so the second half of this file
plants one defect per case in a small synthetic package and checks that the
rule names it.
"""

from __future__ import annotations

import ast
import re
import sys
from functools import lru_cache
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

import pytest

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"

#: where a run starts: the experiment API, the CLI and the registry packages
#: a spec names members of (every conf ``_target_`` is added to these)
ROOTS = [
    # the package's own surface: README's quickstart, and the only way to
    # reach the Telemetry callback and OpsServer, which a run takes as
    # callbacks rather than from the spec
    "repro",
    "repro.experiment",
    "repro.__main__",
    "repro.algorithms",
    "repro.models",
    "repro.compression",
    "repro.topology",
    "repro.data",
    "repro.scheduler",
]

#: modules no spec reaches, each kept for the artefact it reproduces
#: (``pkg.*`` covers a package and every module in it)
ALLOWED = {
    "repro.streaming.*": "Fig. 6 — benchmarks/bench_fig6_streaming.py and "
                         "examples/streaming_realtime.py drive it",
    "repro.privacy.he": "Table 3b — HE column of benchmarks/bench_table3b_privacy_overhead.py",
    "repro.privacy.paillier": "Table 3b — the cryptosystem under repro.privacy.he",
    "repro.privacy.secure_agg": "Table 3b — SA column of benchmarks/bench_table3b_privacy_overhead.py",
    "repro.privacy.diffie_hellman": "Table 3b — the key agreement under repro.privacy.secure_agg",
    "repro.omnifed.*": "the paper's Fig. 2 config namespace (src.omnifed.* targets)",
    "repro.runtime.miniredis": "the RESP server the redis tests and benchmarks/perf's "
                               "redis_worker workload run against",
}

#: files outside ``src/`` whose uses keep a name alive (``tests/`` is not one)
USER_FILES = [
    *sorted((REPO / "benchmarks").rglob("*.py")),
    *sorted((REPO / "examples").rglob("*.py")),
    *sorted((REPO / "scripts").rglob("*.py")),
    REPO / "README.md",
]

Symbol = Tuple[str, Optional[str]]  # (module, top-level name), or (module, None)


# ----------------------------------------------------------------------
# the source tree as ASTs
# ----------------------------------------------------------------------
@lru_cache(maxsize=None)
def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf8"), filename=str(path))


class Module:
    """One module's top-level definitions, import bindings and lazy surface."""

    def __init__(self, name: str, path: Path, tree: Optional[ast.Module] = None) -> None:
        self.name = name
        self.tree = _parse(path) if tree is None else tree
        self.package = name if path.name == "__init__.py" else name.rpartition(".")[0]
        #: public and private top-level ``def``/``class`` nodes
        self.defs: Dict[str, ast.AST] = {
            node.name: node for node in self.tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        }
        self.assigned: Set[str] = set()
        for node in self.tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            for target in targets:
                for sub in ast.walk(target) if target is not None else ():
                    if isinstance(sub, ast.Name):
                        self.assigned.add(sub.id)
        #: every node of each top-level statement, walked once
        self.statements: List[Tuple[ast.stmt, List[ast.AST]]] = [
            (stmt, list(ast.walk(stmt))) for stmt in self.tree.body
        ]
        #: local name -> (dotted module, None) or (module, attribute) it was imported as
        self.bindings: Dict[str, Tuple[str, Optional[str]]] = {}
        #: lazy-surface name -> its defining module
        self.surface: Dict[str, str] = {}
        for node in self.nodes():
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.bindings[alias.asname] = (alias.name, None)
                    else:
                        top = alias.name.split(".")[0]
                        self.bindings[top] = (top, None)
            elif isinstance(node, ast.ImportFrom):
                source = self.absolute(node)
                for alias in node.names:
                    self.bindings[alias.asname or alias.name] = (source, alias.name)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "lazy_surface" and len(node.args) == 2
                    and isinstance(node.args[1], ast.Dict)):
                for key, value in zip(node.args[1].keys, node.args[1].values):
                    for name in ast.literal_eval(value):
                        self.surface[name] = ast.literal_eval(key)

    def nodes(self) -> Iterator[ast.AST]:
        for _, nodes in self.statements:
            yield from nodes

    def absolute(self, node: ast.ImportFrom) -> str:
        if not node.level:
            return node.module or ""
        parts = self.package.split(".")
        base = parts[: len(parts) - (node.level - 1)]
        return ".".join(base + ([node.module] if node.module else []))


class Tree:
    """Every module under a source root, with name resolution across them."""

    def __init__(self, src_root: Path) -> None:
        self.modules: Dict[str, Module] = {}
        for path in sorted(src_root.rglob("*.py")):
            parts = list(path.relative_to(src_root).with_suffix("").parts)
            if parts[-1] == "__init__":
                parts.pop()
            self.modules[".".join(parts)] = Module(".".join(parts), path)
        self.packages = {p.name for p in src_root.iterdir() if (p / "__init__.py").exists()}
        self.targets = [
            match for path in sorted(src_root.rglob("*.yaml"))
            for match in re.findall(r"^\s*_target_:\s*([\w.]+)", path.read_text(), re.M)
        ]
        self._reached: Dict[Tuple[str, ...], Set[str]] = {}

    def resolve(self, module: str, name: str, depth: int = 0) -> Optional[Symbol]:
        """The defining ``(module, name)`` of ``module.name`` (name ``None``
        when it is a submodule), following package re-exports and lazy
        surfaces; ``None`` when it lies outside the tree."""
        mod = self.modules.get(module)
        if mod is None or depth > 20:
            return None
        if name in mod.defs or (name in mod.assigned and name not in mod.bindings):
            return (module, name)
        if name in mod.surface:
            return self.resolve(mod.surface[name], name, depth + 1)
        # ``from pkg import sub`` inside ``pkg`` binds the submodule itself
        if name in mod.bindings and mod.bindings[name] != (module, name):
            return self.binding(mod, name, depth + 1)
        if f"{module}.{name}" in self.modules:
            return (f"{module}.{name}", None)
        return (module, name)

    def binding(self, mod: Module, local: str, depth: int = 0) -> Optional[Symbol]:
        source, attr = mod.bindings[local]
        if attr is None:
            return (source, None) if source in self.modules else None
        return self.resolve(source, attr, depth)

    def expr(self, mod: Module, node: ast.AST) -> Optional[Symbol]:
        """What a ``Name`` or dotted ``Attribute`` chain in ``mod`` names."""
        if isinstance(node, ast.Name):
            if node.id in mod.bindings:
                return self.binding(mod, node.id)
            if node.id in mod.defs:
                return (mod.name, node.id)
            return None
        if isinstance(node, ast.Attribute):
            base = self.expr(mod, node.value)
            if base is not None and base[1] is None:
                return self.resolve(base[0], node.attr)
        return None

    def target(self, dotted: str) -> Optional[Symbol]:
        """A ``_target_`` path, located as :func:`repro.config.locate` does:
        the longest proper prefix that is a module, then attributes."""
        parts = dotted.split(".")
        for split in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:split])
            if module in self.modules:
                symbol: Optional[Symbol] = (module, None)
                for attr in parts[split:]:
                    if symbol is None or symbol[1] is not None:
                        break
                    symbol = self.resolve(symbol[0], attr)
                return symbol
        return None

    def references(self, mod: Module, nodes: Iterable[ast.AST]) -> Iterator[Symbol]:
        """Every symbol of this tree that ``nodes`` load, by name or by a
        dotted attribute chain."""
        for node in nodes:
            if isinstance(node, ast.Attribute) or (
                isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            ):
                symbol = self.expr(mod, node)
                if symbol is not None:
                    yield symbol

    def reachable(self, roots: Iterable[str]) -> Set[str]:
        """Modules reachable from ``roots`` and the conf ``_target_``s.  A
        root package's lazy surface is its API, so the surface's modules are
        roots too; importing a module runs every package ``__init__`` above it."""
        key = tuple(roots)
        if key not in self._reached:
            todo = [m for root in key if root in self.modules
                    for m in (root, *self.modules[root].surface.values())]
            todo += [s[0] for s in map(self.target, self.targets) if s is not None]
            seen: Set[str] = set()
            while todo:
                name = todo.pop()
                if name in seen or name not in self.modules:
                    continue
                seen.add(name)
                parts = name.split(".")
                todo += [".".join(parts[:i]) for i in range(1, len(parts))]
                todo += self.edges(self.modules[name])
            self._reached[key] = seen
        return self._reached[key]

    def edges(self, mod: Module) -> Set[str]:
        """Modules that importing ``mod`` imports: every ``import``/``from``
        (relative and function-local ones included, a lazy-surface name's
        defining module only) and the module-path values of a
        ``BROKER_SCHEMES`` map."""
        out: Set[str] = set()
        for node in mod.nodes():
            if isinstance(node, ast.Import):
                out.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                source = mod.absolute(node)
                out.add(source)
                for alias in node.names:
                    symbol = self.resolve(source, alias.name)
                    if symbol is not None:
                        out.add(symbol[0])
            elif _assigns(node, "BROKER_SCHEMES") and isinstance(node.value, ast.Dict):
                out.update(v.value for v in node.value.values
                           if isinstance(v, ast.Constant) and isinstance(v.value, str))
        return out & set(self.modules)

    def covered(self, entry: str) -> Set[str]:
        """The modules an allow-list entry names (``pkg.*``: all of ``pkg``)."""
        if entry.endswith(".*"):
            package = entry[:-2]
            return {m for m in self.modules if m == package or m.startswith(package + ".")}
        return {entry} & set(self.modules)


@lru_cache(maxsize=None)
def load(src_root: Path) -> Tree:
    return Tree(src_root)


def _assigns(node: ast.AST, name: str) -> bool:
    if isinstance(node, ast.Assign):
        return any(isinstance(t, ast.Name) and t.id == name for t in node.targets)
    return isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == name


# ----------------------------------------------------------------------
# rule 1: modules
# ----------------------------------------------------------------------
def module_problems(src_root: Path, roots: Iterable[str], allowed: Mapping[str, str]) -> List[str]:
    """Unreachable modules that no allow-list entry covers, and stale entries
    (naming no module, or naming a reachable one)."""
    tree = load(src_root)
    reached = tree.reachable(roots)
    covered = {entry: tree.covered(entry) for entry in allowed}
    problems = [
        f"unreachable module {m}: reach it, delete it, or allow-list it with its artefact"
        for m in sorted(set(tree.modules) - reached - set().union(*covered.values()))
    ]
    for entry, modules in sorted(covered.items()):
        if not modules:
            problems.append(f"stale allow-list entry {entry}: no such module")
        elif modules & reached:
            problems.append(f"stale allow-list entry {entry}: "
                            f"{', '.join(sorted(modules & reached))} is reachable")
    return problems


# ----------------------------------------------------------------------
# rule 2: names
# ----------------------------------------------------------------------
def _registered(node: ast.AST) -> bool:
    """Decorated ``@X.register(...)`` or ``@register_broker(...)``."""
    for deco in getattr(node, "decorator_list", ()):
        func = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(func, ast.Attribute) and func.attr == "register":
            return True
        if isinstance(func, ast.Name) and func.id == "register_broker":
            return True
    return False


def _user_trees(path: Path) -> List[ast.Module]:
    """A user file's code: a ``.py`` file, or a markdown file's python blocks."""
    if path.suffix != ".md":
        return [_parse(path)]
    out = []
    for block in re.findall(r"^```python\n(.*?)^```", path.read_text(), re.M | re.S):
        try:
            out.append(ast.parse(block))
        except SyntaxError:
            pass
    return out


def dead_names(
    src_root: Path, roots: Iterable[str], allowed: Mapping[str, str], user_files: Iterable[Path]
) -> List[str]:
    """Public top-level ``def``/``class`` names of reachable modules with no
    live user.  Users: ``src`` modules (a name's own module outside its
    definition included; a package re-export, ``__all__`` or lazy-surface
    list is not a use), ``user_files``, and conf ``_target_``s.  Registry
    members count as used.  Liveness is a least fixpoint: a use inside a
    top-level definition counts only once that definition is live."""
    tree = load(src_root)
    exempt = set().union(*(tree.covered(entry) for entry in allowed))
    candidates = {(m, name) for m in tree.reachable(roots) - exempt for name in tree.modules[m].defs}
    #: candidate -> the candidates whose bodies use it (None: a live user)
    users: Dict[Symbol, Set[Optional[Symbol]]] = {}

    def note(symbol: Symbol, user: Optional[Symbol]) -> None:
        if symbol in candidates:
            users.setdefault(symbol, set()).add(user if user in candidates else None)

    for mod in tree.modules.values():
        for stmt, nodes in mod.statements:
            user = (mod.name, stmt.name) if stmt is mod.defs.get(getattr(stmt, "name", "")) else None
            if user is not None and _registered(stmt):
                note(user, None)
            for symbol in tree.references(mod, nodes):
                note(symbol, user)
    for path in user_files:
        for parsed in _user_trees(path):
            for symbol in tree.references(Module("__user__", path, parsed), ast.walk(parsed)):
                note(symbol, None)
    for symbol in map(tree.target, tree.targets):
        if symbol is not None:
            note(symbol, None)

    alive: Set[Symbol] = set()
    grew = True
    while grew:
        grew = False
        for symbol, used_by in users.items():
            if symbol not in alive and any(u is None or u in alive for u in used_by):
                alive.add(symbol)
                grew = True
    return sorted(f"{m}.{name}" for m, name in candidates - alive if not name.startswith("_"))


# ----------------------------------------------------------------------
# rule 3: dependencies
# ----------------------------------------------------------------------
def install_requires(setup_py: Path) -> List[str]:
    """``setup(install_requires=[...])``, read from the AST of ``setup.py``."""
    for node in ast.walk(_parse(setup_py)):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "setup":
            for keyword in node.keywords:
                if keyword.arg == "install_requires":
                    return list(ast.literal_eval(keyword.value))
    return []


def dependency_problems(src_root: Path, requirements: Iterable[str]) -> List[str]:
    """Third-party imports of ``src_root`` (``TYPE_CHECKING`` and
    function-local ones included) that ``requirements`` does not declare,
    and declared requirements that nothing there imports."""
    tree = load(src_root)
    local = tree.packages | {"__future__"} | set(sys.stdlib_module_names)
    imported: Dict[str, Set[str]] = {}
    for mod in tree.modules.values():
        for node in mod.nodes():
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            for top in {name.split(".")[0] for name in names} - local:
                imported.setdefault(top.lower(), set()).add(mod.name)
    declared = {
        re.split(r"[<>=!~;\[ ]", r, maxsplit=1)[0].lower().replace("-", "_"): r
        for r in requirements
    }
    return [
        f"undeclared third-party import {name} (in {', '.join(sorted(where))})"
        for name, where in sorted(imported.items()) if name not in declared
    ] + [
        f"declared requirement {declared[name]} is imported nowhere in src"
        for name in sorted(declared) if name not in imported
    ]


# ----------------------------------------------------------------------
# rule 4: imports
# ----------------------------------------------------------------------
def _module_level_imports(body: List[ast.stmt]) -> Iterator[ast.stmt]:
    """The ``import``/``from`` statements of a module body, also inside its
    top-level ``if``/``try``/``with`` blocks (not inside a def or class)."""
    for stmt in body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            yield stmt
        elif not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for _, value in ast.iter_fields(stmt):
                for item in value if isinstance(value, list) else ():
                    if isinstance(item, ast.stmt):
                        yield from _module_level_imports([item])
                    elif isinstance(item, (ast.excepthandler, ast.match_case)):
                        yield from _module_level_imports(item.body)


def _used_names(tree: ast.Module) -> Set[str]:
    """Names the module loads anywhere, names inside string annotations
    (``"Future[Any]"``) included, and the strings of its ``__all__``."""
    used: Set[str] = set()
    annotations: List[ast.AST] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                used.update(sub.id for sub in ast.walk(parsed) if isinstance(sub, ast.Name))
    for stmt in tree.body:
        if _assigns(stmt, "__all__") or (isinstance(stmt, ast.AugAssign)
                                         and getattr(stmt.target, "id", None) == "__all__"):
            used.update(node.value for node in ast.walk(stmt.value)
                        if isinstance(node, ast.Constant) and isinstance(node.value, str))
    return used


def unused_imports(root: Path, exempt_package: str) -> List[str]:
    """Module-level imports no part of their file uses, in every ``.py``
    file under ``root`` (hidden and build directories skipped).  The
    ``__init__`` modules of ``root/src/<exempt_package>`` re-export what
    they import, so they are exempt; ``from __future__`` imports are not
    names."""
    exempt = root / "src" / exempt_package
    problems = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root)
        if any(part.startswith(".") or part in ("build", "dist") for part in rel.parts):
            continue
        if path.name == "__init__.py" and exempt in path.parents:
            continue
        tree = _parse(path)
        used = _used_names(tree)
        for stmt in _module_level_imports(tree.body):
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            for alias in stmt.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "*" and name not in used:
                    problems.append(f"{rel.as_posix()}:{stmt.lineno}: unused import {name}")
    return problems


# ----------------------------------------------------------------------
# the repo's own tree
# ----------------------------------------------------------------------
def test_every_module_is_reachable_or_allowed():
    problems = module_problems(SRC, ROOTS, ALLOWED)
    assert not problems, "\n".join(problems)


def test_every_public_name_has_a_user_outside_tests():
    dead = dead_names(SRC, ROOTS, ALLOWED, USER_FILES)
    assert not dead, "no user outside tests/ (delete, or use):\n" + "\n".join(dead)


def test_install_requires_is_exactly_what_src_imports():
    requirements = install_requires(REPO / "setup.py")
    problems = dependency_problems(SRC, requirements)
    assert not problems, "\n".join(problems)
    assert requirements == ["numpy>=1.23"]


def test_every_module_level_import_is_used():
    problems = unused_imports(REPO, "repro")
    assert not problems, "\n".join(problems)


# ----------------------------------------------------------------------
# the rules on a synthetic package, one planted defect per case
# ----------------------------------------------------------------------
CLEAN = {
    "pkg/__init__.py": (
        "from pkg.surface import lazy_surface\n"
        "__getattr__, __dir__, __all__ = lazy_surface(\n"
        "    __name__, {'pkg.core': ['Engine'], 'pkg.side': ['Side']})\n"
    ),
    "pkg/surface.py": "def lazy_surface(package, exports):\n    return None, None, []\n",
    "pkg/main.py": (
        "import numpy as np\n"
        "from pkg import Engine, Side\n\n\n"
        "def main():\n"
        "    return Engine(np.zeros(1)), Side()\n\n\n"
        "if __name__ == '__main__':\n"
        "    main()\n"
    ),
    "pkg/core.py": (
        "from .helpers import helper\n\n\n"
        "class Engine:\n"
        "    def __init__(self, x):\n"
        "        self.x = helper(x)\n"
    ),
    "pkg/helpers.py": "def helper(x):\n    return x\n",
    "pkg/side.py": "class Side:\n    pass\n",
    "pkg/models.py": (
        "class Registry:\n"
        "    def register(self, name):\n"
        "        return lambda obj: obj\n\n\n"
        "MODELS = Registry()\n\n\n"
        "@MODELS.register('tiny')\n"
        "def tiny():\n"
        "    return 0\n"
    ),
    "pkg/conf/tiny.yaml": "_target_: pkg.models.tiny\n",
    "pkg/artefact.py": "from pkg.helpers import helper\n\n\ndef figure():\n    return helper(9)\n",
}


class Synthetic:
    """A package ``pkg`` under ``tmp_path/src`` with a root, a lazy surface,
    a relative import, a registry member, a conf target and an allow-listed
    artefact module; ``bench.py`` beside it is its first user file."""

    def __init__(self, tmp_path: Path, changes: Mapping[str, str]) -> None:
        self.src = tmp_path / "src"
        for name, text in {**CLEAN, **changes}.items():
            path = self.src / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        bench = tmp_path / "bench.py"
        bench.write_text("from pkg.artefact import figure\n\nfigure()\n")
        self.root = tmp_path
        self.user_files = [bench]
        self.roots = ["pkg.main"]
        self.allowed = {"pkg.artefact": "Fig. 9"}
        self.requirements = ["numpy>=1.23"]

    def problems(self) -> List[str]:
        return (
            module_problems(self.src, self.roots, self.allowed)
            + dead_names(self.src, self.roots, self.allowed, self.user_files)
            + dependency_problems(self.src, self.requirements)
            + unused_imports(self.root, "pkg")
        )


def test_synthetic_clean_tree_passes(tmp_path):
    assert Synthetic(tmp_path, {}).problems() == []


def test_synthetic_unreachable_module(tmp_path):
    tree = Synthetic(tmp_path, {"pkg/orphan.py": "def lost():\n    return 1\n"})
    assert tree.problems() == [
        "unreachable module pkg.orphan: reach it, delete it, or allow-list it with its artefact"
    ]


def test_synthetic_name_used_only_by_a_test(tmp_path):
    tree = Synthetic(tmp_path, {"pkg/side.py": CLEAN["pkg/side.py"] + "\n\ndef probe():\n    return 2\n"})
    (tmp_path / "test_side.py").write_text("from pkg.side import probe\n\nassert probe() == 2\n")
    assert tree.problems() == ["pkg.side.probe"]


def test_synthetic_name_used_only_by_a_dead_name(tmp_path):
    helpers = CLEAN["pkg/helpers.py"] + (
        "\n\ndef outer():\n    return inner()\n\n\ndef inner():\n    return outer\n"
    )
    assert Synthetic(tmp_path, {"pkg/helpers.py": helpers}).problems() == [
        "pkg.helpers.inner", "pkg.helpers.outer",
    ]


def test_synthetic_module_behind_a_lazy_surfaces_other_name(tmp_path):
    main = CLEAN["pkg/main.py"].replace("from pkg import Engine, Side", "from pkg import Engine")
    main = main.replace("Engine(np.zeros(1)), Side()", "Engine(np.zeros(1))")
    assert Synthetic(tmp_path, {"pkg/main.py": main}).problems() == [
        "unreachable module pkg.side: reach it, delete it, or allow-list it with its artefact"
    ]


def test_synthetic_declared_requirement_nothing_imports(tmp_path):
    tree = Synthetic(tmp_path, {})
    tree.requirements.append("scipy>=1.9")
    assert tree.problems() == ["declared requirement scipy>=1.9 is imported nowhere in src"]


def test_synthetic_undeclared_third_party_import(tmp_path):
    side = (
        "from typing import TYPE_CHECKING\n\n"
        "if TYPE_CHECKING:\n    import networkx as nx\n\n\n"
        "class Side:\n    graph: \"nx.Graph\"\n"
    )
    assert Synthetic(tmp_path, {"pkg/side.py": side}).problems() == [
        "undeclared third-party import networkx (in pkg.side)"
    ]


@pytest.mark.parametrize("entry, why", [
    ("pkg.gone", "no such module"),
    ("pkg.gone.*", "no such module"),
    ("pkg.helpers", "pkg.helpers is reachable"),
])
def test_synthetic_stale_allow_list_entry(tmp_path, entry, why):
    tree = Synthetic(tmp_path, {})
    tree.allowed[entry] = "an artefact"
    assert tree.problems() == [f"stale allow-list entry {entry}: {why}"]


HELPERS = CLEAN["pkg/helpers.py"]


@pytest.mark.parametrize("changes, expected", [
    pytest.param(
        {"pkg/helpers.py": HELPERS + "\n\ndef spare():\n    return 3\n",
         "pkg/__init__.py": CLEAN["pkg/__init__.py"] + "from pkg.helpers import spare\n__all__ += ['spare']\n"},
        ["pkg.helpers.spare"], id="re-export-and-__all__-are-not-uses"),
    pytest.param(
        {"pkg/helpers.py": HELPERS + "\n\ndef loop(n):\n    return loop(n - 1)\n"},
        ["pkg.helpers.loop"], id="recursion-is-not-a-use"),
    pytest.param(
        {"pkg/helpers.py": "def helper(x):\n    return sibling(x)\n\n\ndef sibling(x):\n    return x\n"},
        [], id="own-module-use-by-a-live-name"),
    pytest.param(
        {"pkg/models.py": CLEAN["pkg/models.py"] + "\n\n@MODELS.register('big')\ndef big():\n    return 1\n"},
        [], id="registry-member"),
    pytest.param(
        {"pkg/plugins.py": "def plugin():\n    return 4\n",
         "pkg/conf/plugin.yaml": "_target_: pkg.plugins.plugin\n"},
        [], id="conf-target-reaches-and-uses"),
    pytest.param(
        {"pkg/late.py": "LATE = 5\n",
         "pkg/core.py": CLEAN["pkg/core.py"] + "\n\ndef load():\n    from pkg import late\n    return late\n",
         "pkg/main.py": CLEAN["pkg/main.py"].replace("Side()", "Side(), core.load()").replace(
             "from pkg import Engine, Side", "from pkg import Engine, Side, core")},
        [], id="function-local-import-is-an-edge"),
    pytest.param(
        {"pkg/remote.py": "PORT = 6\n",
         "pkg/helpers.py": HELPERS + "\n\nBROKER_SCHEMES = {'remote': 'pkg.remote'}\n"},
        [], id="broker-schemes-path-is-an-edge"),
])
def test_synthetic_what_counts_as_a_use_or_an_edge(tmp_path, changes, expected):
    assert Synthetic(tmp_path, changes).problems() == expected


def test_synthetic_readme_python_block_is_a_user(tmp_path):
    tree = Synthetic(tmp_path, {"pkg/helpers.py": HELPERS + "\n\ndef documented():\n    return 5\n"})
    readme = tmp_path / "README.md"
    readme.write_text("Use it:\n\n```python\nfrom pkg.helpers import documented\n\ndocumented()\n```\n")
    assert tree.problems() == ["pkg.helpers.documented"]
    tree.user_files.append(readme)
    assert tree.problems() == []


@pytest.mark.parametrize("path, text, expected", [
    pytest.param("src/pkg/side.py", "import os\n\n\nclass Side:\n    pass\n",
                 ["src/pkg/side.py:1: unused import os"], id="unused-in-src"),
    pytest.param("tests/test_side.py", "import json\nfrom pkg.side import Side\n\nassert Side()\n",
                 ["tests/test_side.py:1: unused import json"], id="unused-outside-src"),
    pytest.param("src/pkg/side.py",
                 "from typing import TYPE_CHECKING\n\nif TYPE_CHECKING:\n    import io\n    import re\n\n\n"
                 "class Side:\n    stream: \"io.TextIOBase\"\n\n    def read(self) -> 'Optional[re.Match]':\n"
                 "        return None\n",
                 [], id="string-annotations-are-uses"),
    pytest.param("src/pkg/side.py",
                 "from os import path\nfrom os import sep as SEP\n__all__ = ['Side', 'path']\n"
                 "__all__ += ['SEP']\n\n\nclass Side:\n    pass\n",
                 [], id="__all__-names-are-uses"),
    pytest.param("src/pkg/side.py",
                 "import os.path\n\ntry:\n    import json\nexcept ImportError:\n    pass\n\n\n"
                 "class Side:\n    sep = os.sep\n",
                 ["src/pkg/side.py:4: unused import json"], id="dotted-and-guarded"),
    pytest.param("src/pkg/sub/__init__.py", "from pkg.side import Side\n", [],
                 id="package-init-re-exports"),
])
def test_synthetic_unused_import(tmp_path, path, text, expected):
    tree = Synthetic(tmp_path, {} if path.startswith("tests/") else {path.removeprefix("src/"): text})
    if path.startswith("tests/"):
        (tmp_path / path).parent.mkdir(parents=True)
        (tmp_path / path).write_text(text)
    if path.endswith("__init__.py"):  # reach the new package so only the import rule speaks
        tree.allowed["pkg.sub"] = "an artefact"
    assert tree.problems() == expected
