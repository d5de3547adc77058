"""Package-level hygiene: import safety, docstrings, export consistency,
no exported name without a caller, and docs/api.md staying in sync with
the public module tree."""

import ast
import importlib
import importlib.util
import os
import pkgutil
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import repro

ALL_MODULES = [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")]

PUBLIC_MODULES = [name for name in ALL_MODULES
                  if not any(part.startswith("_") for part in name.split("."))]

REPO = Path(__file__).resolve().parent.parent
DOCS_API = REPO / "docs" / "api.md"


class TestPackageHygiene:
    @pytest.mark.parametrize("module_name", ALL_MODULES)
    def test_module_imports_cleanly(self, module_name):
        importlib.import_module(module_name)

    @pytest.mark.parametrize("module_name", ALL_MODULES)
    def test_module_has_docstring(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} lacks a module docstring"

    @pytest.mark.parametrize("module_name", ALL_MODULES)
    def test_all_names_resolve(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), (
                f"{module_name}.__all__ lists {name!r} which does not exist")

    def test_version_string(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(part.isdigit() for part in parts)

    def test_top_level_exports_work(self):
        from repro import (PAPER_MODELS, TrainingConfig, create_model,
                           load_dataset, run_experiment)
        assert len(PAPER_MODELS) == 8

    def test_public_functions_have_docstrings(self):
        """Every name exported by repro.core and repro.datasets is
        documented."""
        import inspect
        for package in (repro.core, repro.datasets, repro.models, repro.nn,
                        repro.obs):
            for name in package.__all__:
                obj = getattr(package, name)
                if inspect.isfunction(obj) or inspect.isclass(obj):
                    assert obj.__doc__, (
                        f"{package.__name__}.{name} lacks a docstring")


def _imports(module_name: str) -> set[str]:
    """Every module ``module_name``'s source imports, relative imports
    resolved; ``from pkg import name`` counts as ``pkg`` and ``pkg.name``."""
    origin = importlib.util.find_spec(module_name).origin
    package = (module_name if origin.endswith("__init__.py")
               else module_name.rpartition(".")[0])
    names = set()
    for node in ast.walk(ast.parse(Path(origin).read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = importlib.util.resolve_name(
                "." * node.level + (node.module or ""), package)
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


class TestReferenceOracleIsolation:
    """The oracle in ``repro.nn.reference`` stays out of production:
    only the bench suites, which time against it, may import it."""

    ORACLE = "repro.nn.reference"

    def test_bench_kernels_imports_oracle(self):
        assert self.ORACLE in _imports("repro.bench.kernels")

    @pytest.mark.parametrize("module_name", [
        name for name in ALL_MODULES
        if name != "repro.nn.reference" and not name.startswith("repro.bench")])
    def test_module_does_not_import_oracle(self, module_name):
        assert self.ORACLE not in _imports(module_name), (
            f"{module_name} imports {self.ORACLE}; only repro.bench.* may")


#: A training process in a fresh interpreter: import, cold-build a world
#: into an empty cache, reload it from there, fit two batches and predict,
#: then check that neither scipy nor networkx was ever loaded, and that the
#: statistics functions still load scipy and agree with it.
LEAN_TRAINING_PROCESS = """
import sys

import numpy as np

import repro
import repro.cli
from repro.core import RankTable, TrainingConfig, predict
from repro.datasets import load_dataset
from repro.models import create_model
from repro.obs import EventBus, MemorySink, bus_scope
from repro.train import Engine

sink = MemorySink()
with bus_scope(EventBus([sink])):
    built = load_dataset("metr-la", scale="ci", cache=True)
    data = load_dataset("metr-la", scale="ci", cache=True)
outcomes = [e.attrs["cache"] for e in sink.of_kind("span")
            if e.label == "data/load"]
assert outcomes == ["miss", "hit"], outcomes
assert np.array_equal(data.adjacency, built.adjacency)
split = data.supervised
model = create_model("stgcn", data.num_nodes, data.adjacency,
                     in_features=split.train.num_features, seed=0)
Engine(TrainingConfig(epochs=1, max_batches_per_epoch=2)).fit(model, data)
predict(model, split.test, split.scaler)
for package in ("scipy", "networkx"):
    loaded = sorted(name for name in sys.modules
                    if name == package or name.startswith(package + "."))
    assert not loaded, f"{len(loaded)} {package} modules loaded: {loaded[:5]}"

from scipy import stats
from repro.core import friedman_test, welch_test

a, b = [1.0, 2.0, 4.0, 4.5], [2.5, 3.5, 6.0, 7.0, 9.0]
expected = stats.ttest_ind(a, b, equal_var=False)
assert welch_test(a, b) == (float(expected[0]), float(expected[1]))
ranks = np.array([[1.0, 2.0, 3.0], [1.0, 3.0, 2.0], [2.0, 1.0, 3.0]])
table = RankTable(models=["x", "y", "z"], datasets=["p", "q", "r"],
                  ranks=ranks)
expected = stats.friedmanchisquare(*ranks.T)
assert friedman_test(table) == (float(expected[0]), float(expected[1]))
"""


def test_training_process_never_loads_scipy(tmp_path):
    """scipy is imported only inside the statistics functions that use
    it, and networkx only by the tests, so ``import repro``, a cold world
    build, a cache reload and a whole training run stay lean."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])),
        REPRO_CACHE_DIR=str(tmp_path / "cache"))
    result = subprocess.run([sys.executable, "-c", LEAN_TRAINING_PROCESS],
                            cwd=tmp_path, env=env, capture_output=True,
                            text=True, timeout=600)
    assert result.returncode == 0, result.stderr


#: Directories whose code counts as a caller; tests do not.
CALLER_ROOTS = ("src", "benchmarks", "examples", "perfbench")

_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


def _is_all(node: ast.AST) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__"
        for target in node.targets)


def _references(tree: ast.AST) -> Counter:
    """How often a module's code refers to each identifier.

    A name counts when it is read, called or assigned (``Name``), taken as
    an attribute, or spelled as a whole string constant (``getattr`` and
    patch lookups); a module counts when something imports from it, and a
    class when ``@register_model`` puts it in the registry, from which
    callers look it up by model name.  Definitions, imported names,
    ``__all__`` entries and the op label a node hands to ``Tensor._make``
    do not count: they name a thing without using it.
    """
    words: Counter = Counter()
    skipped: set[int] = set()
    for node in ast.walk(tree):
        if _is_all(node):
            skipped.update(id(sub) for sub in ast.walk(node.value))
        elif (isinstance(node, ast.Call) and node.args
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "_make"):
            skipped.add(id(node.args[-1]))
        elif isinstance(node, ast.ClassDef) and any(
                isinstance(dec, ast.Call)
                and getattr(dec.func, "id", None) == "register_model"
                for dec in node.decorator_list):
            words[node.name] += 1
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            words[node.id] += 1
        elif isinstance(node, ast.Attribute):
            words[node.attr] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in skipped
              and _IDENTIFIER.fullmatch(node.value)):
            words[node.value] += 1
        elif isinstance(node, ast.Import):
            for alias in node.names:
                words.update(alias.name.split("."))
        elif isinstance(node, ast.ImportFrom) and node.module:
            words.update(node.module.split("."))
    return words


def _caller_references() -> Counter:
    words: Counter = Counter()
    for root in CALLER_ROOTS:
        for path in sorted((REPO / root).rglob("*.py")):
            if "tests" in path.relative_to(REPO / root).parts:
                continue
            words.update(_references(
                ast.parse(path.read_text(encoding="utf-8"))))
    return words


def _exported_names() -> set[str]:
    names = set()
    for module_name in ["repro", *ALL_MODULES]:
        module = importlib.import_module(module_name)
        names.update(getattr(module, "__all__", ()))
    return names


class TestNoTestOnlyNames:
    """Every name a ``repro`` module exports has a caller outside the
    tests, so the library does not grow surface that only its own tests
    use.  A deliberate exception needs an entry, with its reason, here."""

    ALLOWED = {
        "density_from_speed":
            "test oracle: the inverse that speed_from_density is checked "
            "against",
        "gradcheck":
            "test oracle: the numerical gradients every backward is "
            "checked against",
        "check_gradients":
            "test oracle: compares a backward with gradcheck's numerical "
            "gradients",
        "heap":
            "imported by repro.nn for its side effect, the glibc heap "
            "policy",
        "CheckpointCallback":
            "documented resumable-training callback (docs/training.md)",
    }

    def test_every_exported_name_has_a_caller(self):
        words = _caller_references()
        unused = sorted(name for name in _exported_names()
                        if words[name] == 0 and name not in self.ALLOWED)
        assert not unused, (
            f"exported names with no caller in {', '.join(CALLER_ROOTS)}: "
            f"{unused}; delete them with their tests, or add an ALLOWED "
            "entry that says why they stay")

    def test_allowed_names_are_still_unused_exports(self):
        words = _caller_references()
        exported = _exported_names()
        stale = sorted(name for name in self.ALLOWED
                       if name not in exported or words[name] > 0)
        assert not stale, (f"ALLOWED entries that are no longer unused "
                           f"exports: {stale}; remove them")


class TestDocsSync:
    """docs/api.md must cover the public module tree — doc drift is a
    tier-1 failure, not a chore for later."""

    def test_docs_api_exists(self):
        assert DOCS_API.is_file()

    @pytest.mark.parametrize("module_name", PUBLIC_MODULES)
    def test_module_mentioned_in_docs_api(self, module_name):
        assert module_name in DOCS_API.read_text(encoding="utf-8"), (
            f"{module_name} is not mentioned in docs/api.md — add it to "
            "the module index (every public module must be documented)")

    def test_no_stale_modules_in_index(self):
        """Module-index lines must not reference modules that no longer
        exist (the reverse direction of drift)."""
        import re
        text = DOCS_API.read_text(encoding="utf-8")
        documented = re.findall(r"`(repro(?:\.[a-z_0-9]+)+)`", text)
        known = set(PUBLIC_MODULES) | {"repro"}
        stale = [name for name in documented if name not in known]
        assert not stale, (f"docs/api.md mentions modules that do not "
                           f"exist: {sorted(set(stale))}")
