"""Package-level hygiene: import safety, docstrings, export consistency,
and docs/api.md staying in sync with the public module tree."""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import repro

ALL_MODULES = [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")]

PUBLIC_MODULES = [name for name in ALL_MODULES
                  if not any(part.startswith("_") for part in name.split("."))]

DOCS_API = Path(__file__).resolve().parent.parent / "docs" / "api.md"


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
