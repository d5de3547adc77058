"""Run-manifest completeness and round-trips."""

import json

import numpy as np
import pytest

import repro
from repro.core import TrainingConfig
from repro.obs import (build_manifest, normalize_ru_maxrss, peak_rss_kb,
                       write_manifest)
from repro.obs.manifest import MANIFEST_SCHEMA_VERSION

# Fields every manifest on disk carries.
REQUIRED_FIELDS = ("schema_version", "model", "dataset", "seed", "config",
                   "num_parameters", "wall_seconds", "repro_version")


@pytest.fixture
def manifest():
    return build_manifest(model="stgcn", dataset="metr-la", seed=7,
                          config=TrainingConfig(epochs=2),
                          num_parameters=4242, wall_seconds=1.25,
                          best_epoch=1, best_val_mae=3.5, test_mae_15=4.0)


class TestBuildManifest:
    def test_identity_fields(self, manifest):
        assert manifest.model == "stgcn"
        assert manifest.dataset == "metr-la"
        assert manifest.seed == 7
        assert manifest.num_parameters == 4242
        assert manifest.wall_seconds == 1.25

    def test_config_is_flattened_dataclass(self, manifest):
        assert manifest.config["epochs"] == 2
        assert manifest.config["batch_size"] == 32

    def test_dtype_recorded(self):
        built = build_manifest(model="m", dataset="d", seed=0, config={},
                               num_parameters=1, wall_seconds=0.1,
                               dtype="float32")
        assert built.to_dict()["dtype"] == "float32"

    def test_config_accepts_plain_dict(self):
        built = build_manifest(model="m", dataset="d", seed=0,
                               config={"epochs": 9}, num_parameters=1,
                               wall_seconds=0.1)
        assert built.config == {"epochs": 9}

    def test_environment_fields(self, manifest):
        assert manifest.repro_version == repro.__version__
        assert manifest.numpy_version == np.__version__
        assert manifest.python_version.count(".") == 2
        assert manifest.created_unix > 0
        assert manifest.schema_version == MANIFEST_SCHEMA_VERSION

    def test_peak_rss_recorded_on_linux(self, manifest):
        assert manifest.peak_rss_kb == pytest.approx(peak_rss_kb(), rel=0.5)
        assert manifest.peak_rss_kb > 0


class TestNormalizeRuMaxrss:
    """``ru_maxrss`` units are platform-defined: KiB on Linux/BSD, bytes
    on macOS — manifests must normalise to KiB either way."""

    def test_linux_reading_is_already_kib(self):
        assert normalize_ru_maxrss(123_456, system="Linux") == 123_456

    def test_darwin_reading_is_bytes(self):
        assert normalize_ru_maxrss(123_456 * 1024, system="Darwin") == 123_456

    def test_darwin_floors_partial_kib(self):
        assert normalize_ru_maxrss(2048 + 1023, system="Darwin") == 2

    def test_unknown_systems_fall_back_to_kib(self):
        assert normalize_ru_maxrss(77, system="FreeBSD") == 77

    def test_defaults_to_current_platform(self):
        import platform
        expected = (normalize_ru_maxrss(4096, system=platform.system()))
        assert normalize_ru_maxrss(4096) == expected

    def test_result_is_int(self):
        assert isinstance(normalize_ru_maxrss(1024.0, system="Darwin"), int)


class TestManifestIO:
    def test_round_trip(self, tmp_path, manifest):
        path = write_manifest(tmp_path / "run.json", manifest)
        assert json.loads(path.read_text()) == manifest.to_dict()

    def test_required_fields_present_on_disk(self, tmp_path, manifest):
        path = write_manifest(tmp_path / "run.json", manifest)
        payload = json.loads(path.read_text())
        for field in REQUIRED_FIELDS:
            assert field in payload
