"""Synthetic PeMS-style datasets: simulator, catalog, lazy windows,
loaders, and the content-addressed world cache."""

from .cache import (CACHE_FORMAT_VERSION, CacheEntry, DatasetCache,
                    cache_enabled, dataset_cache_key, default_cache_dir)
from .catalog import (DATASETS, FLOW_DATASETS, SPEED_DATASETS, DatasetSpec,
                      LoadedDataset, dataset_names, load_dataset)
from .imputation import (impute_forward_fill, impute_historical_mean,
                         impute_linear)
from .io import load_saved_dataset, save_dataset
from .fundamental import density_from_speed, flow_from_density, speed_from_density
from .generator import (STEPS_PER_DAY, STEPS_PER_HOUR, SimulationConfig,
                        SimulationResult, TrafficSimulator)
from .loader import DataLoader
from .scalers import MinMaxScaler, StandardScaler
from .windows import (SupervisedDataset, SupervisedSplit, WindowConfig,
                      WindowSource, make_windows)

__all__ = [
    "DatasetSpec", "LoadedDataset", "DATASETS", "SPEED_DATASETS",
    "FLOW_DATASETS", "dataset_names", "load_dataset",
    "SimulationConfig", "SimulationResult", "TrafficSimulator",
    "STEPS_PER_DAY", "STEPS_PER_HOUR",
    "speed_from_density", "flow_from_density", "density_from_speed",
    "WindowConfig", "WindowSource", "SupervisedDataset", "SupervisedSplit",
    "make_windows",
    "StandardScaler", "MinMaxScaler", "DataLoader",
    "save_dataset", "load_saved_dataset",
    "DatasetCache", "CacheEntry", "dataset_cache_key", "default_cache_dir",
    "cache_enabled", "CACHE_FORMAT_VERSION",
    "impute_forward_fill", "impute_linear", "impute_historical_mean",
]
