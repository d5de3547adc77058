"""Content-addressed dataset cache: build each simulated world once.

Paper-scale simulations (hundreds of sensors, months of 5-minute steps)
dominate benchmark start-up, and the same world is rebuilt by every
entry point — the benchmark matrix, hyper-parameter sweeps, the
Table III benchmark.  This module keys a built world by a hash of
everything that determines it — the :class:`~repro.datasets.DatasetSpec`,
the derived :class:`~repro.datasets.SimulationConfig`, the
:class:`~repro.datasets.WindowConfig`, the seed offset, the scale preset,
a format version, and a digest of the world-building sources — and
round-trips it through the existing ``.npz`` persistence
(:mod:`repro.datasets.io`), so a second ``load_dataset`` of the same
spec/seed is one archive read instead of a full simulation.

Layout and knobs
----------------
Entries live under ``~/.cache/repro`` (one ``<name>_<scale>_<key>.npz``
per world), overridable with ``REPRO_CACHE_DIR``; set
``REPRO_DATA_CACHE=0`` to disable caching entirely.  Writes are atomic
(temp file + rename), so concurrent builders never observe a torn entry.

Invalidation
------------
The key covers every input that shapes the world, so changing a spec,
window, seed, or scale creates a new entry.  It also covers a sha256 of
the modules that build a world and write its archive (road network,
adjacency, simulator, fundamental diagram, catalog, archive I/O), so
editing any of them invalidates every entry.  Bump
:data:`CACHE_FORMAT_VERSION` when code outside those modules changes the
worlds, or wipe with ``python -m repro cache clear``.  See
``docs/data.md``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import secrets
import string
import zipfile
from dataclasses import asdict, dataclass
from pathlib import Path

__all__ = ["CACHE_FORMAT_VERSION", "CacheEntry", "DatasetCache",
           "cache_enabled", "default_cache_dir", "dataset_cache_key"]

#: Bump when code outside :data:`_WORLD_SOURCES` changes in a way that
#: makes previously cached worlds stale.
CACHE_FORMAT_VERSION = 1

#: The modules, relative to the ``repro`` package, that decide a built
#: world or its archive layout; their digest is part of every key.
_WORLD_SOURCES = ("graph/road_network.py", "graph/adjacency.py",
                 "datasets/generator.py", "datasets/fundamental.py",
                 "datasets/catalog.py", "datasets/io.py")

_DISABLED_VALUES = {"0", "off", "false", "no"}
_KEY_LENGTH = 16


def cache_enabled() -> bool:
    """Whether ``load_dataset`` should consult the cache by default
    (``REPRO_DATA_CACHE=0`` disables it)."""
    return os.environ.get("REPRO_DATA_CACHE", "1").lower() not in _DISABLED_VALUES


def default_cache_dir() -> Path:
    """The cache root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override).expanduser()
    return Path("~/.cache/repro").expanduser()


@functools.cache
def _source_digest() -> str:
    """sha256 of the :data:`_WORLD_SOURCES`, read once per process: an
    entry built by other code is stale."""
    root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for name in _WORLD_SOURCES:
        digest.update(name.encode())
        digest.update((root / name).read_bytes())
    return digest.hexdigest()


def dataset_cache_key(spec, sim_config, window, seed_offset: int,
                      scale: str) -> str:
    """Content hash of everything that determines a built world.

    Hashes the JSON of the dataclass fields (sorted keys) plus the scale
    preset, seed offset, :data:`CACHE_FORMAT_VERSION` and the digest of
    the :data:`_WORLD_SOURCES`; 16 hex chars,
    matching the :class:`~repro.core.BenchmarkMatrix` fingerprint width.
    """
    payload = json.dumps({
        "format": CACHE_FORMAT_VERSION,
        "code": _source_digest(),
        "spec": asdict(spec),
        "sim": asdict(sim_config),
        "window": asdict(window),
        "seed_offset": seed_offset,
        "scale": scale,
    }, sort_keys=True, default=list)
    return hashlib.sha256(payload.encode()).hexdigest()[:_KEY_LENGTH]


@dataclass
class CacheEntry:
    """One cached world on disk."""

    name: str
    scale: str
    key: str
    path: Path
    size_bytes: int

    @classmethod
    def from_path(cls, path: Path) -> "CacheEntry | None":
        """Parse ``<name>_<scale>_<key>.npz``; None for foreign files.

        The key must be 16 hex digits, so in-flight temp files of
        :meth:`DatasetCache.put` (``tmp<hex>.npz``) and foreign files
        named like ``a_b_c.npz`` never parse as an entry.
        """
        parts = path.stem.rsplit("_", 2)
        if len(parts) != 3 or path.suffix != ".npz":
            return None
        name, scale, key = parts
        if len(key) != _KEY_LENGTH or key.strip(string.hexdigits):
            return None
        return cls(name=name, scale=scale, key=key, path=path,
                   size_bytes=path.stat().st_size)


class DatasetCache:
    """Content-addressed store of built worlds under one directory.

    ``get``/``put`` move :class:`~repro.datasets.LoadedDataset` objects
    through :func:`~repro.datasets.save_dataset` /
    :func:`~repro.datasets.io.load_archive`; ``entries``/``clear``
    back the ``repro cache`` CLI.
    """

    def __init__(self, directory: str | Path | None = None):
        self.directory = Path(directory) if directory else default_cache_dir()

    def path_for(self, name: str, scale: str, key: str) -> Path:
        return self.directory / f"{name}_{scale}_{key}.npz"

    def get(self, name: str, scale: str, key: str):
        """The cached :class:`LoadedDataset` for ``key``, or None.

        A corrupt entry (torn write from an old interpreter crash,
        truncated disk) is deleted and treated as a miss rather than
        propagating a load error into the caller.  An entry that cannot be
        read at all (an ``OSError`` such as ``PermissionError`` on another
        user's file) is a miss that leaves the file alone.  An archive that
        records another key — written under another format version and
        copied or renamed into place — is a miss too, and the next ``put``
        replaces it.  Archives that record no key predate the field; format 1 wrote
        them under their own name.
        """
        from ..obs.spans import span
        from .io import load_archive

        with span("data/cache_get", dataset=name, key=key) as sp:
            path = self.path_for(name, scale, key)
            if not path.exists():
                sp.set(hit=False)
                return None
            try:
                meta, result = load_archive(path)
            except OSError:
                sp.set(hit=False, unreadable=True)
                return None
            except Exception:
                path.unlink(missing_ok=True)
                sp.set(hit=False, corrupt=True)
                return None
            if meta.get("cache_key", key) != key:
                sp.set(hit=False, stale=True)
                return None
            sp.set(hit=True)
            return result

    def put(self, dataset, key: str) -> Path:
        """Persist ``dataset`` under ``key`` atomically; returns the path.

        The entry gets the mode a plain file create gets (``0o666`` under
        the process umask), so a shared cache directory stays readable by
        every user the umask allows.
        """
        from ..obs.spans import span
        from .io import save_dataset

        with span("data/cache_put", dataset=dataset.spec.name, key=key):
            path = self.path_for(dataset.spec.name, dataset.scale, key)
            self.directory.mkdir(parents=True, exist_ok=True)
            # The suffix must be ``.npz`` — np.savez appends one otherwise
            # and the rename would promote an empty placeholder file.
            # ``O_EXCL`` claims the fresh name; unlike ``mkstemp`` (0600)
            # the create mode is left to the umask.
            tmp_name = self.directory / f"tmp{secrets.token_hex(8)}.npz"
            os.close(os.open(tmp_name, os.O_WRONLY | os.O_CREAT | os.O_EXCL,
                             0o666))
            try:
                save_dataset(dataset, tmp_name, cache_key=key)
                os.replace(tmp_name, path)
            finally:
                Path(tmp_name).unlink(missing_ok=True)
        return path

    def entries(self) -> list[CacheEntry]:
        """Every recognised entry, newest first."""
        if not self.directory.is_dir():
            return []
        found = [CacheEntry.from_path(p)
                 for p in sorted(self.directory.glob("*.npz"))]
        entries = [e for e in found if e is not None]
        entries.sort(key=lambda e: e.path.stat().st_mtime, reverse=True)
        return entries

    def info(self, key: str) -> dict:
        """Archive metadata of the entry whose key starts with ``key``.

        Array shapes come from each member's ``.npy`` header alone, so
        listing a paper-scale entry reads a few hundred bytes per array
        rather than the arrays themselves.  Raises ``KeyError`` when no
        entry matches and ``ValueError`` naming the entry when it cannot
        be read or parsed; the file is left in place either way.
        """
        for entry in self.entries():
            if entry.key.startswith(key) or entry.path.name.startswith(key):
                try:
                    meta, shapes = _read_headers(entry.path)
                    return {"path": str(entry.path), "key": entry.key,
                            "size_bytes": entry.size_bytes,
                            "spec": meta["spec"], "scale": meta["scale"],
                            "window": meta["window"], "arrays": shapes}
                except (OSError, EOFError, KeyError, ValueError,
                        zipfile.BadZipFile) as exc:
                    raise ValueError(
                        f"cache entry {entry.path.name} is unreadable "
                        f"({type(exc).__name__}: {exc})") from exc
        raise KeyError(f"no cache entry matching {key!r} "
                       f"in {self.directory}")

    def clear(self) -> tuple[int, int]:
        """Delete every entry; returns (entries removed, bytes freed)."""
        removed = freed = 0
        for entry in self.entries():
            freed += entry.size_bytes
            entry.path.unlink(missing_ok=True)
            removed += 1
        return removed, freed


def _read_headers(path: Path) -> tuple[dict, dict[str, list[int]]]:
    """The JSON metadata and every array's shape of an archive written by
    :func:`~repro.datasets.save_dataset`, read from the ``.npy`` headers.

    ``meta`` is a flat uint8 array, so its data is the JSON text itself.
    """
    from numpy.lib import format as npy

    header_readers = {(1, 0): npy.read_array_header_1_0,
                      (2, 0): npy.read_array_header_2_0}
    meta, shapes = {}, {}
    with zipfile.ZipFile(path) as archive:
        for member in archive.namelist():
            name = member.removesuffix(".npy")
            with archive.open(member) as handle:
                version = npy.read_magic(handle)
                shape, _, _ = header_readers[version](handle)
                if name == "meta":
                    meta = json.loads(handle.read().decode())
                else:
                    shapes[name] = list(shape)
    return meta, shapes
