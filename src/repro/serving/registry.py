"""The multi-model registry behind cohort-aware fleet serving.

The edge-authentication setting is inherently multi-tenant: different user
cohorts (device classes, sampling rates, enrollment sizes) are served by
different model packages.  :class:`ModelRegistry` is the serving-side
catalog of those packages: engines are keyed by ``cohort_id``, one cohort
is the default, packages can be registered lazily (loaded from disk on
first use) and hot-swapped at runtime via :meth:`ModelRegistry.publish`.

A :class:`~repro.serving.fleet.FleetServer` constructed from a registry binds
every session to a cohort and issues one batched engine call per distinct
model per tick, so a mixed-cohort fleet keeps the single-model batch
speedup.  Sessions with an open chunk stream stay pinned to the engine
they started on: a :meth:`~ModelRegistry.publish` mid-stream only affects
sessions (re)opened afterwards — see
:meth:`~repro.serving.fleet.FleetServer.step_stream`.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Optional, Tuple, Union

from ..core.engine import InferenceEngine
from ..core.ncm import NCMClassifier
from ..core.transfer import TransferPackage
from ..exceptions import ConfigurationError, UnknownCohortError

#: The cohort served when the caller never names one (registry defaults,
#: and a fleet built from a bare engine).
DEFAULT_COHORT = "default"

#: What can be published or lazily registered: a ready engine, a transfer
#: package (an engine is built from it), or — for lazy sources — a path to
#: a saved ``.npz`` package or a zero-argument factory returning either.
PackageLike = Union[InferenceEngine, TransferPackage]
LazySource = Union[str, os.PathLike, Callable[[], PackageLike]]


def engine_from_package(package: TransferPackage) -> InferenceEngine:
    """Build a serving engine from a Cloud transfer package.

    Mirrors the Edge install path: fit an NCM over the package's support
    set through its embedder, then wire embedder + classifier + pipeline
    into one :class:`~repro.core.engine.InferenceEngine`.
    """
    ncm = NCMClassifier().fit_from_support_set(
        package.embedder, package.support_set
    )
    return InferenceEngine(
        package.embedder, ncm, pipeline=package.pipeline
    )


class ModelRegistry:
    """Load, cache and hot-swap model packages keyed by cohort id.

    Parameters
    ----------
    default_cohort:
        The cohort served when a caller does not name one (a
        :class:`~repro.serving.fleet.FleetServer` binds sessions connected
        without a cohort here).
    expected_channels:
        Optional channel-count contract.  A registry serves one physical
        sensor fleet, so every published package must agree on the sensor
        layout; when ``None`` the contract locks to the first published
        (or lazily loaded) package.
        Publishing a package with a mismatched channel count raises
        :class:`~repro.exceptions.ConfigurationError`.

    Cohorts come in two states: *published* (an engine is built and
    cached) and *registered* (a lazy source — a package path or factory —
    that is loaded and cached on first :meth:`engine_for`).  Publishing to
    an existing cohort hot-swaps it: future lookups return the new engine,
    while fleet sessions holding an open stream keep the engine they
    pinned at open time until their stream finishes.
    """

    def __init__(
        self,
        default_cohort: str = DEFAULT_COHORT,
        expected_channels: Optional[int] = None,
    ) -> None:
        self.default_cohort = str(default_cohort)
        if not self.default_cohort:
            raise ConfigurationError("default_cohort must be non-empty")
        self._engines: Dict[str, InferenceEngine] = {}
        self._packages: Dict[str, TransferPackage] = {}
        self._lazy: Dict[str, LazySource] = {}
        self._versions: Dict[str, int] = {}
        # One engine per TransferPackage *object*: publishing (or lazily
        # loading) the same package under several cohorts shares a single
        # engine, so the FleetServer — which batches each tick by engine
        # identity — serves those cohorts from one shared batched call.
        # Keyed by id() with the package stored alongside (the stored ref
        # keeps the keyed object alive, so ids cannot be reused while the
        # entry exists); pruned on every catalog mutation so hot-swapped
        # packages do not accumulate forever.
        self._engine_memo: Dict[int, Tuple[TransferPackage, InferenceEngine]] = {}
        self._expected_channels = (
            int(expected_channels) if expected_channels is not None else None
        )

    def _prune_engine_memo(self) -> None:
        """Drop memo entries for packages no cohort references anymore.

        Without this, periodic hot-swaps (``publish`` per deploy) would
        pin every superseded package and its engine in memory forever.
        """
        live = {id(package) for package in self._packages.values()}
        for key in [k for k in self._engine_memo if k not in live]:
            del self._engine_memo[key]

    # ------------------------------------------------------------------ #
    # catalog
    # ------------------------------------------------------------------ #

    @property
    def expected_channels(self) -> Optional[int]:
        """The locked sensor channel count, ``None`` until the first load."""
        return self._expected_channels

    def cohorts(self) -> Tuple[str, ...]:
        """Every cohort this registry can serve, loaded or not (sorted)."""
        return tuple(sorted(set(self._engines) | set(self._lazy)))

    def has_cohort(self, cohort_id: str) -> bool:
        """Whether ``cohort_id`` is published or lazily registered."""
        key = str(cohort_id)
        return key in self._engines or key in self._lazy

    def loaded(self, cohort_id: str) -> bool:
        """Whether ``cohort_id``'s engine is already built and cached."""
        return str(cohort_id) in self._engines

    def version(self, cohort_id: str) -> int:
        """How many times ``cohort_id`` has been published (0 = never)."""
        return self._versions.get(str(cohort_id), 0)

    def __contains__(self, cohort_id: str) -> bool:
        return self.has_cohort(cohort_id)

    def __len__(self) -> int:
        return len(set(self._engines) | set(self._lazy))

    # ------------------------------------------------------------------ #
    # publishing
    # ------------------------------------------------------------------ #

    def _check_channels(self, cohort_id: str, engine: InferenceEngine) -> None:
        pipeline = engine.pipeline
        if pipeline is None:
            raise ConfigurationError(
                f"cohort {cohort_id!r} package has no preprocessing "
                f"pipeline; fleet serving needs raw windows/chunks in"
            )
        channels = pipeline.expected_channels
        if self._expected_channels is None:
            self._expected_channels = int(channels)
        elif int(channels) != self._expected_channels:
            raise ConfigurationError(
                f"cohort {cohort_id!r} package expects {channels} sensor "
                f"channels, registry serves {self._expected_channels}; one "
                f"registry serves one sensor layout"
            )

    def _as_engine(self, cohort_id: str, package: PackageLike) -> InferenceEngine:
        if isinstance(package, InferenceEngine):
            return package
        if isinstance(package, TransferPackage):
            entry = self._engine_memo.get(id(package))
            if entry is not None and entry[0] is package:
                return entry[1]
            # Memoized by the caller only after validation succeeds, so a
            # rejected publish does not retain the bad package/engine.
            return engine_from_package(package)
        raise ConfigurationError(
            f"cohort {cohort_id!r}: cannot publish {type(package).__name__}; "
            f"expected an InferenceEngine or a TransferPackage"
        )

    def publish(self, cohort_id: str, package: PackageLike) -> InferenceEngine:
        """Publish (or hot-swap) a cohort's model package; returns its engine.

        Accepts a ready :class:`~repro.core.engine.InferenceEngine` or a
        :class:`~repro.core.transfer.TransferPackage` (an engine is built
        from it — once per package object, so publishing the same package
        under several cohorts shares one engine and therefore one batched
        fleet call per tick).  The package must pass the registry's
        channel contract.  Re-publishing an existing cohort replaces its
        engine for all *future* lookups; fleet sessions with an open
        stream keep their pinned engine until the stream finishes.
        """
        key = str(cohort_id)
        if not key:
            raise ConfigurationError("cohort_id must be non-empty")
        engine = self._as_engine(key, package)
        self._check_channels(key, engine)
        self._engines[key] = engine
        if isinstance(package, TransferPackage):
            self._engine_memo[id(package)] = (package, engine)
            self._packages[key] = package
        else:
            self._packages.pop(key, None)
        self._lazy.pop(key, None)
        self._versions[key] = self._versions.get(key, 0) + 1
        self._prune_engine_memo()
        return engine

    def register_lazy(self, cohort_id: str, source: LazySource) -> None:
        """Register a cohort whose package loads on first use.

        ``source`` is a path to a saved ``.npz`` transfer package or a
        zero-argument callable returning a package/engine.  Nothing is
        loaded now; the first :meth:`engine_for` builds and caches the
        engine (and enforces the channel contract).  Re-registering an
        already *published* cohort makes the next lookup re-load from the
        new source.
        """
        key = str(cohort_id)
        if not key:
            raise ConfigurationError("cohort_id must be non-empty")
        if not callable(source):
            source = os.fspath(source)
        self._lazy[key] = source
        self._engines.pop(key, None)
        self._packages.pop(key, None)
        self._prune_engine_memo()

    def unpublish(self, cohort_id: str) -> None:
        """Remove a cohort from the catalog entirely."""
        key = str(cohort_id)
        if not self.has_cohort(key):
            raise UnknownCohortError(f"cohort {key!r} is not in the registry")
        self._engines.pop(key, None)
        self._packages.pop(key, None)
        self._lazy.pop(key, None)
        self._prune_engine_memo()

    # ------------------------------------------------------------------ #
    # resolution
    # ------------------------------------------------------------------ #

    def _load_lazy(self, cohort_id: str) -> InferenceEngine:
        source = self._lazy[cohort_id]
        package = source() if callable(source) else TransferPackage.load(source)
        engine = self._as_engine(cohort_id, package)
        self._check_channels(cohort_id, engine)
        self._engines[cohort_id] = engine
        if isinstance(package, TransferPackage):
            self._engine_memo[id(package)] = (package, engine)
            self._packages[cohort_id] = package
        del self._lazy[cohort_id]
        self._versions[cohort_id] = self._versions.get(cohort_id, 0) + 1
        self._prune_engine_memo()
        return engine

    def engine_for(self, cohort_id: Optional[str] = None) -> InferenceEngine:
        """The engine serving ``cohort_id`` (default cohort when ``None``).

        Lazily registered cohorts are loaded and cached on first call;
        unknown cohorts raise
        :class:`~repro.exceptions.UnknownCohortError`.
        """
        key = self.default_cohort if cohort_id is None else str(cohort_id)
        engine = self._engines.get(key)
        if engine is not None:
            return engine
        if key in self._lazy:
            return self._load_lazy(key)
        raise UnknownCohortError(
            f"cohort {key!r} is not in the registry "
            f"(has {list(self.cohorts()) or 'no cohorts'})"
        )

    def package_for(self, cohort_id: Optional[str] = None) -> TransferPackage:
        """The transfer package behind a cohort, for device provisioning.

        Only available when the cohort was published from (or lazily
        loaded as) a :class:`~repro.core.transfer.TransferPackage`;
        cohorts published as bare engines raise
        :class:`~repro.exceptions.ConfigurationError`.
        """
        key = self.default_cohort if cohort_id is None else str(cohort_id)
        self.engine_for(key)  # resolve lazily / raise UnknownCohortError
        try:
            return self._packages[key]
        except KeyError:
            raise ConfigurationError(
                f"cohort {key!r} was published as a bare engine; no "
                f"transfer package is available to provision devices from"
            ) from None

    def describe(self) -> Dict[str, Dict[str, object]]:
        """Catalog snapshot: per cohort, load state / version / classes."""
        rows: Dict[str, Dict[str, object]] = {}
        for cohort in self.cohorts():
            engine = self._engines.get(cohort)
            rows[cohort] = {
                "loaded": engine is not None,
                "version": self.version(cohort),
                "default": cohort == self.default_cohort,
                "classes": (
                    list(engine.class_names) if engine is not None else None
                ),
            }
        return rows
