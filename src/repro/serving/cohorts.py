"""Cohort fleet specifications: declarative multi-model fleet layouts.

The CLI's ``fleet --cohorts spec.json`` and the population-scale benchmarks
both need the same thing: "serve N sessions of cohort A on package X, M
sessions of cohort B on package Y".  :class:`CohortSpec` is one such row,
:func:`load_cohort_spec` parses the JSON file, and
:func:`registry_from_specs` turns the rows into a ready
:class:`~repro.serving.registry.ModelRegistry` (packages are registered
lazily, so a ten-cohort spec only pays for the cohorts that actually serve
traffic).

The JSON format::

    {
      "default": "wrist",
      "cohorts": {
        "wrist":  {"package": "wrist.npz",  "sessions": 10},
        "pocket": {"package": "pocket.npz", "sessions": 5},
        "shared": {"sessions": 3}
      }
    }

``default`` is optional (first cohort wins); ``package`` is optional per
cohort — cohorts without one are served from the fallback package the
caller provides (the CLI's positional package argument), which still
exercises per-cohort grouping and rollups against a shared model.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from ..core.transfer import TransferPackage
from ..exceptions import ConfigurationError, SerializationError
from .registry import ModelRegistry


@dataclass(frozen=True)
class CohortSpec:
    """One cohort row of a fleet specification."""

    cohort: str
    sessions: int = 1
    package: Optional[str] = None  # path; None -> the caller's fallback

    def __post_init__(self) -> None:
        if not self.cohort:
            raise ConfigurationError("cohort id must be non-empty")
        if self.sessions < 1:
            raise ConfigurationError(
                f"cohort {self.cohort!r} needs sessions >= 1, "
                f"got {self.sessions}"
            )


@dataclass(frozen=True)
class FleetSpec:
    """A parsed fleet specification: the cohort rows plus the default."""

    default: str
    cohorts: Tuple[CohortSpec, ...]

    @property
    def total_sessions(self) -> int:
        return sum(spec.sessions for spec in self.cohorts)

    def __post_init__(self) -> None:
        names = [spec.cohort for spec in self.cohorts]
        if len(names) != len(set(names)):
            raise ConfigurationError(f"duplicate cohort ids in spec: {names}")
        if self.default not in names:
            raise ConfigurationError(
                f"default cohort {self.default!r} is not one of {names}"
            )


def parse_fleet_spec(payload: Dict) -> FleetSpec:
    """Build a :class:`FleetSpec` from a decoded JSON object."""
    if not isinstance(payload, dict) or not payload:
        raise SerializationError(
            f"cohort spec must be a non-empty JSON object, got {payload!r}"
        )
    rows = payload.get("cohorts", None)
    if rows is None:  # bare mapping form: {"wrist": {...}, "pocket": {...}}
        rows = {k: v for k, v in payload.items() if k != "default"}
    else:
        # Nested form: catch typos like "defualt" instead of silently
        # falling back to the first cohort as the default.
        unknown = set(payload) - {"default", "cohorts"}
        if unknown:
            raise SerializationError(
                f"cohort spec has unknown top-level keys {sorted(unknown)}"
            )
    if not isinstance(rows, dict) or not rows:
        raise SerializationError(
            f"cohort spec needs a non-empty 'cohorts' mapping, got {rows!r}"
        )
    specs = []
    for cohort, row in rows.items():
        if not isinstance(row, dict):
            raise SerializationError(
                f"cohort {cohort!r} entry must be an object, got {row!r}"
            )
        unknown = set(row) - {"package", "sessions"}
        if unknown:
            raise SerializationError(
                f"cohort {cohort!r} has unknown keys {sorted(unknown)}"
            )
        try:
            specs.append(
                CohortSpec(
                    cohort=str(cohort),
                    sessions=int(row.get("sessions", 1)),
                    package=(
                        str(row["package"]) if "package" in row else None
                    ),
                )
            )
        except (TypeError, ValueError) as exc:
            raise SerializationError(
                f"cohort {cohort!r} entry is invalid: {exc}"
            ) from exc
    default = str(payload.get("default", specs[0].cohort))
    return FleetSpec(default=default, cohorts=tuple(specs))


def load_cohort_spec(path: Union[str, os.PathLike]) -> FleetSpec:
    """Parse a fleet specification JSON file (the CLI's ``--cohorts``)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SerializationError(
            f"cannot read cohort spec from {path!s}: {exc}"
        ) from exc
    return parse_fleet_spec(payload)


def registry_from_specs(
    spec: FleetSpec,
    fallback_package: Optional[Union[str, os.PathLike]] = None,
) -> ModelRegistry:
    """A lazy :class:`ModelRegistry` covering every cohort of ``spec``.

    Cohort rows without a ``package`` path fall back to
    ``fallback_package``; a row needing the fallback when none was given
    raises :class:`~repro.exceptions.ConfigurationError`.  Cohorts naming
    the same package path load the file once and share one engine object
    (the registry builds one engine per package object), so the
    :class:`~repro.serving.fleet.FleetServer` — which groups each tick by
    engine identity — serves them from a single shared batch, and
    :meth:`~repro.serving.registry.ModelRegistry.package_for` still works
    for device provisioning.
    """
    registry = ModelRegistry(default_cohort=spec.default)
    packages_by_path: Dict[str, TransferPackage] = {}

    def shared_loader(path: str):
        def load() -> TransferPackage:
            if path not in packages_by_path:
                packages_by_path[path] = TransferPackage.load(path)
            return packages_by_path[path]

        return load

    for row in spec.cohorts:
        source = row.package if row.package is not None else fallback_package
        if source is None:
            raise ConfigurationError(
                f"cohort {row.cohort!r} names no package and no fallback "
                f"package was provided"
            )
        # Normalize so "pkg.npz", "./pkg.npz" and the absolute spelling of
        # the same file share one cache entry (and thus one engine).
        registry.register_lazy(
            row.cohort, shared_loader(os.path.realpath(os.fspath(source)))
        )
    return registry
