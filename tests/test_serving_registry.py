"""Tests for the multi-model cohort registry and fleet specifications."""

import dataclasses
import io
import json

import numpy as np
import pytest

from repro.core import InferenceEngine, TransferPackage
from repro.exceptions import (
    ConfigurationError,
    SerializationError,
    UnknownCohortError,
)
from repro.serving import (
    DEFAULT_COHORT,
    CohortSpec,
    ModelRegistry,
    engine_from_package,
    load_cohort_spec,
    parse_fleet_spec,
    registry_from_specs,
)


def _package_bytes(package):
    """The package's lossless ``save`` encoding, in memory."""
    buffer = io.BytesIO()
    np.savez(buffer, **package._collect_arrays())
    return buffer.getvalue()


@pytest.fixture
def registry(scenario):
    reg = ModelRegistry()
    reg.publish(DEFAULT_COHORT, scenario.package)
    return reg


@pytest.fixture(scope="module")
def package_path(request, tmp_path_factory):
    scenario = request.getfixturevalue("scenario")
    path = tmp_path_factory.mktemp("registry") / "package.npz"
    scenario.package.save(path)
    return str(path)


class TestModelRegistry:
    def test_publish_package_builds_serving_engine(self, scenario):
        registry = ModelRegistry()
        engine = registry.publish("wrist", scenario.package)
        assert isinstance(engine, InferenceEngine)
        assert engine.pipeline is scenario.package.pipeline
        assert registry.engine_for("wrist") is engine
        assert registry.loaded("wrist")
        assert registry.version("wrist") == 1

    def test_publish_engine_directly(self, edge):
        registry = ModelRegistry()
        assert registry.publish("wrist", edge.engine) is edge.engine
        assert registry.engine_for("wrist") is edge.engine

    def test_default_cohort_resolution(self, registry):
        assert registry.engine_for() is registry.engine_for(DEFAULT_COHORT)
        assert registry.default_cohort == DEFAULT_COHORT

    def test_custom_default_cohort(self, scenario):
        registry = ModelRegistry(default_cohort="wrist")
        registry.publish("wrist", scenario.package)
        assert registry.engine_for() is registry.engine_for("wrist")

    def test_unknown_cohort_raises(self, registry):
        with pytest.raises(UnknownCohortError, match="'pocket'"):
            registry.engine_for("pocket")
        assert "pocket" not in registry
        assert DEFAULT_COHORT in registry

    def test_unknown_cohort_is_configuration_error(self):
        assert issubclass(UnknownCohortError, ConfigurationError)

    def test_publish_rejects_arbitrary_objects(self):
        registry = ModelRegistry()
        with pytest.raises(ConfigurationError, match="dict"):
            registry.publish("wrist", {"not": "a package"})

    def test_publish_rejects_pipelineless_engine(self, edge):
        registry = ModelRegistry()
        bare = InferenceEngine(edge.embedder, edge.ncm)
        with pytest.raises(ConfigurationError, match="pipeline"):
            registry.publish("wrist", bare)

    def test_pipelineless_package_rejected_and_not_retained(self, scenario):
        registry = ModelRegistry()
        bare = dataclasses.replace(scenario.package, pipeline=None)
        with pytest.raises(ConfigurationError, match="pipeline"):
            registry.publish("wrist", bare)
        assert not registry.has_cohort("wrist")
        assert registry._engine_memo == {}  # rejected package not retained

    def test_lazy_load_from_path(self, package_path):
        registry = ModelRegistry()
        registry.register_lazy(DEFAULT_COHORT, package_path)
        assert registry.has_cohort(DEFAULT_COHORT)
        assert not registry.loaded(DEFAULT_COHORT)
        engine = registry.engine_for(DEFAULT_COHORT)
        assert registry.loaded(DEFAULT_COHORT)
        assert registry.engine_for(DEFAULT_COHORT) is engine  # cached

    def test_lazy_load_from_factory_runs_once(self, scenario):
        calls = []

        def factory():
            calls.append(1)
            return scenario.package

        registry = ModelRegistry()
        registry.register_lazy("wrist", factory)
        registry.engine_for("wrist")
        registry.engine_for("wrist")
        assert len(calls) == 1

    def test_lazy_pipelineless_engine_rejected_and_stays_registered(
        self, edge
    ):
        registry = ModelRegistry()
        registry.register_lazy(
            "wrist", lambda: InferenceEngine(edge.embedder, edge.ncm)
        )
        with pytest.raises(ConfigurationError, match="pipeline"):
            registry.engine_for("wrist")
        assert registry.has_cohort("wrist")
        assert not registry.loaded("wrist")

    def test_same_package_object_shares_one_engine(self, scenario):
        """Publishing one package under two cohorts -> one shared batch."""
        registry = ModelRegistry()
        first = registry.publish("wrist", scenario.package)
        second = registry.publish("pocket", scenario.package)
        assert first is second

    def test_hot_swap_replaces_engine_and_bumps_version(self, scenario, edge):
        registry = ModelRegistry()
        first = registry.publish("wrist", scenario.package)
        second = registry.publish("wrist", edge.engine)
        assert registry.engine_for("wrist") is second
        assert second is not first
        assert registry.version("wrist") == 2

    def test_hot_swap_does_not_accumulate_old_packages(self, scenario):
        """Periodic publishes must not pin superseded packages forever."""
        registry = ModelRegistry()
        for _ in range(5):
            copy = TransferPackage(
                pipeline=scenario.package.pipeline,
                embedder=scenario.package.embedder.clone(),
                support_set=scenario.package.support_set.clone(),
            )
            registry.publish("wrist", copy)
        assert len(registry._engine_memo) == 1  # only the live package

    def test_unpublish_removes_cohort(self, registry):
        registry.unpublish(DEFAULT_COHORT)
        with pytest.raises(UnknownCohortError):
            registry.engine_for(DEFAULT_COHORT)
        with pytest.raises(UnknownCohortError):
            registry.unpublish(DEFAULT_COHORT)

    def test_package_for_round_trips(self, scenario):
        """An independent copy of the published package, byte for byte."""
        registry = ModelRegistry()
        registry.publish("wrist", scenario.package)
        copy = registry.package_for("wrist")
        assert copy is not scenario.package
        assert _package_bytes(copy) == _package_bytes(scenario.package)

    def test_package_for_bare_engine_raises(self, edge):
        registry = ModelRegistry()
        registry.publish("wrist", edge.engine)
        with pytest.raises(ConfigurationError, match="bare engine"):
            registry.package_for("wrist")

    def test_catalog_views(self, scenario, package_path):
        registry = ModelRegistry()
        registry.publish("b", scenario.package)
        registry.register_lazy("a", package_path)
        assert registry.cohorts() == ("a", "b")
        assert len(registry) == 2
        described = registry.describe()
        assert described["a"]["loaded"] is False
        assert described["b"]["loaded"] is True
        assert described["b"]["classes"] == list(
            scenario.package.support_set.class_names
        )

    def test_engine_from_package_matches_edge_install(self, scenario, edge):
        engine = engine_from_package(scenario.package)
        feats = edge.pipeline.process_windows(
            scenario.base_test.windows[:4]
        )
        np.testing.assert_allclose(
            engine.infer_features(feats).distances,
            edge.engine.infer_features(feats).distances,
            rtol=0, atol=1e-9,
        )


class TestFleetSpec:
    def test_parse_full_form(self):
        spec = parse_fleet_spec({
            "default": "pocket",
            "cohorts": {
                "wrist": {"package": "w.npz", "sessions": 4},
                "pocket": {"sessions": 2},
            },
        })
        assert spec.default == "pocket"
        assert spec.total_sessions == 6
        assert spec.cohorts[0] == CohortSpec("wrist", 4, "w.npz")
        assert spec.cohorts[1].package is None

    def test_parse_bare_mapping_defaults_to_first(self):
        spec = parse_fleet_spec({"wrist": {"sessions": 1}, "pocket": {}})
        assert spec.default == "wrist"
        assert [c.cohort for c in spec.cohorts] == ["wrist", "pocket"]

    def test_unknown_keys_rejected(self):
        with pytest.raises(SerializationError, match="unknown keys"):
            parse_fleet_spec({"cohorts": {"wrist": {"model": "w.npz"}}})

    def test_unknown_top_level_keys_rejected(self):
        """A typo'd 'default' must not silently fall back to cohort #1."""
        with pytest.raises(SerializationError, match="defualt"):
            parse_fleet_spec({
                "defualt": "pocket",
                "cohorts": {"wrist": {}, "pocket": {}},
            })

    def test_bad_shapes_rejected(self):
        with pytest.raises(SerializationError):
            parse_fleet_spec([])
        with pytest.raises(SerializationError):
            parse_fleet_spec({"cohorts": {}})
        with pytest.raises(SerializationError):
            parse_fleet_spec({"cohorts": {"wrist": "w.npz"}})

    def test_sessions_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="sessions"):
            parse_fleet_spec({"cohorts": {"wrist": {"sessions": 0}}})

    def test_default_must_name_a_cohort(self):
        with pytest.raises(ConfigurationError, match="default"):
            parse_fleet_spec({"default": "ghost",
                              "cohorts": {"wrist": {}}})

    def test_load_cohort_spec_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(
            {"cohorts": {"wrist": {"sessions": 3}}}
        ))
        spec = load_cohort_spec(path)
        assert spec.cohorts[0].sessions == 3
        with pytest.raises(SerializationError):
            load_cohort_spec(tmp_path / "missing.json")

    def test_registry_from_specs_uses_fallback(self, package_path):
        spec = parse_fleet_spec({
            "cohorts": {"wrist": {"sessions": 1}, "pocket": {"sessions": 1}}
        })
        registry = registry_from_specs(spec, fallback_package=package_path)
        assert registry.cohorts() == ("pocket", "wrist")
        assert registry.default_cohort == "wrist"
        assert not registry.loaded("wrist")  # lazy until first use
        assert registry.engine_for("wrist") is not None

    def test_registry_from_specs_requires_some_package(self):
        spec = parse_fleet_spec({"cohorts": {"wrist": {}}})
        with pytest.raises(ConfigurationError, match="no package"):
            registry_from_specs(spec)

    def test_cohorts_sharing_a_path_share_one_engine(self, package_path):
        """Same package file -> one engine object -> one shared batch."""
        import os

        relative = os.path.join(
            os.path.dirname(package_path), ".", "package.npz"
        )
        spec = parse_fleet_spec({
            "cohorts": {
                "wrist": {"sessions": 1},
                "pocket": {"sessions": 1, "package": package_path},
                "belt": {"sessions": 1, "package": relative},  # same file
            }
        })
        registry = registry_from_specs(spec, fallback_package=package_path)
        engines = {registry.engine_for(c) for c in ("wrist", "pocket", "belt")}
        assert len(engines) == 1  # loaded once, FleetServer batches once
        # the package stays available for device provisioning
        assert _package_bytes(registry.package_for("wrist")) == _package_bytes(
            registry.package_for("belt")
        )
