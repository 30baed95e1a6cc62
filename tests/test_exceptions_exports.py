"""Tests for the exception hierarchy and the public API surface."""

import pytest

import repro
from repro.exceptions import (
    ConfigurationError,
    DataShapeError,
    MagnetoError,
    NotFittedError,
    PrivacyViolationError,
    ProtocolError,
    ResourceExceededError,
    SerializationError,
    TrainingStateError,
    UnknownActivityError,
    UnknownCohortError,
)


class TestExceptionHierarchy:
    @pytest.mark.parametrize("exc_cls", [
        ConfigurationError,
        DataShapeError,
        NotFittedError,
        PrivacyViolationError,
        ProtocolError,
        ResourceExceededError,
        SerializationError,
        TrainingStateError,
        UnknownActivityError,
        UnknownCohortError,
    ])
    def test_all_derive_from_magneto_error(self, exc_cls):
        assert issubclass(exc_cls, MagnetoError)

    def test_unknown_cohort_is_a_configuration_error(self):
        """Existing handlers catching ConfigurationError keep working."""
        assert issubclass(UnknownCohortError, ConfigurationError)

    def test_magneto_error_is_exception(self):
        assert issubclass(MagnetoError, Exception)

    def test_catching_base_catches_all(self):
        with pytest.raises(MagnetoError):
            raise PrivacyViolationError("caught by base")

    def test_distinct_types(self):
        assert not issubclass(PrivacyViolationError, ConfigurationError)
        assert not issubclass(DataShapeError, NotFittedError)


class TestPublicApi:
    def test_version_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_top_level_all_resolves(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize("module_name", [
        "repro.core",
        "repro.nn",
        "repro.sensors",
        "repro.preprocessing",
        "repro.datasets",
        "repro.eval",
        "repro.edge_runtime",
        "repro.federated",
        "repro.serving",
        "repro.serving.gateway",
        "repro.analysis",
    ])
    def test_subpackage_all_resolves(self, module_name):
        import importlib

        module = importlib.import_module(module_name)
        assert module.__all__, module_name
        for name in module.__all__:
            assert hasattr(module, name), f"{module_name}.{name}"

    def test_headline_types_importable_from_top_level(self):
        from repro import (
            EdgeDevice,
            MagnetoPlatform,
            NCMClassifier,
            PrivacyGuard,
            SupportSet,
            TransferPackage,
        )

        for cls in (EdgeDevice, MagnetoPlatform, NCMClassifier,
                    PrivacyGuard, SupportSet, TransferPackage):
            assert isinstance(cls, type)

    def test_all_lists_are_sorted_sets(self):
        """Every __all__ is duplicate-free (order is by convention only)."""
        import importlib

        for module_name in (
            "repro", "repro.core", "repro.nn", "repro.sensors",
            "repro.preprocessing", "repro.datasets", "repro.eval",
            "repro.edge_runtime", "repro.federated", "repro.serving",
            "repro.serving.gateway", "repro.analysis",
        ):
            module = importlib.import_module(module_name)
            assert len(module.__all__) == len(set(module.__all__)), module_name
