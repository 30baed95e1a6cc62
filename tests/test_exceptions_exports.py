"""Tests for the exception hierarchy and the public API surface."""

import ast
import importlib
from collections import Counter
from pathlib import Path

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


def _modules_with_all():
    """Every module under ``repro`` that assigns ``__all__`` at top level,
    found by parsing the source (nothing is imported to find them)."""
    root = Path(repro.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if any(
            isinstance(node, (ast.Assign, ast.AnnAssign))
            and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
            )
            for node in tree.body
        ):
            parts = path.relative_to(root.parent).with_suffix("").parts
            if parts[-1] == "__init__":
                parts = parts[:-1]
            found.append(".".join(parts))
    return found


_MODULES_WITH_ALL = _modules_with_all()


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

    @pytest.mark.parametrize("module_name", _MODULES_WITH_ALL)
    def test_all_resolves_and_lists_each_name_once(self, module_name):
        """Every ``__all__`` in the package names importable objects, each
        once, so an export left behind by a deletion fails here."""
        module = importlib.import_module(module_name)
        assert module.__all__, module_name
        for name in module.__all__:
            assert hasattr(module, name), f"{module_name}.{name}"
        duplicates = sorted(
            name for name, count in Counter(module.__all__).items()
            if count > 1
        )
        assert not duplicates, f"{module_name}: {duplicates}"

    def test_every_public_package_defines_all(self):
        assert set(_MODULES_WITH_ALL) >= {
            "repro",
            "repro.analysis",
            "repro.core",
            "repro.datasets",
            "repro.edge_runtime",
            "repro.eval",
            "repro.federated",
            "repro.nn",
            "repro.preprocessing",
            "repro.sensors",
            "repro.serving",
            "repro.serving.async_fleet",
            "repro.serving.fleet",
            "repro.serving.gateway",
            "repro.serving.gateway.client",
            "repro.serving.gateway.loadgen",
            "repro.serving.gateway.protocol",
            "repro.serving.gateway.server",
        }

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
