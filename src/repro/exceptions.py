"""Exception hierarchy for the MAGNETO reproduction.

All library errors derive from :class:`MagnetoError` so callers can catch a
single base class.  Specific subclasses exist for the distinct failure
domains (privacy, configuration, data shape, model state), because each is
actionable in a different way by the caller.
"""

from __future__ import annotations


class MagnetoError(Exception):
    """Base class for every error raised by this library."""


class ConfigurationError(MagnetoError):
    """An invalid configuration value was supplied."""


class DataShapeError(MagnetoError):
    """An array did not have the shape or dtype the API requires."""


class PrivacyViolationError(MagnetoError):
    """An operation attempted to move user data from the Edge to the Cloud.

    The paper's Definition 1 forbids any Edge-to-Cloud user-data transfer;
    the :class:`~repro.core.privacy.PrivacyGuard` raises this error when the
    rule would be broken.
    """


class UnknownCohortError(ConfigurationError):
    """A cohort id was requested that the model registry does not serve.

    Raised by :class:`~repro.serving.registry.ModelRegistry` lookups and by
    :class:`~repro.serving.fleet.FleetServer` when a session is bound to (or
    served from) a cohort with no published or registered package.  Derives
    from :class:`ConfigurationError` so existing handlers keep working.
    """


class ProtocolError(MagnetoError):
    """A gateway wire frame could not be parsed or was semantically invalid.

    Raised by the :mod:`repro.serving.gateway.protocol` decoder for
    truncated, oversized or garbage-header bytes — never a raw
    ``struct.error``/``UnicodeDecodeError`` — and surfaced to remote
    clients as a structured ``ERROR`` frame with code ``PROTOCOL``.  The
    decoder resynchronizes past the offending bytes, so one corrupt frame
    does not poison the rest of the stream.
    """


class NotFittedError(MagnetoError):
    """A component that must be fitted/trained was used before fitting."""


class TrainingStateError(MagnetoError):
    """A training-time operation was invoked from an invalid state.

    Raised by :mod:`repro.nn` layers when ``backward`` is called without a
    preceding *training* forward pass (inference-mode forwards do not
    cache the activations backpropagation needs).
    """


class UnknownActivityError(MagnetoError):
    """An activity label was requested that the component does not know."""


class SerializationError(MagnetoError):
    """A model/pipeline bundle could not be saved or restored."""


class ResourceExceededError(MagnetoError):
    """A simulated edge-device resource budget (RAM, storage) was exceeded."""
