"""Simulated edge-device runtime: resource model, device budget accountant, demo app."""

from .app import AppEvent, AppState, MagnetoApp, PredictionFrame
from .journal import ActivityJournal, ActivitySegment
from .display import (
    confidence_bar,
    render_event_log,
    render_prediction,
    render_session,
)
from .resources import (
    DEVICE_PRESETS,
    FLAGSHIP_PHONE,
    MIDRANGE_PHONE,
    RASPBERRY_PI,
    DeviceSpec,
    ResourceAccountant,
    ResourceModel,
    RuntimeStats,
    forward_flops,
    training_flops,
)

__all__ = [
    "ActivityJournal",
    "ActivitySegment",
    "AppEvent",
    "AppState",
    "DEVICE_PRESETS",
    "DeviceSpec",
    "FLAGSHIP_PHONE",
    "MagnetoApp",
    "MIDRANGE_PHONE",
    "PredictionFrame",
    "RASPBERRY_PI",
    "ResourceAccountant",
    "ResourceModel",
    "RuntimeStats",
    "confidence_bar",
    "forward_flops",
    "render_event_log",
    "render_prediction",
    "render_session",
    "training_flops",
]
