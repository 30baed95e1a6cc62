"""``unseeded-draw`` — the device and serving layers draw from a seeded generator.

The paper's personalization loop runs on the device, and replaying it —
a rollback that claims "byte-identical", a digest of learn and
calibrate, a check that personalization did not change yesterday's
verdicts — needs the same package, seed and recordings to store the
same bytes.  Three identical ``EdgeDevice(rng=3)`` runs once stored
three different support sets: ``TransferPackage.load`` built the
``SupportSet`` with ``rng=None``, so its selection drew from OS entropy
on every install route.  The rule flags the direct form of that fault:
a generator made from no seed on a device or serving path.

The same holds for a network built with fresh weights: ``build_mlp``,
``Sequential.from_config`` and ``layer_from_config`` draw an init from
their ``rng``, and with none given from OS entropy.  On a device or
serving path that is either a fresh model no seed replays or, as
``TransferPackage.load`` once did, an init thrown away as soon as the
stored weights are loaded over it; ``Sequential.from_state`` rebuilds a
stored network drawing nothing.

Rule (files under ``src/repro/core/`` and ``src/repro/serving/`` only):

* ``unseeded-draw`` — ``ensure_rng()`` or ``np.random.default_rng()``
  (by attribute or imported name) called with no argument or with a
  literal ``None``; or ``build_mlp``, ``Sequential.from_config`` or
  ``layer_from_config`` called with no ``rng`` (by keyword or position)
  or a literal ``None`` one.  Thread the caller's generator (or seed)
  through instead; a parameter that may hold ``None`` is the caller's
  choice and is not flagged.
"""

from __future__ import annotations

import ast
from typing import Iterable

from .core import Checker, SourceFile, Violation

__all__ = ["UnseededDrawChecker"]

#: Calls that make a fresh generator from OS entropy when given no seed.
GENERATOR_CALLS = frozenset({"ensure_rng", "default_rng"})

#: Network builders that draw an init, with the position of their ``rng``
#: parameter.
INIT_CALLS = {"build_mlp": 6, "Sequential.from_config": 1, "layer_from_config": 1}

#: Posix path fragments of the files the rule applies to.
DRAW_SCOPES = ("src/repro/core/", "src/repro/serving/")


def _name_of(node: ast.AST) -> str:
    """The name a ``Name`` or ``Attribute`` node refers to, else ``""``."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _none(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _unseeded(call: ast.Call) -> bool:
    """Whether ``call`` passes no seed: no argument, or only a literal
    ``None``."""
    values = list(call.args) + [keyword.value for keyword in call.keywords]
    return not values or (len(values) == 1 and _none(values[0]))


def _unseeded_init(call: ast.Call, position: int) -> bool:
    """Whether a network-builder ``call`` passes no ``rng``, or a literal
    ``None`` one, by keyword or at ``position``."""
    for keyword in call.keywords:
        if keyword.arg == "rng":
            return _none(keyword.value)
        if keyword.arg is None:  # **kwargs may carry it
            return False
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return False
    return len(call.args) <= position or _none(call.args[position])


def _builder(call: ast.Call) -> str:
    """The :data:`INIT_CALLS` key of the builder ``call`` invokes, else
    ``""``: ``build_mlp`` or ``layer_from_config`` by any reference,
    ``from_config`` only on ``Sequential``."""
    name = _name_of(call.func)
    if name == "from_config" and isinstance(call.func, ast.Attribute):
        name = f"{_name_of(call.func.value)}.{name}"
    return name if name in INIT_CALLS else ""


class UnseededDrawChecker(Checker):
    name = "unseeded-draw"
    rules = ("unseeded-draw",)

    def check(self, src: SourceFile) -> Iterable[Violation]:
        if not any(scope in src.rel for scope in DRAW_SCOPES):
            return
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _name_of(node.func)
            if name in GENERATOR_CALLS and _unseeded(node):
                yield src.violation(
                    "unseeded-draw",
                    node,
                    f"{name}() with no seed draws from OS entropy, so the "
                    "same seed no longer replays the same bytes — pass "
                    "the caller's generator or seed",
                )
            builder = _builder(node)
            if builder and _unseeded_init(node, INIT_CALLS[builder]):
                yield src.violation(
                    "unseeded-draw",
                    node,
                    f"{builder}() with no rng draws an init from OS "
                    "entropy — pass the caller's generator or seed, or "
                    "rebuild stored weights with Sequential.from_state",
                )
