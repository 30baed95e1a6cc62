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

Rule (files under ``src/repro/core/`` and ``src/repro/serving/`` only):

* ``unseeded-draw`` — ``ensure_rng()`` or ``np.random.default_rng()``
  (by attribute or imported name) called with no argument or with a
  literal ``None``.  Thread the caller's generator (or seed) through
  instead; a parameter that may hold ``None`` is the caller's choice and
  is not flagged.
"""

from __future__ import annotations

import ast
from typing import Iterable

from .core import Checker, SourceFile, Violation

__all__ = ["UnseededDrawChecker"]

#: Calls that make a fresh generator from OS entropy when given no seed.
GENERATOR_CALLS = frozenset({"ensure_rng", "default_rng"})

#: Posix path fragments of the files the rule applies to.
DRAW_SCOPES = ("src/repro/core/", "src/repro/serving/")


def _name_of(node: ast.AST) -> str:
    """The name a ``Name`` or ``Attribute`` node refers to, else ``""``."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _unseeded(call: ast.Call) -> bool:
    """Whether ``call`` passes no seed: no argument, or only a literal
    ``None``."""
    values = list(call.args) + [keyword.value for keyword in call.keywords]
    if not values:
        return True
    return (
        len(values) == 1
        and isinstance(values[0], ast.Constant)
        and values[0].value is None
    )


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
