"""``per-call-design`` — filter design is solved at construction, not per call.

A zero-phase Butterworth pass over one window takes tens of
microseconds, and re-deriving the filter's configuration-only constants
on every call added two thirds on top.  On a 2-vCPU VM a one-window
``apply_batch`` measured 105 us through ``filtfilt``, which re-solves
``lfilter_zi`` (a linear system) each time, and 64 us as two ``lfilter``
passes with the design cached.  The design's window operator, itself
derived once per window length, makes it one product: 24 us, against
78 us for the two passes in the same later rounds.  A stream that
re-roots ``a`` pays ``np.roots`` the same way.  The preprocessing layer
therefore builds each design once, in a class ``__init__``
(``ZeroPhaseDesign``, ``ButterworthLowpass``) or at module scope, and
every per-call path reuses it.

Rule (files under ``repro/preprocessing/`` only):

* ``per-call-design`` — a call to ``filtfilt``, ``lfilter_zi``, ``butter``
  or ``roots`` (by attribute or imported name) whose nearest enclosing
  function is anything but a class's ``__init__``.  Module scope and class
  bodies run once and are fine; a function nested inside ``__init__`` runs
  whenever it is called and is not.
"""

from __future__ import annotations

import ast
from typing import Iterable

from .core import Checker, SourceFile, Violation

__all__ = ["PerCallDesignChecker"]

#: Calls that (re)derive a filter design from its coefficients.
DESIGN_CALLS = frozenset({"filtfilt", "lfilter_zi", "butter", "roots"})

#: Posix path fragment of the files the rule applies to.
DESIGN_SCOPE = "repro/preprocessing/"

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _called_name(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


class PerCallDesignChecker(Checker):
    name = "per-call-design"
    rules = ("per-call-design",)

    def check(self, src: SourceFile) -> Iterable[Violation]:
        if DESIGN_SCOPE not in src.rel:
            return
        yield from self._visit(src, src.tree, None)

    def _visit(
        self, src: SourceFile, node: ast.AST, function
    ) -> Iterable[Violation]:
        """Walk ``node``; ``function`` is the nearest enclosing function
        whose body is per-call (``None`` at construction or module scope)."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _FUNCTIONS):
                constructor = (
                    isinstance(node, ast.ClassDef)
                    and getattr(child, "name", "") == "__init__"
                )
                yield from self._visit(
                    src, child, None if constructor else child
                )
                continue
            if (
                function is not None
                and isinstance(child, ast.Call)
                and _called_name(child) in DESIGN_CALLS
            ):
                where = getattr(function, "name", "<lambda>")
                yield src.violation(
                    "per-call-design",
                    child,
                    f"{_called_name(child)}() in {where} re-derives the "
                    "filter design on every call — build the design once "
                    "at construction (a class __init__ or module scope)",
                )
            yield from self._visit(src, child, function)
