"""``eager-scipy``, ``scipy-signal`` — the library imports scipy's submodules
where it uses them, and never ``scipy.signal``.

``import repro.serving`` used to import ``scipy.signal`` and
``scipy.ndimage`` through the denoiser's module-scope imports: about
0.45 s and 66 MB before a gateway process could serve its first window,
for code a deployment filtering at stride = window never calls.  With
the imports moved into the functions that need them, a fresh
interpreter's ``import repro.serving`` measured 0.48 s before and 0.10 s
after on a 2-vCPU VM.  One module-scope ``from scipy.x import y``
anywhere in the package would bring the cost back for every process.

Rule (files under ``src/repro/`` only):

* ``eager-scipy`` — ``import scipy.<sub>``, ``from scipy.<sub> import
  ...`` or ``from scipy import <sub>`` outside any function, class bodies
  included (they run at import).  Import the submodule inside the
  function that first needs it (``repro.preprocessing.denoise`` keeps it
  in a module attribute after the first call).  A bare ``import scipy``
  is fine: it loads no submodule.

Serving at a stride below the window still imported the whole
``scipy.signal`` package, from inside ``_lfilter``, for one compiled
routine: 0.8-1.0 s and 75 MB in a fresh interpreter on a 2-vCPU VM,
most of the overlapping-stride gateway's start-up time and half its peak
RSS.  The denoiser now loads scipy's compiled kernel
``scipy/signal/_sigtools`` on its own (about 5 ms and under 1 MB), so no
path in the library needs the package.

Rule (files under ``src/repro/`` only):

* ``scipy-signal`` — ``import scipy.signal``, ``from scipy.signal import
  ...`` or ``from scipy import signal`` (the package or any of its
  submodules), at any scope, function bodies included.  Use the loaded
  kernel of ``repro.preprocessing.denoise`` or the numpy design of
  ``repro.preprocessing.iir_design``.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from .core import Checker, SourceFile, Violation

__all__ = ["LazyScipyChecker", "ScipySignalChecker"]

#: Posix path fragment of the files the rule applies to.
LIBRARY_SCOPE = "src/repro/"

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _scipy_submodule(node: ast.AST) -> Optional[str]:
    """The ``scipy.<sub>`` an import statement loads, if any."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            if alias.name.startswith("scipy."):
                return alias.name
    elif isinstance(node, ast.ImportFrom) and not node.level:
        module = node.module or ""
        if module.startswith("scipy."):
            return module
        if module == "scipy":
            return f"scipy.{node.names[0].name}"
    return None


class LazyScipyChecker(Checker):
    name = "eager-scipy"
    rules = ("eager-scipy",)

    def check(self, src: SourceFile) -> Iterable[Violation]:
        if LIBRARY_SCOPE not in src.rel:
            return
        yield from self._visit(src, src.tree)

    def _visit(self, src: SourceFile, node: ast.AST) -> Iterable[Violation]:
        """Walk everything that runs at import: not into function bodies."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _FUNCTIONS):
                continue
            submodule = _scipy_submodule(child)
            if submodule is not None:
                yield src.violation(
                    "eager-scipy",
                    child,
                    f"module-scope import of {submodule} makes every "
                    "process that imports this module pay for it — "
                    "import it inside the function that first needs it",
                )
            yield from self._visit(src, child)


def _imports_scipy_signal(node: ast.AST) -> bool:
    """Whether an import statement loads the ``scipy.signal`` package."""
    if isinstance(node, ast.Import):
        return any(
            alias.name == "scipy.signal" or alias.name.startswith("scipy.signal.")
            for alias in node.names
        )
    if isinstance(node, ast.ImportFrom) and not node.level:
        module = node.module or ""
        if module == "scipy":
            return any(alias.name == "signal" for alias in node.names)
        return module == "scipy.signal" or module.startswith("scipy.signal.")
    return False


class ScipySignalChecker(Checker):
    name = "scipy-signal"
    rules = ("scipy-signal",)

    def check(self, src: SourceFile) -> Iterable[Violation]:
        if LIBRARY_SCOPE not in src.rel:
            return
        for node in ast.walk(src.tree):
            if _imports_scipy_signal(node):
                yield src.violation(
                    "scipy-signal",
                    node,
                    "importing scipy.signal loads every signal submodule "
                    "(about 0.9 s and 75 MB) — call the compiled lfilter "
                    "kernel repro.preprocessing.denoise loads, or the numpy "
                    "design in repro.preprocessing.iir_design",
                )
