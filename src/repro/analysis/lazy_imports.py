"""``eager-scipy`` — the library imports scipy's submodules where it uses them.

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
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from .core import Checker, SourceFile, Violation

__all__ = ["LazyScipyChecker"]

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
