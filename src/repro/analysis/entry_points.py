"""``entry-point`` — all inference routes through ``InferenceEngine``.

ROADMAP invariant: every window->verdict path goes through
``repro.core.engine.InferenceEngine``.  Concretely, only the ``core`` and
``preprocessing`` layers may touch the pipeline's internals —
``StreamingFeatureExtractor`` (feature pricing),
``sliding_windows`` (segmentation), and the NCM *distance* internals
(``NCMClassifier.distances`` / ``proba_from_distances``).  Serving, edge,
eval and CLI code referencing any of those directly is re-implementing a
slice of the pipeline, which is exactly how fast-path parity drifts.

Constructing an :class:`~repro.core.ncm.NCMClassifier` outside ``core``
(to *build* a model — registries rebuilding a package, baselines fitting
a comparison classifier) is allowed; computing distances with one is not.
"""

from __future__ import annotations

import ast
from typing import Iterable, Tuple

from .core import Checker, SourceFile, Violation

__all__ = ["EntryPointChecker"]

#: Names only ``core``/``preprocessing`` may reference.
RESTRICTED_NAMES = frozenset({"StreamingFeatureExtractor", "sliding_windows"})

#: Method names that expose raw NCM distance internals.
RESTRICTED_METHODS = frozenset({"distances", "proba_from_distances"})

#: Path fragments (posix) naming the layers allowed to use the internals.
ALLOWED_LAYERS: Tuple[str, ...] = ("core", "preprocessing")


def _layer_of(rel_path: str) -> str:
    """The sub-package a repo-relative module path belongs to.

    ``src/repro/serving/registry.py`` -> ``serving``; files outside a
    ``repro`` package (tests, tools, fixtures) get their first directory
    component, or ``""`` for bare files.
    """
    parts = rel_path.split("/")
    if "repro" in parts:
        after = parts[parts.index("repro") + 1 :]
        return after[0] if len(after) > 1 else ""
    return parts[0] if len(parts) > 1 else ""


class EntryPointChecker(Checker):
    name = "entry-point"
    rules = ("entry-point",)

    def check(self, src: SourceFile) -> Iterable[Violation]:
        if _layer_of(src.rel) in ALLOWED_LAYERS:
            return
        for node in ast.walk(src.tree):
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name in RESTRICTED_NAMES:
                        yield src.violation(
                            "entry-point",
                            node,
                            f"import of {alias.name!r} outside core/ and "
                            "preprocessing/ — route through "
                            "repro.core.engine.InferenceEngine",
                        )
            elif isinstance(node, ast.Name):
                if node.id in RESTRICTED_NAMES:
                    yield src.violation(
                        "entry-point",
                        node,
                        f"reference to {node.id!r} outside core/ and "
                        "preprocessing/ — route through "
                        "repro.core.engine.InferenceEngine",
                    )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in RESTRICTED_METHODS
                ):
                    yield src.violation(
                        "entry-point",
                        node,
                        f"call of NCM distance internal .{func.attr}() "
                        "outside core/ — InferenceEngine already returns "
                        "distances and confidences on every verdict",
                    )
