"""``repro.analysis`` — reprolint, the repo's AST-based invariant checker.

Mechanizes ROADMAP.md's standing contracts as eight project-specific
static checks (see each module's docstring for the full rule rationale):

- :mod:`~repro.analysis.entry_points` — inference routes through
  ``InferenceEngine``; no out-of-layer ``StreamingFeatureExtractor`` /
  ``sliding_windows`` / NCM-distance calls,
- :mod:`~repro.analysis.exception_taxonomy` — raises use
  ``repro.exceptions`` types; broad excepts re-raise or justify,
- :mod:`~repro.analysis.aliasing` — streaming/session classes copy
  caller arrays in and views out (the PR 3 bug class),
- :mod:`~repro.analysis.async_hygiene` — no blocking calls on the event
  loop; per-session locks acquired in sorted order,
- :mod:`~repro.analysis.design_hoist` — preprocessing solves filter
  designs (``butter``, ``lfilter_zi``, ``roots``, ``filtfilt``, the
  numpy ``design_lfilter`` loop) at construction, never per call,
- :mod:`~repro.analysis.lazy_imports` — no module-scope import of a
  ``scipy`` submodule in the library, and no import of ``scipy.signal``
  at any scope,
- :mod:`~repro.analysis.seeded_draws` — the device and serving layers
  make no generator from a missing seed,
- :mod:`~repro.analysis.bench_manifest` — benchmarks, baselines and the
  CI gate manifest agree.

The framework (:mod:`~repro.analysis.core`) provides the
:class:`Checker` protocol, ``# reprolint: disable=<rule> — <why>``
pragma suppression (justification required under ``--strict``) and the
text/JSON reporters.  ``tools/run_lint.py`` is the CI driver::

    PYTHONPATH=src python tools/run_lint.py --strict
"""

from .aliasing import ArrayAliasingChecker
from .async_hygiene import AsyncHygieneChecker
from .bench_manifest import BenchManifestChecker, read_gate_rows
from .core import (
    Checker,
    LintReport,
    Pragma,
    RepoChecker,
    SourceFile,
    Violation,
    format_json,
    format_text,
    lint_paths,
    lint_source,
)
from .design_hoist import PerCallDesignChecker
from .entry_points import EntryPointChecker
from .exception_taxonomy import ExceptionTaxonomyChecker
from .lazy_imports import LazyScipyChecker, ScipySignalChecker
from .seeded_draws import UnseededDrawChecker

#: The default per-file checker battery, in reporting order.
DEFAULT_CHECKERS = (
    EntryPointChecker,
    ExceptionTaxonomyChecker,
    ArrayAliasingChecker,
    AsyncHygieneChecker,
    PerCallDesignChecker,
    LazyScipyChecker,
    ScipySignalChecker,
    UnseededDrawChecker,
)

#: Repo-layout checkers (run once per lint, not per file).
DEFAULT_REPO_CHECKERS = (BenchManifestChecker,)

__all__ = [
    "ArrayAliasingChecker",
    "AsyncHygieneChecker",
    "BenchManifestChecker",
    "Checker",
    "DEFAULT_CHECKERS",
    "DEFAULT_REPO_CHECKERS",
    "EntryPointChecker",
    "ExceptionTaxonomyChecker",
    "LazyScipyChecker",
    "LintReport",
    "PerCallDesignChecker",
    "Pragma",
    "RepoChecker",
    "ScipySignalChecker",
    "SourceFile",
    "UnseededDrawChecker",
    "Violation",
    "format_json",
    "format_text",
    "lint_paths",
    "lint_source",
    "read_gate_rows",
]
