"""Each checker against its seeded fixture: exact rules, exact lines.

The fixtures in ``tests/analysis_fixtures/`` are never imported — they
exist to be *parsed*.  Every seeded violation carries a trailing marker
comment (``# array-alias: ...``), so the expected line numbers are read
from the fixture text itself instead of being hard-coded.
"""

import pathlib

import pytest

from repro.analysis import (
    ArrayAliasingChecker,
    AsyncHygieneChecker,
    DEFAULT_CHECKERS,
    EntryPointChecker,
    ExceptionTaxonomyChecker,
    PerCallDesignChecker,
    lint_source,
)

FIXTURES = pathlib.Path(__file__).parent / "analysis_fixtures"


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def marker_lines(text: str, marker: str) -> list:
    """1-based lines whose trailing comment starts with ``# <marker>``."""
    return [
        lineno
        for lineno, line in enumerate(text.splitlines(), start=1)
        if f"# {marker}" in line
    ]


def found(text, checker, path="<snippet>.py"):
    """``(rule, line)`` pairs the checker reports for the fixture text."""
    return [
        (v.rule, v.line) for v in lint_source(text, [checker], path=path)
    ]


class TestArrayAliasing:
    def test_fixture_violations(self):
        text = fixture_text("alias_assign.py")
        expected = sorted(
            [("array-alias", n) for n in marker_lines(text, "array-alias")]
            + [("view-return", n) for n in marker_lines(text, "view-return")],
            key=lambda pair: pair[1],
        )
        assert len(expected) == 5  # fixture contract: 3 aliases, 2 views
        assert found(text, ArrayAliasingChecker()) == expected

    def test_messages_name_class_and_attribute(self):
        text = fixture_text("alias_assign.py")
        violations = lint_source(text, [ArrayAliasingChecker()])
        aliases = [v for v in violations if v.rule == "array-alias"]
        assert all("ChunkStreamState" in v.message for v in aliases)
        assert any("'chunk'" in v.message for v in aliases)

    def test_non_stateful_class_exempt(self):
        source = (
            "class Helper:\n"
            "    def __init__(self, chunk):\n"
            "        self.chunk = chunk\n"
        )
        assert found(source, ArrayAliasingChecker()) == []

    def test_copy_on_the_way_in_passes(self):
        source = (
            "class TailStream:\n"
            "    def push(self, chunk):\n"
            "        self.tail = chunk.copy()\n"
        )
        assert found(source, ArrayAliasingChecker()) == []

    def test_asarray_counts_as_alias(self):
        source = (
            "class TailStream:\n"
            "    def push(self, chunk):\n"
            "        self.tail = np.asarray(chunk)\n"
        )
        assert found(source, ArrayAliasingChecker()) == [("array-alias", 3)]


class TestAsyncHygiene:
    def test_blocking_fixture(self):
        text = fixture_text("async_blocking.py")
        expected = [
            ("async-blocking", n)
            for n in marker_lines(text, "async-blocking")
        ]
        assert len(expected) == 1
        assert found(text, AsyncHygieneChecker()) == expected

    def test_inline_engine_call_is_legal(self):
        """Ticks run their engine calls on the loop: compute, not a wait."""
        source = (
            "async def tick(engine, features):\n"
            "    batch = engine.infer_features(features)\n"
            "    return batch, engine.infer_windows(features)\n"
        )
        assert found(source, AsyncHygieneChecker()) == []

    def test_lock_order_fixture(self):
        text = fixture_text("unsorted_locks.py")
        expected = [
            ("lock-order", n) for n in marker_lines(text, "lock-order")
        ]
        assert len(expected) == 1
        assert found(text, AsyncHygieneChecker()) == expected

    def test_blind_sleep_fixture(self):
        text = fixture_text("blind_sleep.py")
        expected = [
            ("blind-sleep", n) for n in marker_lines(text, "blind-sleep")
        ]
        assert len(expected) == 3
        for path in (
            "src/repro/serving/gateway/server.py",
            "src/repro/serving/gateway/client.py",
            "src/repro/serving/async_fleet.py",
        ):
            assert found(text, AsyncHygieneChecker(), path=path) == expected

    @pytest.mark.parametrize("path", [
        "src/repro/serving/gateway/loadgen.py",
        "tests/test_gateway_server.py",
    ])
    def test_pacing_and_backoff_may_sleep(self, path):
        text = fixture_text("blind_sleep.py")
        assert found(text, AsyncHygieneChecker(), path=path) == []

    def test_sync_function_may_block(self):
        source = "import time\n\ndef tick():\n    time.sleep(1)\n"
        assert found(source, AsyncHygieneChecker()) == []

    def test_from_time_import_sleep_alias_caught(self):
        source = (
            "from time import sleep as snooze\n\n"
            "async def tick():\n"
            "    snooze(1)\n"
        )
        assert found(source, AsyncHygieneChecker()) == [("async-blocking", 4)]

    def test_async_with_lock_loop_needs_sorting(self):
        source = (
            "async def tick(locks):\n"
            "    for lock in locks:\n"
            "        async with lock:\n"
            "            pass\n"
        )
        assert found(source, AsyncHygieneChecker()) == [("lock-order", 2)]


class TestEntryPoint:
    def test_fixture_from_a_serving_path(self):
        text = fixture_text("out_of_layer_call.py")
        violations = lint_source(
            text, [EntryPointChecker()], path="src/repro/serving/rogue.py"
        )
        assert [v.rule for v in violations] == ["entry-point"] * 5

    def test_fixture_structure(self):
        text = fixture_text("out_of_layer_call.py")
        violations = lint_source(
            text, [EntryPointChecker()], path="src/repro/serving/rogue.py"
        )
        import_hits = [v for v in violations if "import of" in v.message]
        ref_hits = [v for v in violations if "reference to" in v.message]
        call_hits = [v for v in violations if "distance internal" in v.message]
        assert (len(import_hits), len(ref_hits), len(call_hits)) == (2, 2, 1)

    @pytest.mark.parametrize("path", [
        "src/repro/core/engine.py",
        "src/repro/preprocessing/features.py",
    ])
    def test_allowed_layers_exempt(self, path):
        text = fixture_text("out_of_layer_call.py")
        assert lint_source(text, [EntryPointChecker()], path=path) == []

    def test_ncm_construction_is_allowed(self):
        source = (
            "from repro.core.ncm import NCMClassifier\n"
            "clf = NCMClassifier()\n"
        )
        violations = lint_source(
            source, [EntryPointChecker()], path="src/repro/serving/reg.py"
        )
        assert violations == []


class TestExceptionTaxonomy:
    def test_raw_raise_fixture(self):
        text = fixture_text("raw_raise.py")
        expected = [
            ("raw-raise", n) for n in marker_lines(text, "raw-raise")
        ]
        assert len(expected) == 3
        assert found(text, ExceptionTaxonomyChecker()) == expected

    def test_broad_except_fixture(self):
        text = fixture_text("broad_except.py")
        expected = [
            ("broad-except", n)
            for n in marker_lines(text, "broad-except:")
        ]
        assert len(expected) == 1
        assert found(text, ExceptionTaxonomyChecker()) == expected

    def test_bare_except_flagged(self):
        source = "try:\n    pass\nexcept:\n    pass\n"
        violations = lint_source(source, [ExceptionTaxonomyChecker()])
        assert [v.rule for v in violations] == ["broad-except"]
        assert "bare except" in violations[0].message

    def test_reraise_from_closure_does_not_count(self):
        source = (
            "try:\n"
            "    pass\n"
            "except Exception:\n"
            "    def later():\n"
            "        raise\n"
        )
        violations = lint_source(source, [ExceptionTaxonomyChecker()])
        assert [v.rule for v in violations] == ["broad-except"]


class TestPerCallDesign:
    def test_fixture_violations(self):
        text = fixture_text("per_call_design.py")
        expected = [
            ("per-call-design", n)
            for n in marker_lines(text, "per-call-design")
        ]
        assert len(expected) == 4
        assert found(
            text, PerCallDesignChecker(),
            path="src/repro/preprocessing/denoise.py",
        ) == expected

    def test_message_names_call_and_function(self):
        text = fixture_text("per_call_design.py")
        violations = lint_source(
            text, [PerCallDesignChecker()],
            path="src/repro/preprocessing/denoise.py",
        )
        assert "filtfilt() in apply_batch" in violations[1].message

    @pytest.mark.parametrize("path", [
        "src/repro/core/engine.py",
        "benchmarks/bench_precision.py",
        "tests/test_preprocessing_denoise.py",
    ])
    def test_outside_preprocessing_exempt(self, path):
        text = fixture_text("per_call_design.py")
        assert found(text, PerCallDesignChecker(), path=path) == []

    def test_lambda_is_per_call(self):
        source = "import numpy as np\nradius = lambda a: np.roots(a)\n"
        assert found(
            source, PerCallDesignChecker(),
            path="src/repro/preprocessing/x.py",
        ) == [("per-call-design", 2)]


class TestStrictPragmas:
    def test_bad_pragma_fixture_clean_by_default(self):
        text = fixture_text("bad_pragma.py")
        assert lint_source(text, list_of_all()) == []

    def test_bad_pragma_fixture_fails_strict(self):
        text = fixture_text("bad_pragma.py")
        violations = lint_source(text, list_of_all(), strict=True)
        assert [v.rule for v in violations] == ["pragma-justification"]


class TestCleanFixture:
    def test_no_checker_objects(self):
        text = fixture_text("clean.py")
        assert lint_source(text, list_of_all(), strict=True) == []


def list_of_all():
    return [cls() for cls in DEFAULT_CHECKERS]
