"""The lint pass runs self-clean over the live tree, and the CLI gates.

Two halves of the acceptance criterion: ``run_lint.py --strict`` exits 0
on the repository (every suppression justified), and exits non-zero when
pointed at any fixture with a seeded violation.
"""

import pathlib
import sys

import pytest

from repro.analysis import (
    DEFAULT_CHECKERS,
    DEFAULT_REPO_CHECKERS,
    lint_paths,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = pathlib.Path(__file__).parent / "analysis_fixtures"

sys.path.insert(0, str(REPO_ROOT / "tools"))
import run_lint  # noqa: E402  (tools/ is not a package)


def live_report(strict=True):
    return lint_paths(
        [REPO_ROOT / "src"],
        [cls() for cls in DEFAULT_CHECKERS],
        root=REPO_ROOT,
        repo_checkers=[cls() for cls in DEFAULT_REPO_CHECKERS],
        strict=strict,
    )


class TestLiveTreeSelfClean:
    def test_src_scans_clean_under_strict(self):
        report = live_report(strict=True)
        assert report.errors == [], "\n".join(
            v.format() for v in report.errors
        )

    def test_every_suppression_is_justified(self):
        report = live_report(strict=True)
        assert report.suppressed, "expected the known failure-isolation sites"
        for violation, pragma in report.suppressed:
            assert pragma.justification, violation.format()

    def test_known_failure_isolation_sites_are_suppressed(self):
        """The broad-except swallows of the fleet tick and the gateway."""
        report = live_report()
        suppressed = {
            (v.path, v.rule) for v, _ in report.suppressed
        }
        assert ("src/repro/serving/fleet.py", "broad-except") in suppressed
        assert (
            "src/repro/serving/gateway/server.py",
            "broad-except",
        ) in suppressed

    def test_warnings_are_only_bench_ungated(self):
        """Ungated benchmarks are the one tolerated warning class."""
        report = live_report()
        assert {v.rule for v in report.warnings} <= {"bench-ungated"}

    def test_promoted_gates_have_baselines(self):
        """PR satellite: latency + memory joined the gate manifest."""
        from repro.analysis.bench_manifest import read_gate_rows

        rows = read_gate_rows(REPO_ROOT / "tools" / "run_bench_gates.py")
        names = {name for name, _, _ in rows}
        assert {"latency", "memory"} <= names
        for name in ("latency", "memory"):
            assert (REPO_ROOT / f"BENCH_{name}.json").is_file()


class TestFilterDesignHoisted:
    """``per-call-design``: preprocessing solves filter designs once."""

    def test_preprocessing_clean_with_no_suppression(self):
        report = live_report()
        assert not [
            v for v in report.violations if v.rule == "per-call-design"
        ]
        assert not [
            v for v, _ in report.suppressed if v.rule == "per-call-design"
        ]

    def test_design_is_still_solved_somewhere(self):
        """The rule is live on real calls, not vacuous: the denoiser does
        call ``butter``/``lfilter_zi``/``roots`` — from constructors."""
        from repro.analysis import PerCallDesignChecker, lint_source

        denoise = REPO_ROOT / "src" / "repro" / "preprocessing" / "denoise.py"
        text = denoise.read_text(encoding="utf-8")
        for call in ("butter(", "lfilter_zi(", "roots("):
            assert call in text
        moved = text.replace("    def __init__(self, b, a)", "    def solve(self, b, a)")
        hits = lint_source(
            moved, [PerCallDesignChecker()],
            path="src/repro/preprocessing/denoise.py",
        )
        assert {v.message.split("()")[0] for v in hits} == {"lfilter_zi", "roots"}

    def test_rule_listed(self, capsys):
        assert run_lint.main(["--list-rules"]) == 0
        assert "per-call-design" in capsys.readouterr().out


class TestRunLintCli:
    @pytest.mark.parametrize("fixture", [
        "alias_assign.py",
        "unsorted_locks.py",
        "out_of_layer_call.py",
        "raw_raise.py",
        "broad_except.py",
        "async_blocking.py",
    ])
    def test_seeded_fixture_fails_the_gate(self, fixture, capsys):
        exit_code = run_lint.main(["--strict", str(FIXTURES / fixture)])
        out = capsys.readouterr().out
        assert exit_code == 1, out
        assert "error" in out

    def test_clean_fixture_passes(self, capsys):
        assert run_lint.main(["--strict", str(FIXTURES / "clean.py")]) == 0
        capsys.readouterr()

    def test_unjustified_pragma_passes_default_fails_strict(self, capsys):
        fixture = str(FIXTURES / "bad_pragma.py")
        assert run_lint.main([fixture]) == 0
        assert run_lint.main(["--strict", fixture]) == 1
        assert "pragma-justification" in capsys.readouterr().out

    def test_default_tree_strict_exits_zero(self, capsys):
        """The CI invocation: lint src/ + bench manifest, strict."""
        assert run_lint.main(["--strict"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_json_output(self, capsys):
        import json

        assert run_lint.main(["--json", str(FIXTURES / "raw_raise.py")]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] == 3
        assert all(
            v["rule"] == "raw-raise" for v in payload["violations"]
        )

    def test_list_rules(self, capsys):
        assert run_lint.main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in (
            "entry-point", "raw-raise", "broad-except", "array-alias",
            "view-return", "async-blocking", "lock-order", "blind-sleep",
            "bench-gate",
            "bench-ungated", "pragma-justification",
        ):
            assert rule in out

    def test_missing_path_is_usage_error(self, capsys):
        assert run_lint.main(["no/such/file.py"]) == 2
        capsys.readouterr()

    def test_verbose_shows_justifications(self, capsys):
        exit_code = run_lint.main([
            "--verbose", str(FIXTURES / "broad_except.py")
        ])
        out = capsys.readouterr().out
        assert exit_code == 1  # the seeded swallow still fails
        assert "suppressed:" in out
        assert "failure isolation fixture" in out
