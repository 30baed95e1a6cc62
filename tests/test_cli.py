"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def saved_package(request, tmp_path_factory):
    """A small package saved to disk via the test scenario."""
    scenario = request.getfixturevalue("scenario")
    path = tmp_path_factory.mktemp("cli") / "package.npz"
    scenario.package.save(path)
    return str(path)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_pretrain_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["pretrain"])

    def test_defaults(self):
        args = build_parser().parse_args(["pretrain", "--out", "x.npz"])
        assert args.users == 5
        assert args.windows == 30

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explode"])


class TestPretrainCommand:
    def test_pretrain_saves_loadable_package(self, tmp_path, capsys):
        out = tmp_path / "pkg.npz"
        code = main([
            "pretrain", "--out", str(out),
            "--users", "2", "--windows", "6", "--epochs", "3",
            "--support", "10", "--seed", "1",
        ])
        assert code == 0
        assert out.exists()
        captured = capsys.readouterr().out
        assert "train accuracy" in captured

        from repro.core import TransferPackage

        package = TransferPackage.load(out)
        assert package.support_set.n_classes == 5


class TestInspectCommand:
    def test_inspect_prints_classes_and_footprint(self, saved_package, capsys):
        assert main(["inspect", saved_package]) == 0
        out = capsys.readouterr().out
        assert "drive" in out
        assert "footprint" in out
        assert "total" in out


class TestInferCommand:
    def test_infer_correct_activity_exits_zero(self, saved_package, capsys):
        code = main([
            "infer", saved_package,
            "--activity", "still", "--seconds", "4",
            "--user-seed", "3", "--seed", "5",
        ])
        out = capsys.readouterr().out
        assert "majority verdict" in out
        assert code == 0

    def test_infer_unknown_activity_name_raises(self, saved_package):
        from repro.exceptions import UnknownActivityError

        with pytest.raises(UnknownActivityError):
            main(["infer", saved_package, "--activity", "levitate"])


class TestFleetCommand:
    def test_fleet_defaults(self):
        args = build_parser().parse_args(["fleet", "pkg.npz"])
        assert args.sessions == 25
        assert args.ticks == 5

    def test_fleet_serves_sessions_through_engine(self, saved_package, capsys):
        code = main([
            "fleet", saved_package,
            "--sessions", "6", "--ticks", "3", "--seed", "4",
        ])
        out = capsys.readouterr().out
        assert "served 18 windows across 6 sessions" in out
        assert "engine throughput" in out
        assert "smoothed fleet accuracy" in out
        assert code == 0

    def test_fleet_cohorts_spec_serves_multi_model(
        self, saved_package, tmp_path, capsys
    ):
        import json

        spec = tmp_path / "cohorts.json"
        spec.write_text(json.dumps({
            "default": "wrist",
            "cohorts": {
                "wrist": {"sessions": 3},
                "pocket": {"package": saved_package, "sessions": 2},
            },
        }))
        code = main([
            "fleet", saved_package,
            "--cohorts", str(spec), "--ticks", "3", "--seed", "4",
        ])
        out = capsys.readouterr().out
        assert "served 15 windows across 5 sessions" in out
        assert "cohort wrist: 3 sessions" in out
        assert "cohort pocket: 2 sessions" in out
        assert "[default]" in out
        assert "smoothed fleet accuracy" in out
        assert code == 0

    def test_fleet_cohorts_bad_spec_raises(self, saved_package, tmp_path):
        from repro.exceptions import SerializationError

        spec = tmp_path / "broken.json"
        spec.write_text("{not json")
        with pytest.raises(SerializationError):
            main(["fleet", saved_package, "--cohorts", str(spec)])


class TestDemoCommand:
    def test_demo_learns_and_reports(self, saved_package, capsys):
        code = main([
            "demo", saved_package,
            "--new-activity", "gesture_hi",
            "--user-seed", "3", "--seed", "5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "new:gesture_hi" in out
        assert "user bytes sent to Cloud: 0" in out


class TestGatewayCommands:
    def test_gateway_defaults(self):
        args = build_parser().parse_args(["gateway", "pkg.npz"])
        assert args.host == "127.0.0.1"
        assert args.port == 7070
        assert not hasattr(args, "workers")
        assert not hasattr(args, "max_inflight")

    def test_gateway_bench_defaults(self):
        args = build_parser().parse_args(["gateway-bench", "pkg.npz"])
        assert args.devices == 8
        assert args.ticks == 5
        assert args.tick_interval == 0.0
        assert not hasattr(args, "codec")
        assert not hasattr(args, "workers")

    @pytest.mark.parametrize("argv", [
        ["fleet", "pkg.npz", "--async-workers", "2"],
        ["gateway", "pkg.npz", "--workers", "2"],
        ["gateway", "pkg.npz", "--max-inflight", "8"],
        ["gateway-bench", "pkg.npz", "--workers", "2"],
    ])
    def test_removed_serving_knobs_are_rejected(self, argv, capsys):
        """Ticks run inline on the event loop: no pool size, no queue."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        assert argv[2] in capsys.readouterr().err

    def test_gateway_bench_rejects_bad_codec(self, capsys):
        """The gateway has one wire format, so ``--codec`` is no option."""
        for codec in ("msgpack", "json", "binary"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(
                    ["gateway-bench", "pkg.npz", "--codec", codec]
                )
            assert "--codec" in capsys.readouterr().err

    def test_gateway_bench_replays_devices(self, saved_package, capsys):
        code = main([
            "gateway-bench", saved_package,
            "--devices", "3", "--ticks", "2", "--seed", "4",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "3 devices x 2 ticks" in out
        assert "tick latency: p50" in out

    def test_gateway_bench_saturation_ramp(self, saved_package, capsys):
        code = main([
            "gateway-bench", saved_package,
            "--devices", "2", "--ticks", "2", "--saturation",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "saturation point:" in out

    def test_gateway_bench_rejects_zero_devices(self, saved_package):
        assert main(["gateway-bench", saved_package, "--devices", "0"]) == 2
