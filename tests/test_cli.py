"""The CLI surface, run in-process: every subcommand's happy path plus
the error exits.  A shared fixture pins the cache to a temp directory
and the pool width to 1 so tests never touch the repo's real run cache."""

import json

import pytest

from repro.cli import main


@pytest.fixture
def cli(tmp_path, monkeypatch, capsys):
    """Run ``main(argv)`` hermetically; returns (exit_code, out, err)."""
    monkeypatch.setenv("REPRO_RUNCACHE", str(tmp_path / "runcache"))
    monkeypatch.setenv("REPRO_JOBS", "1")
    monkeypatch.delenv("REPRO_VALIDATE", raising=False)

    def run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run


class TestListing:
    def test_list_names_every_figure(self, cli):
        code, out, _ = cli("list")
        assert code == 0
        for number in ("1", "2", "5", "6", "7", "8", "9", "10", "11"):
            assert f"figure {number:>2}:" in out

    def test_backends_lists_fidelities(self, cli):
        code, out, _ = cli("backends")
        assert code == 0
        for name in ("analytic", "detailed", "macro", "scoped"):
            assert name in out
        assert "hybrid" not in out

    def test_protocols_lists_registry(self, cli):
        code, out, _ = cli("protocols")
        assert code == 0
        for name in ("independent", "ext2ph", "parcoll", "nodeagg"):
            assert name in out


class TestPerf:
    def test_perf_list(self, cli):
        code, out, _ = cli("perf", "list")
        assert code == 0
        for name in ("tileio_detailed", "btio_iview", "flash_verified"):
            assert name in out

    def test_perf_profile_smoke(self, cli):
        code, out, _ = cli("perf", "profile", "tileio_detailed", "--top", "5")
        assert code == 0
        assert "profile of tileio_detailed (smoke scale" in out
        assert "sim perf counters:" in out

    def test_perf_profile_unknown_experiment_exits_2(self, cli):
        code, _, err = cli("perf", "profile", "nope")
        assert code == 2
        assert "unknown experiment" in err

    @pytest.mark.parametrize("shards", ["0", "-3"])
    def test_perf_profile_bad_shard_count_exits_2(self, cli, shards):
        code, out, err = cli("perf", "profile", "tileio_detailed",
                             "--shards", shards)
        assert code == 2
        assert out == ""
        assert err.strip() == f"bad --shards {shards}: must be >= 1"


class TestFaults:
    def test_classes_lists_each_with_severities(self, cli):
        code, out, _ = cli("faults", "classes")
        assert code == 0
        assert "straggler" in out
        assert "severities [" in out

    def test_sweep_small(self, cli):
        code, out, _ = cli("faults", "sweep", "straggler",
                           "--scale", "small", "--severities", "0.5")
        assert code == 0
        assert "0.5" in out

    def test_sweep_bad_severities_exits_2(self, cli):
        code, _, err = cli("faults", "sweep", "straggler",
                           "--severities", "high,higher")
        assert code == 2
        assert "bad --severities" in err

    def test_report_small(self, cli):
        code, out, _ = cli("faults", "report", "--scale", "small")
        assert code == 0
        assert "fault impact" in out


class TestCache:
    def test_inspect_then_clear(self, cli):
        # populate the (temp) cache with one real entry
        code, _, _ = cli("faults", "sweep", "straggler",
                         "--scale", "small", "--severities", "0.5")
        assert code == 0
        code, out, _ = cli("cache")
        assert code == 0
        assert "entries:" in out
        entries = int(out.split("entries:")[1].split()[0])
        assert entries >= 1
        code, out, _ = cli("cache", "--clear")
        assert code == 0
        assert f"removed {entries} entries" in out
        code, out, _ = cli("cache")
        assert "entries:   0" in out


class TestFigures:
    def test_unknown_figure_exits_2(self, cli):
        code, _, err = cli("figure", "3")
        assert code == 2
        assert "unknown figure" in err

    def test_bad_collective_mode_exits_2(self, cli):
        code, _, err = cli("figure", "9", "--scale", "small",
                           "--collective-mode", "psychic")
        assert code == 2
        assert "bad --collective-mode" in err

    def test_figure_with_validate_flag(self, cli):
        # the whole sweep runs under the oracle; violations would raise
        code, out, _ = cli("figure", "1", "--scale", "small", "--validate")
        assert code == 0
        assert "Figure 1" in out


class TestValidate:
    def test_differential_small_run(self, cli, tmp_path):
        report = tmp_path / "diff.json"
        code, out, err = cli("validate", "differential",
                             "--cases", "4", "--seed", "1",
                             "--out", str(report))
        assert code == 0
        assert "differential: 4/4 cases passed" in out
        assert "4/4 cases" in err  # progress goes to stderr
        data = json.loads(report.read_text())
        assert data["ok"] is True and data["seed"] == 1
