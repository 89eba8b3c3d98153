"""Harness: runner, report formatting, CLI."""

from functools import partial

import pytest

from repro.errors import ConfigError
from repro.harness import ExperimentConfig, format_table, mb_per_s, run_experiment
from repro.harness.report import format_cell, pct
from repro.workloads import IORConfig, TileIOConfig, ior_program, tile_io_program


def tiny_tile(nprocs=8, **hints):
    wl = TileIOConfig(tile_rows=32, tile_cols=32, element_size=8,
                      hints=hints or None)
    cfg = ExperimentConfig(nprocs=nprocs,
                           lustre={"n_osts": 4, "default_stripe_count": 4,
                                   "default_stripe_size": 1024})
    return cfg, partial(tile_io_program, wl)


class TestRunner:
    def test_run_returns_per_rank_stats(self):
        cfg, prog = tiny_tile()
        res = run_experiment(cfg, prog)
        assert len(res.per_rank) == 8
        assert all(s.bytes_written == 32 * 32 * 8 for s in res.per_rank)
        assert res.write_bandwidth > 0
        assert res.events > 0
        assert res.elapsed_total > 0

    def test_breakdown_categories_present(self):
        cfg, prog = tiny_tile()
        res = run_experiment(cfg, prog)
        assert "sync" in res.breakdown
        assert "meta" in res.breakdown
        assert 0 <= res.category_share("sync") <= 1

    def test_deterministic_across_runs(self):
        r1 = run_experiment(*tiny_tile())
        r2 = run_experiment(*tiny_tile())
        assert r1.write_bandwidth == r2.write_bandwidth
        assert r1.elapsed_total == r2.elapsed_total

    def test_seed_changes_jitter(self):
        wl = TileIOConfig(tile_rows=32, tile_cols=32, element_size=8)
        lustre = {"n_osts": 4, "default_stripe_count": 4,
                  "default_stripe_size": 1024, "jitter": 0.3}
        r1 = run_experiment(ExperimentConfig(nprocs=8, lustre=lustre, seed=1),
                            partial(tile_io_program, wl))
        r2 = run_experiment(ExperimentConfig(nprocs=8, lustre=lustre, seed=2),
                            partial(tile_io_program, wl))
        assert r1.elapsed_total != r2.elapsed_total

    def test_program_must_return_stats(self):
        def bad_program(comm, io):
            yield from comm.barrier()
            return 42

        cfg, _ = tiny_tile()
        with pytest.raises(ConfigError):
            run_experiment(cfg, bad_program)

    def test_read_bandwidth_zero_without_reads(self):
        res = run_experiment(*tiny_tile())
        assert res.read_bandwidth == 0.0


class TestReport:
    def test_mb_per_s(self):
        assert mb_per_s(5e8) == 500.0

    def test_pct(self):
        assert pct(0.725) == "72.5%"

    def test_format_cell(self):
        assert format_cell(0.0) == "0"
        assert format_cell(12345.0) == "12,345"
        assert format_cell(3.14159) == "3.14"
        assert format_cell(0.00123) == "0.00123"
        assert format_cell("x") == "x"

    def test_format_table_alignment(self):
        text = format_table(["a", "col"], [[1, 22], [333, 4]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert lines[1].endswith("col")
        assert len({len(line) for line in lines[1:]}) == 1  # equal widths


class TestCLI:
    def test_list(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "figure  5" in out

    def test_figure_5(self, capsys):
        from repro.cli import main

        assert main(["figure", "5"]) == 0
        assert "N0(P0), N1(P2)" in capsys.readouterr().out

    def test_unknown_figure(self, capsys):
        from repro.cli import main

        assert main(["figure", "99"]) == 2
        assert "unknown figure" in capsys.readouterr().err
