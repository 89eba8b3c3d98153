"""Analysis tools: breakdown series and wall diagnosis."""

from functools import partial

from repro.analysis import BreakdownSeries, wall_diagnosis
from repro.harness import ExperimentConfig, run_experiment
from repro.workloads import TileIOConfig, tile_io_program


def tile_run(nprocs):
    wl = TileIOConfig(tile_rows=256, tile_cols=192, element_size=64,
                      hints={"protocol": "ext2ph"})
    cfg = ExperimentConfig(nprocs=nprocs,
                           lustre={"n_osts": 16, "default_stripe_count": 16})
    return run_experiment(cfg, partial(tile_io_program, wl))


class TestBreakdownSeries:
    def test_accumulates_and_reports_growth(self):
        series = BreakdownSeries()
        for p in (8, 32):
            series.add(p, tile_run(p))
        assert set(series.points) == {8, 32}
        g = series.growth("sync")
        assert g is not None and g > 1.0

    def test_scaling_exponent_positive_for_sync(self):
        series = BreakdownSeries()
        for p in (8, 16, 32):
            series.add(p, tile_run(p))
        exp = series.scaling_exponent("sync")
        assert exp is not None and exp > 0

    def test_wall_onset_none_when_never_dominant(self):
        series = BreakdownSeries()
        series.points[4] = {"sync": 1.0, "io": 9.0, "exchange": 0.0}
        series.shares[4] = 0.1
        assert series.wall_onset() is None

    def test_diagnosis_mentions_wall_when_sync_explodes(self):
        series = BreakdownSeries()
        for k, (sync, io) in {8: (1.0, 1.0), 64: (50.0, 2.0)}.items():
            series.points[k] = {"sync": sync, "io": io, "exchange": 0.1}
            series.shares[k] = sync / (sync + io + 0.1)
        text = wall_diagnosis(series)
        assert "collective wall" in text

    def test_diagnosis_io_bound(self):
        series = BreakdownSeries()
        for k, (sync, io) in {8: (0.1, 5.0), 64: (0.2, 40.0)}.items():
            series.points[k] = {"sync": sync, "io": io, "exchange": 0.1}
            series.shares[k] = sync / (sync + io + 0.1)
        assert "I/O capacity bound" in wall_diagnosis(series)

