"""Unit tests for the time-series sampler, histograms and exports."""

import json
import math

import pytest

from repro import artifact
from repro.obs.timeseries import (
    DEFAULT_MAX_POINTS,
    SERIES,
    FixedHistogram,
    LogHistogram,
    Series,
    TimeSeriesSampler,
    gauge,
    render_series_report,
    sparkline,
    validate_series,
    windowed_rate,
    write_series_csv,
)


class TestFixedHistogram:
    def test_bins_values_with_under_and_overflow(self):
        hist = FixedHistogram(0.0, 1.0, bins=4)
        for value in (-0.1, 0.0, 0.24, 0.25, 0.5, 0.99, 1.0, 2.0):
            hist.observe(value)
        assert hist.underflow == 1
        assert hist.overflow == 2  # 1.0 is exclusive
        assert hist.counts == [2, 1, 1, 1]

    def test_edges_span_the_range(self):
        hist = FixedHistogram(0.0, 2.0, bins=4)
        assert hist.edges() == [0.0, 0.5, 1.0, 1.5, 2.0]

    def test_rejects_degenerate_ranges(self):
        with pytest.raises(ValueError):
            FixedHistogram(1.0, 1.0)
        with pytest.raises(ValueError):
            FixedHistogram(0.0, 1.0, bins=0)


class TestLogHistogram:
    def test_zero_lands_in_underflow(self):
        hist = LogHistogram(lo=1.0, decades=2, bins_per_decade=1)
        hist.observe(0.0)
        assert hist.underflow == 1 and sum(hist.counts) == 0

    def test_geometric_binning(self):
        hist = LogHistogram(lo=1.0, decades=3, bins_per_decade=1)
        for value in (1.0, 5.0, 10.0, 99.0, 100.0):
            hist.observe(value)
        assert hist.counts == [2, 2, 1]
        hist.observe(1e6)
        assert hist.overflow == 1

    def test_edges_are_geometric(self):
        hist = LogHistogram(lo=1.0, decades=2, bins_per_decade=1)
        assert hist.edges() == pytest.approx([1.0, 10.0, 100.0])


class TestSeries:
    def test_streaming_stats_over_all_samples(self):
        series = Series("s", unit="txn", max_points=2)
        for t, v in ((1.0, 5.0), (2.0, 1.0), (3.0, 3.0)):
            series.record(t, v)
        # the ring kept only the 2 newest points...
        assert list(series.points) == [(2.0, 1.0), (3.0, 3.0)]
        # ...but the statistics cover every sample
        assert series.count == 3
        assert series.mean == pytest.approx(3.0)
        assert series.minimum == 1.0 and series.maximum == 5.0
        assert series.last == 3.0

    def test_empty_series_reports_nan(self):
        series = Series("s")
        assert math.isnan(series.mean)


class TestSampler:
    def test_advance_takes_all_due_samples(self):
        sampler = TimeSeriesSampler(interval_ms=10.0)
        values = iter(range(100))
        sampler.add_probe("x", lambda t: float(next(values)))
        sampler.advance_to(35.0)  # boundaries 10, 20, 30
        assert sampler.samples_taken == 3
        assert sampler.next_due == 40.0
        assert list(sampler.series["x"].points) == [
            (10.0, 0.0), (20.0, 1.0), (30.0, 2.0)
        ]

    def test_probe_receives_boundary_time_not_event_time(self):
        sampler = TimeSeriesSampler(interval_ms=10.0)
        seen = []
        sampler.add_probe("t", lambda t: seen.append(t) or t)
        sampler.advance_to(25.0)
        assert seen == [10.0, 20.0]

    def test_duplicate_probe_name_rejected(self):
        sampler = TimeSeriesSampler()
        sampler.add_probe("x", lambda t: 0.0)
        with pytest.raises(ValueError):
            sampler.add_probe("x", lambda t: 0.0)

    def test_default_ring_capacity(self):
        sampler = TimeSeriesSampler(interval_ms=1.0)
        series = sampler.add_probe("x", lambda t: t)
        assert series.points.maxlen == DEFAULT_MAX_POINTS

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            TimeSeriesSampler(interval_ms=0.0)


class TestProbeHelpers:
    def test_gauge_reads_current_value(self):
        box = {"v": 7}
        probe = gauge(lambda: box["v"])
        assert probe(123.0) == 7.0
        box["v"] = 9
        assert probe(456.0) == 9.0

    def test_windowed_rate_diffs_the_integral(self):
        # integral grows 2 units/ms until t=10, then stalls
        probe = windowed_rate(lambda t: min(t, 10.0) * 2.0)
        assert probe(5.0) == pytest.approx(2.0)
        assert probe(10.0) == pytest.approx(2.0)
        assert probe(20.0) == pytest.approx(0.0)

    def test_windowed_rate_scale(self):
        probe = windowed_rate(lambda t: t, scale=1000.0)
        assert probe(4.0) == pytest.approx(1000.0)

    def test_windowed_rate_survives_monitor_reset(self):
        # a warm-up reset shrinks the integral mid-window; the probe
        # must fall back to the post-reset accumulation, never negative
        areas = iter([10.0, 2.0, 7.0])
        probe = windowed_rate(lambda t: next(areas))
        assert probe(10.0) == pytest.approx(1.0)   # normal window
        assert probe(20.0) == pytest.approx(0.2)   # reset: 2.0 since it
        assert probe(30.0) == pytest.approx(0.5)   # back to diffing


class TestExport:
    def _sampler(self):
        sampler = TimeSeriesSampler(interval_ms=5.0)
        sampler.add_probe("a", lambda t: t * 2.0, unit="ms")
        sampler.add_probe("b", lambda t: 1.0)
        sampler.advance_to(20.0)
        return sampler

    def test_json_round_trip_validates(self, tmp_path):
        sampler = self._sampler()
        path = tmp_path / "s.json"
        artifact.write(path, SERIES, sampler.to_dict(meta={"scheduler": "LOW"}))
        payload = artifact.load(path, SERIES)["payload"]
        assert payload["samples"] == 4
        assert payload["meta"]["scheduler"] == "LOW"
        assert payload["series"]["a"]["points"] == [
            [5.0, 10.0], [10.0, 20.0], [15.0, 30.0], [20.0, 40.0]
        ]

    def test_csv_is_long_format(self, tmp_path):
        path = write_series_csv(self._sampler().to_dict(), tmp_path / "s.csv")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "series,t_ms,value"
        assert lines[1] == "a,5,10"
        assert len(lines) == 1 + 2 * 4

    def test_validate_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "s.json"
        document = artifact.write(path, SERIES, self._sampler().to_dict())
        path.write_text(json.dumps({**document, "schema_version": 999}))
        with pytest.raises(ValueError, match="schema_version"):
            artifact.load(path, SERIES)

    def test_validate_rejects_malformed_points(self):
        payload = {"series": {"x": {"count": 1, "points": [[1.0]]}}}
        with pytest.raises(ValueError):
            validate_series(payload)

    def test_load_rejects_corrupted_file(self, tmp_path):
        path = tmp_path / "bad.json"
        document = artifact.write(path, SERIES, self._sampler().to_dict())
        path.write_text(json.dumps({**document, "payload": {}}))
        with pytest.raises(ValueError, match="series"):
            artifact.load(path, SERIES)


class TestSparkline:
    def test_constant_series_renders_flat(self):
        assert sparkline([3.0, 3.0, 3.0]) == "▁▁▁"

    def test_range_maps_to_levels(self):
        line = sparkline([0.0, 1.0])
        assert line[0] == "▁" and line[-1] == "█"

    def test_downsamples_to_width(self):
        assert len(sparkline(list(range(1000)), width=10)) == 10

    def test_empty_series(self):
        assert sparkline([]) == "(no samples)"


class TestReport:
    def test_report_contains_every_series(self, tmp_path):
        sampler = TimeSeriesSampler(interval_ms=5.0)
        sampler.add_probe("cn.util", lambda t: 0.5, unit="frac")
        sampler.add_probe("sched.mpl", lambda t: t)
        sampler.advance_to(50.0)
        path = tmp_path / "s.json"
        artifact.write(path, SERIES, sampler.to_dict())
        text = render_series_report(artifact.load(path, SERIES)["payload"])
        assert "cn.util" in text and "sched.mpl" in text
        assert "frac" in text
        assert "10 sample(s)" in text

    def test_report_on_empty_payload(self):
        text = render_series_report({"series": {}})
        assert "no series" in text
