"""Renderer edge cases: sparkline and series reports with empty /
single-sample / all-equal inputs, histogram export with zero
observations."""

import json
import math

from repro.obs.timeseries import (
    FixedHistogram,
    LogHistogram,
    render_series_report,
    sparkline,
    validate_series,
)


class TestSparklineEdges:
    def test_empty_series(self):
        assert sparkline([]) == "(no samples)"

    def test_all_nan_series(self):
        assert sparkline([math.nan, math.nan]) == "(no samples)"

    def test_single_sample_renders_one_cell(self):
        line = sparkline([42.0])
        assert len(line) == 1
        assert line == "▁"  # zero span maps to the lowest level

    def test_all_equal_series_stays_flat(self):
        line = sparkline([7.0] * 5)
        assert line == "▁▁▁▁▁"

    def test_nan_gaps_render_as_spaces(self):
        line = sparkline([1.0, math.nan, 2.0])
        assert line == "▁ █"

    def test_downsampling_respects_width(self):
        line = sparkline(list(range(1000)), width=10)
        assert len(line) == 10
        # bucket means compress the extremes: ends near, not at, the rails
        assert line[0] == "▁" and line[-1] in "▇█"

    def test_negative_and_zero_values(self):
        line = sparkline([-5.0, 0.0, 5.0])
        assert line[0] == "▁" and line[-1] == "█"


def series_payload(points, stats=None):
    body = {
        "unit": "", "points": points,
        "min": math.nan, "mean": math.nan, "max": math.nan,
        "last": math.nan, "count": len(points), "dropped": 0,
    }
    if stats:
        body.update(stats)
    return {
        "interval_ms": 100.0,
        "samples": len(points),
        "meta": {},
        "series": {"probe": body},
    }


class TestSeriesReportEdges:
    def test_no_series_at_all(self):
        payload = series_payload([])
        payload["series"] = {}
        text = render_series_report(payload)
        assert "(no series sampled)" in text

    def test_empty_points_render_without_crashing(self):
        text = render_series_report(series_payload([]))
        assert "(no samples)" in text
        assert "probe" in text

    def test_single_sample_series(self):
        text = render_series_report(series_payload(
            [[0.0, 3.5]],
            stats={"min": 3.5, "mean": 3.5, "max": 3.5, "last": 3.5},
        ))
        assert "min=3.5" in text and "last=3.5" in text

    def test_all_equal_series(self):
        points = [[float(i), 2.0] for i in range(4)]
        text = render_series_report(series_payload(
            points, stats={"min": 2.0, "mean": 2.0, "max": 2.0,
                           "last": 2.0},
        ))
        assert "▁▁▁▁" in text


class TestHistogramZeroObservations:
    def test_fixed_histogram_exports_empty(self):
        histogram = FixedHistogram(0.0, 10.0, bins=4)
        exported = histogram.to_dict()
        assert exported["counts"] == [0, 0, 0, 0]
        assert exported["underflow"] == 0
        assert exported["overflow"] == 0
        assert len(exported["edges"]) == 5
        json.dumps(exported)  # JSON-serialisable as-is

    def test_log_histogram_exports_empty(self):
        histogram = LogHistogram(lo=1.0, decades=2, bins_per_decade=1)
        exported = histogram.to_dict()
        assert exported["counts"] == [0, 0]
        assert exported["underflow"] == 0
        assert exported["overflow"] == 0
        json.dumps(exported)

    def test_empty_series_payload_still_validates(self):
        validate_series(series_payload([]))
