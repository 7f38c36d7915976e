"""SVG line plots: axis ranges, ticks and escaping."""

import math

from tricloud import svgplot


def _plot(tmp_path, series, title="t"):
    path = tmp_path / "plot.svg"
    svgplot.write_line_plot(path, series, title, "x", "y")
    return path.read_text(encoding="utf-8")


def test_one_point_per_axis_is_padded_by_a_tenth(tmp_path):
    # one frame gives each axis one value; its range is that value +- 10%,
    # and the point sits in the middle of the plot
    svg = _plot(tmp_path, [("PSNR_G", [1], [40.0])])
    # x spans 0.9..1.1 in steps of 0.05, y spans 36..44 in steps of 2
    for label in ("0.9", "0.95", "1.1", "36", "44"):
        assert f">{label}</text>" in svg
    assert '<circle cx="343.00" cy="214.00"' in svg


def test_no_finite_point_draws_unit_axes_and_no_line(tmp_path):
    svg = _plot(tmp_path, [("PSNR_G", [1, 2], [math.inf, math.nan])])
    assert "<polyline" not in svg and "<circle" not in svg
    for label in ("0", "0.2", "1"):
        assert svg.count(f">{label}</text>") == 2  # once per axis
    assert ">PSNR_G</text>" in svg  # the legend still names the series


def test_text_escapes_markup_but_not_quotes(tmp_path):
    svg = _plot(tmp_path, [("a<b", [1, 2], [3.0, 4.0])], title="R&D \"x\" 'y' >")
    assert ">R&amp;D \"x\" 'y' &gt;</text>" in svg
    assert ">a&lt;b</text>" in svg
