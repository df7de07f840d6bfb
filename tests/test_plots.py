"""SVG plot emission and the PCA / silhouette helpers."""
from __future__ import annotations

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from mreplay import plots


def _parse(svg: str) -> ET.Element:
    return ET.fromstring(svg)


def test_scatter_plot_is_valid_svg():
    rng = np.random.default_rng(0)
    truth = rng.uniform(0, 100, size=30)
    pred = truth + rng.normal(0, 5, size=30)
    sessions = [1 + i % 3 for i in range(30)]
    svg = plots.scatter_plot(truth, pred, sessions)
    root = _parse(svg)
    assert root.tag.endswith("svg")
    assert svg.count("<circle") >= 30
    assert "predicted vs true" in svg
    assert "session 1" in svg and "session 3" in svg


def test_sessions_plot_draws_one_line_per_method():
    curves = {
        "magr": [(1, 0.5), (2, 0.6), (3, 0.7)],
        "sequential-ft": [(1, 0.5), (2, 0.4), (3, 0.3)],
    }
    svg = plots.sessions_plot(curves)
    _parse(svg)
    assert svg.count("<polyline") >= 2
    assert "magr" in svg and "sequential-ft" in svg
    assert "session" in svg


def test_sweep_plot_covers_grid_values():
    rows = [{"axis": "shots", "value": v, "seed": s,
             "rho_avg": 0.5 + 0.01 * v + 0.001 * s,
             "rho_aft": None, "rho_fwt": None}
            for v in (5, 10, 15) for s in (0, 1)]
    svg = plots.sweep_plot(rows)
    _parse(svg)
    assert svg.count("<circle") >= 6
    assert "shots" in svg and "rho_avg" in svg


def test_plots_deterministic():
    truth = np.linspace(0, 10, 20)
    pred = truth[::-1].copy()
    sessions = [1] * 20
    a = plots.scatter_plot(truth, pred, sessions)
    b = plots.scatter_plot(truth, pred, sessions)
    assert a == b


def test_pca_projects_dominant_direction():
    rng = np.random.default_rng(5)
    t = rng.normal(size=40)
    direction = np.array([1.0, 2.0, -1.0, 0.5, 0.0])
    x = np.outer(t, direction) + 1e-3 * rng.normal(size=(40, 5))
    pts = plots.pca_2d(x)
    assert pts.shape == (40, 2)
    assert pts[:, 0].var() > 100 * pts[:, 1].var()
    # projection is centered
    assert np.abs(pts.mean(axis=0)).max() < 1e-9


def test_silhouette_separated_clusters():
    a = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1]])
    b = a + 10.0
    pts = np.vstack([a, b])
    labels = [1, 1, 1, 2, 2, 2]
    assert plots.silhouette(pts, labels) > 0.9
    mixed = plots.silhouette(np.vstack([a, a + 0.05]), labels)
    assert mixed < 0.5


def test_silhouette_singleton_scores_zero():
    pts = np.array([[0.0, 0.0], [5.0, 0.0], [6.0, 0.0]])
    val = plots.silhouette(pts, [1, 2, 2])
    # the singleton contributes 0; the pair is tight and far from cluster 1
    assert 0.0 < val < 1.0
    with pytest.raises(ValueError):
        plots.silhouette(pts, [1, 1, 1])


def test_silhouette_scores_a_point_on_its_nearest_other_cluster_zero():
    # points 0-3 coincide, so each is at distance 0 from its own cluster
    # and from the nearest other one (0 / 0); the two at 10 score 1
    pts = np.array([[0.0, 0.0]] * 4 + [[10.0, 0.0]] * 2)
    assert plots.silhouette(pts, [1, 1, 2, 2, 3, 3]) == pytest.approx(1 / 3)
    svg, sil = plots.pca_plot(np.ones((6, 4)), [1, 1, 2, 2, 3, 3])
    _parse(svg)
    assert sil == 0.0


def test_pca_of_one_feature_has_a_zero_second_coordinate():
    x = np.array([[1.0], [2.0], [4.0], [5.0]])
    pts = plots.pca_2d(x)
    assert pts.shape == (4, 2)
    assert np.abs(pts[:, 0]) == pytest.approx([2.0, 1.0, 1.0, 2.0])
    assert (pts[:, 1] == 0).all()
    svg, sil = plots.pca_plot(x, [1, 1, 2, 2])
    _parse(svg)
    assert sil > 0.5


def test_pca_plot_reports_separation():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(25, 8))
    b = rng.normal(size=(25, 8)) + 6.0
    feats = np.vstack([a, b])
    labels = [1] * 25 + [2] * 25
    svg, sil = plots.pca_plot(feats, labels)
    _parse(svg)
    assert sil > 0.5
    assert "session 1" in svg and "session 2" in svg
