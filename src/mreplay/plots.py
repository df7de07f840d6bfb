"""Minimal SVG emission for run diagnostics. No plotting dependency; the
figures are simple enough that writing the elements directly keeps the
output deterministic and byte-stable."""
from __future__ import annotations

import numpy as np

WIDTH, HEIGHT = 640, 480
MARGIN = 56
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#17becf", "#7f7f7f")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


class _Canvas:
    def __init__(self, x_range, y_range, title, x_label, y_label):
        self.x0, self.x1 = x_range
        self.y0, self.y1 = y_range
        if self.x1 <= self.x0:
            self.x1 = self.x0 + 1.0
        if self.y1 <= self.y0:
            self.y1 = self.y0 + 1.0
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
            f'<text x="{WIDTH / 2}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15">{title}</text>',
            f'<text x="{WIDTH / 2}" y="{HEIGHT - 8}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{x_label}</text>',
            f'<text x="14" y="{HEIGHT / 2}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" '
            f'transform="rotate(-90 14 {HEIGHT / 2})">{y_label}</text>',
        ]
        self._axes()

    def px(self, x: float) -> float:
        f = (x - self.x0) / (self.x1 - self.x0)
        return MARGIN + f * (WIDTH - 2 * MARGIN)

    def py(self, y: float) -> float:
        f = (y - self.y0) / (self.y1 - self.y0)
        return HEIGHT - MARGIN - f * (HEIGHT - 2 * MARGIN)

    def _axes(self):
        left, right = MARGIN, WIDTH - MARGIN
        top, bottom = MARGIN, HEIGHT - MARGIN
        self.parts.append(f'<rect x="{left}" y="{top}" width="{right - left}" '
                          f'height="{bottom - top}" fill="none" stroke="#333"/>')
        for i in range(5):
            fx = self.x0 + (self.x1 - self.x0) * i / 4
            fy = self.y0 + (self.y1 - self.y0) * i / 4
            self.parts.append(
                f'<text x="{self.px(fx):.1f}" y="{bottom + 16}" '
                f'text-anchor="middle" font-family="sans-serif" '
                f'font-size="10">{_fmt(fx)}</text>')
            self.parts.append(
                f'<text x="{left - 6}" y="{self.py(fy) + 3:.1f}" '
                f'text-anchor="end" font-family="sans-serif" '
                f'font-size="10">{_fmt(fy)}</text>')

    def circle(self, x, y, color, r=3.0):
        self.parts.append(f'<circle cx="{self.px(x):.2f}" cy="{self.py(y):.2f}" '
                          f'r="{r}" fill="{color}" fill-opacity="0.75"/>')

    def polyline(self, xs, ys, color, width=1.6, dash=None):
        pts = " ".join(f"{self.px(x):.2f},{self.py(y):.2f}" for x, y in zip(xs, ys))
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(f'<polyline points="{pts}" fill="none" '
                          f'stroke="{color}" stroke-width="{width}"{extra}/>')

    def tagged(self, xs, ys, tags):
        """A point per (x, y), coloured by its tag and drawn tag by tag in
        sorted order, then a legend naming each tag as a session."""
        colors = {t: PALETTE[k % len(PALETTE)] for k, t in enumerate(sorted(set(tags)))}
        for i in sorted(range(len(tags)), key=tags.__getitem__):
            self.circle(float(xs[i]), float(ys[i]), colors[tags[i]])
        self.legend([(f"session {t}", color) for t, color in colors.items()])

    def legend(self, labels_colors):
        y = MARGIN + 6
        for label, color in labels_colors:
            self.parts.append(f'<rect x="{WIDTH - MARGIN - 110}" y="{y}" '
                              f'width="10" height="10" fill="{color}"/>')
            self.parts.append(f'<text x="{WIDTH - MARGIN - 96}" y="{y + 9}" '
                              f'font-family="sans-serif" font-size="11">{label}</text>')
            y += 16

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def scatter_plot(truth, pred, sessions, title="predicted vs true") -> str:
    truth = np.asarray(truth, dtype=np.float64)
    pred = np.asarray(pred, dtype=np.float64)
    lo = float(min(truth.min(), pred.min()))
    hi = float(max(truth.max(), pred.max()))
    pad = 0.05 * (hi - lo or 1.0)
    c = _Canvas((lo - pad, hi + pad), (lo - pad, hi + pad), title,
                "true score", "predicted score")
    c.polyline([lo, hi], [lo, hi], "#999", width=1.0, dash="4 3")
    c.tagged(truth, pred, [int(s) for s in sessions])
    return c.render()


def sessions_plot(curves: dict, title="pooled rank correlation by session") -> str:
    xs_all = [x for pts in curves.values() for x, _ in pts]
    ys_all = [y for pts in curves.values() for _, y in pts]
    c = _Canvas((min(xs_all), max(xs_all)),
                (min(min(ys_all), 0.0), 1.0), title, "session", "rho")
    entries = []
    for k, (label, pts) in enumerate(sorted(curves.items())):
        color = PALETTE[k % len(PALETTE)]
        xs, ys = zip(*sorted(pts))
        c.polyline(xs, ys, color)
        for x, y in pts:
            c.circle(x, y, color, r=2.5)
        entries.append((label, color))
    c.legend(entries)
    return c.render()


def sweep_plot(rows: list[dict], metric: str = "rho_avg",
               title: str | None = None) -> str:
    values = sorted(set(r["value"] for r in rows))
    ys = [r[metric] for r in rows if r[metric] is not None]
    axis = rows[0]["axis"] if rows else "value"
    c = _Canvas((min(values), max(values)),
                (min(min(ys), 0.0), max(max(ys), 1.0)),
                title or f"{metric} vs {axis}", axis, metric)
    for r in rows:
        if r[metric] is not None:
            c.circle(float(r["value"]), float(r[metric]), "#1f77b4", r=2.5)
    means = [float(np.mean([r[metric] for r in rows
                            if r["value"] == v and r[metric] is not None]))
             for v in values]
    c.polyline([float(v) for v in values], means, "#d62728", width=2.0)
    return c.render()


def pca_2d(features: np.ndarray) -> np.ndarray:
    """Project rows onto the top two principal directions, as an (n, 2)
    array. Rows with one feature, or a single row, have one direction,
    and their second coordinate is 0."""
    x = np.asarray(features, dtype=np.float64)
    centered = x - x.mean(axis=0, keepdims=True)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    pts = np.zeros((len(x), 2))
    pts[:, :min(2, len(vt))] = centered @ vt[:2].T
    return pts


def silhouette(points: np.ndarray, labels) -> float:
    """Mean silhouette over points with euclidean distances. A point of a
    singleton cluster scores 0, and so does a point at distance 0 from both
    its own cluster and its nearest other one."""
    pts = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels)
    tags = sorted(set(labels.tolist()))
    if len(tags) < 2:
        raise ValueError("silhouette needs at least two clusters")
    dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    scores = []
    for i in range(len(pts)):
        own = labels == labels[i]
        n_own = own.sum()
        if n_own == 1:
            scores.append(0.0)
            continue
        a = dist[i][own].sum() / (n_own - 1)
        b = min(dist[i][labels == t].mean() for t in tags if t != labels[i])
        scores.append((b - a) / max(a, b) if max(a, b) > 0 else 0.0)
    return float(np.mean(scores))


def pca_plot(features, labels, title="feature space (2-D projection)"
             ) -> tuple[str, float]:
    pts = pca_2d(features)
    labels = np.asarray(labels)
    sil = silhouette(pts, labels)
    pad_x = 0.05 * (pts[:, 0].max() - pts[:, 0].min() or 1.0)
    pad_y = 0.05 * (pts[:, 1].max() - pts[:, 1].min() or 1.0)
    c = _Canvas((pts[:, 0].min() - pad_x, pts[:, 0].max() + pad_x),
                (pts[:, 1].min() - pad_y, pts[:, 1].max() + pad_y),
                title, "component 1", "component 2")
    c.tagged(pts[:, 0], pts[:, 1], labels.tolist())
    return c.render(), sil
