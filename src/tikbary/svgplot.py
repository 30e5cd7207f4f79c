"""Minimal line-chart SVG, derived from CSV content alone.

The CSV's '# plot-hint:' lines say what to draw:

    plot-hint: x = L
    plot-hint: y = uniform_error, l2_error
    plot-hint: group-by = lambda          (optional, splits rows into series)
    plot-hint: logy = true                (optional; likewise logx)
    plot-hint: title = some text          (optional)

One polyline per (y column, group) pair.  Rows with a blank or, on a log
axis, nonpositive value are dropped from that series.  No dependencies, no
randomness: the same CSV text always renders the same bytes.
"""

import math

from .csvio import parse_table

__all__ = ["render_csv_text", "render_table_data"]

_W, _H = 860, 540
_ML, _MR, _MT, _MB = 72, 240, 42, 54
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
            "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f")
_TICK_TARGET = 6  # tick intervals a linear axis aims at


def _esc(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _hint_map(hints):
    out = {}
    for h in hints:
        key, _, value = h.partition("=")
        out[key.strip()] = value.strip()
    return out


def _nice_ticks(lo, hi):
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / _TICK_TARGET
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def _log_ticks(lo, hi):
    return [10.0**e for e in range(math.floor(math.log10(lo)),
                                   math.ceil(math.log10(hi)) + 1)]


def _fmt_tick(v, log):
    if log:
        e = round(math.log10(v))
        if abs(v - 10.0**e) < 1e-9 * v:
            return f"1e{e}" if e not in (0, 1) else ("1" if e == 0 else "10")
    if v == int(v) and abs(v) < 1e7:
        return str(int(v))
    return format(v, ".3g")


def render_table_data(table) -> str:
    hints = _hint_map(table.plot_hints)
    xcol = hints.get("x")
    ycols = [c.strip() for c in hints.get("y", "").split(",") if c.strip()]
    if xcol is None or not ycols:
        raise ValueError("csv carries no usable plot hints")
    group_cols = [c.strip() for c in hints.get("group-by", "").split(",") if c.strip()]
    logy = hints.get("logy", "false").lower() == "true"
    logx = hints.get("logx", "false").lower() == "true"
    title = hints.get("title", "")

    xi = table.columns.index(xcol)
    gidx = [table.columns.index(c) for c in group_cols]
    groups = []  # distinct key tuples in order of first appearance
    for row in table.rows:
        key = tuple(row[i] for i in gidx)
        if key not in groups:
            groups.append(key)

    series = []  # (label, [(x, y), ...])
    for ycol in ycols:
        yi = table.columns.index(ycol)
        for key in groups:
            pts = []
            for row in table.rows:
                if tuple(row[i] for i in gidx) != key:
                    continue
                if row[xi] == "" or row[yi] == "":
                    continue
                x, y = float(row[xi]), float(row[yi])
                if (logy and y <= 0.0) or (logx and x <= 0.0):
                    continue
                pts.append((x, y))
            if pts:
                label = ycol
                for name, val in zip(group_cols, key):
                    pretty = val
                    try:
                        pretty = format(float(val), ".4g")
                    except ValueError:
                        pass
                    label += f" {name}={pretty}"
                series.append((label, pts))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="13">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
    ]
    px0, px1 = _ML, _W - _MR
    py0, py1 = _H - _MB, _MT
    if not series:
        parts.append(f'<text x="{_W // 2}" y="{_H // 2}" text-anchor="middle">'
                     "no plottable data</text></svg>")
        return "\n".join(parts) + "\n"

    xs = [x for _, pts in series for x, _ in pts]
    ys = [y for _, pts in series for _, y in pts]
    tx = math.log10 if logx else (lambda v: v)
    ty = math.log10 if logy else (lambda v: v)
    xlo, xhi = min(map(tx, xs)), max(map(tx, xs))
    ylo, yhi = min(map(ty, ys)), max(map(ty, ys))
    if xhi == xlo:
        xlo, xhi = xlo - 0.5, xhi + 0.5
    if yhi == ylo:
        ylo, yhi = ylo - 0.5, yhi + 0.5
    pad = 0.04
    xlo, xhi = xlo - pad * (xhi - xlo), xhi + pad * (xhi - xlo)
    ylo, yhi = ylo - pad * (yhi - ylo), yhi + pad * (yhi - ylo)

    def sx(v):
        return px0 + (tx(v) - xlo) / (xhi - xlo) * (px1 - px0)

    def sy(v):
        return py0 - (ty(v) - ylo) / (yhi - ylo) * (py0 - py1)

    xticks = _log_ticks(10.0**xlo, 10.0**xhi) if logx else _nice_ticks(xlo, xhi)
    yticks = _log_ticks(10.0**ylo, 10.0**yhi) if logy else _nice_ticks(ylo, yhi)
    for v in xticks:
        if tx(v) < xlo or tx(v) > xhi:
            continue
        X = sx(v)
        parts.append(f'<line x1="{X:.2f}" y1="{py0}" x2="{X:.2f}" y2="{py1}" '
                     'stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text x="{X:.2f}" y="{py0 + 18}" text-anchor="middle">'
                     f"{_esc(_fmt_tick(v, logx))}</text>")
    for v in yticks:
        if ty(v) < ylo or ty(v) > yhi:
            continue
        Y = sy(v)
        parts.append(f'<line x1="{px0}" y1="{Y:.2f}" x2="{px1}" y2="{Y:.2f}" '
                     'stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text x="{px0 - 6}" y="{Y + 4:.2f}" text-anchor="end">'
                     f"{_esc(_fmt_tick(v, logy))}</text>")
    parts.append(f'<rect x="{px0}" y="{py1}" width="{px1 - px0}" '
                 f'height="{py0 - py1}" fill="none" stroke="#333333"/>')

    for i, (label, pts) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        parts.append(f'<polyline points="{coords}" fill="none" '
                     f'stroke="{color}" stroke-width="1.6"/>')
        if len(pts) <= 64:
            for x, y in pts:
                parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" '
                             f'r="2.4" fill="{color}"/>')
        ly = py1 + 16 + 18 * i
        lx = px1 + 12
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="2.5"/>')
        parts.append(f'<text x="{lx + 28}" y="{ly}">{_esc(label)}</text>')

    parts.append(f'<text x="{(px0 + px1) // 2}" y="{py0 + 38}" '
                 f'text-anchor="middle">{_esc(xcol)}</text>')
    if title:
        parts.append(f'<text x="{(px0 + px1) // 2}" y="24" text-anchor="middle" '
                     f'font-size="16">{_esc(title)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_csv_text(text: str) -> str:
    return render_table_data(parse_table(text))
