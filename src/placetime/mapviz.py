"""SVG frequency maps: countries shaded, places dotted by mention share.

Projection is plain equirectangular.  The outline file is TSV:
``country<TAB>polygon_index<TAB>lon,lat lon,lat ...``.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import NamedTuple

from .errors import ContractError, LoadError, check_country, tsv_records

DEFAULT_RAMP = ("#fee5d9", "#fcae91", "#fb6a4a", "#cb181d")
NEUTRAL_FILL = "#e8e8e8"


class _StyleFields(NamedTuple):
    width: int
    height: int


class MapStyle(_StyleFields):
    """The canvas size, checked on construction."""

    __slots__ = ()
    # Not fields: every map uses the same colours and dot radii.
    ramp = DEFAULT_RAMP
    r_min = 2.0
    r_max = 12.0

    def __new__(cls, width=1000, height=500):
        if width <= 0 or height <= 0:
            raise ValueError("canvas dimensions must be positive")
        return tuple.__new__(cls, (width, height))


class PlaceDot(NamedTuple):
    place_id: int
    latitude: float
    longitude: float
    country: str
    mentions: int


def project(lat: float, lon: float, style: MapStyle):
    """Equirectangular degrees -> pixel coordinates."""
    if not -90.0 <= lat <= 90.0 or not -180.0 <= lon <= 180.0:
        raise ContractError("coordinates (%r, %r) out of range" % (lat, lon))
    x = (lon + 180.0) / 360.0 * style.width
    y = (90.0 - lat) / 180.0 * style.height
    return x, y


def bucket_frequencies(tallies, ramp_size: int):
    """Country -> ramp index over equal-width percentage buckets.

    Buckets are lower-open, upper-closed over [0, 100]; with 4 buckets,
    bucket k covers (k*25, (k+1)*25].  Zero-hit countries get no entry.
    """
    if ramp_size < 2:
        raise ValueError("ramp_size must be >= 2")
    nonzero = [t for t in tallies if t.hits > 0]
    if not nonzero:
        return {}
    width = 100.0 / ramp_size
    buckets = {}
    for t in nonzero:
        idx = math.ceil(t.percentage / width) - 1
        buckets[t.country] = min(max(idx, 0), ramp_size - 1)
    return buckets


def load_outline(path):
    """Outline TSV -> {country: [polygon, ...]}, polygon = [(lon, lat), ...]."""
    outline = {}
    for lineno, (country, index, coords) in tsv_records(path, "outline", 3):
        try:
            check_country(country)
            int(index)
            polygon = []
            for pair in coords.split():
                lon, lat = pair.split(",")
                lon, lat = float(lon), float(lat)
                if not -180.0 <= lon <= 180.0 or not -90.0 <= lat <= 90.0:
                    raise ValueError("vertex out of range")
                polygon.append((lon, lat))
        except ValueError as exc:
            raise LoadError("%s:%d: %s" % (path, lineno, exc)) from exc
        if len(polygon) < 3:
            raise LoadError("%s:%d: polygon needs >= 3 vertices" % (path, lineno))
        outline.setdefault(country, []).append(polygon)
    return outline


def _fmt(value: float) -> str:
    return "%.2f" % value


def _escape(text: str) -> str:
    """``&``, ``<`` and ``>`` as XML entities, as ``xml.sax.saxutils.escape`` writes them."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_svg(tallies, places, outline, style: MapStyle | None = None,
               diagnostics=None) -> str:
    """Render tallies and resolved places as an SVG 1.1 document.

    ``places`` is an iterable of :class:`PlaceDot`; each distinct place
    gets one circle sized by its share of all place mentions.  Countries
    without an outline keep their dots but miss the fill (reported on
    ``diagnostics``).
    """
    if style is None:
        style = MapStyle()
    buckets = bucket_frequencies(tallies, len(style.ramp)) if tallies else {}
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'width="%d" height="%d" viewBox="0 0 %d %d">'
        % (style.width, style.height, style.width, style.height),
        '<rect width="%d" height="%d" fill="#ffffff"/>' % (style.width, style.height),
        '<g id="countries" stroke="#666666" stroke-width="0.5">',
    ]
    for country in sorted(outline):
        fill = style.ramp[buckets[country]] if country in buckets else NEUTRAL_FILL
        for i, polygon in enumerate(outline[country]):
            projected = [project(lat, lon, style) for lon, lat in polygon]
            points = " ".join("%s,%s" % (_fmt(x), _fmt(y)) for x, y in projected)
            lines.append('<polygon id="%s-%d" fill="%s" points="%s"/>'
                         % (_escape(country), i, fill, points))
    lines.append('</g>')

    for country in sorted(buckets):
        if country not in outline and diagnostics is not None:
            diagnostics.append("no outline for country %s; fill skipped" % country)

    dots = {}
    mentions = Counter()
    for p in places:
        if p.place_id not in dots:
            dots[p.place_id] = p
            if p.country not in outline and diagnostics is not None:
                diagnostics.append("no outline for country %s (place %d); dot still drawn"
                                   % (p.country, p.place_id))
        mentions[p.place_id] += p.mentions
    total_mentions = sum(mentions.values())
    lines.append('<g id="places" fill="#08306b" fill-opacity="0.8">')
    for pid in sorted(dots):
        dot = dots[pid]
        share = mentions[pid] / total_mentions if total_mentions else 0.0
        radius = style.r_min + share * (style.r_max - style.r_min)
        x, y = project(dot.latitude, dot.longitude, style)
        lines.append('<circle id="place-%d" cx="%s" cy="%s" r="%s"/>'
                     % (pid, _fmt(x), _fmt(y), _fmt(radius)))
    lines.append('</g>')

    lines.append('<g id="legend" font-family="sans-serif" font-size="10">')
    if buckets:
        width = 100.0 / len(style.ramp)
        for i, color in enumerate(style.ramp):
            y = style.height - 16 * (len(style.ramp) - i)
            lines.append('<rect x="8" y="%d" width="12" height="12" fill="%s"/>'
                         % (y, color))
            lines.append('<text x="24" y="%d">%s-%s%%</text>'
                         % (y + 10, _fmt(i * width), _fmt((i + 1) * width)))
    lines.append('</g>')
    lines.append('</svg>')
    return "\n".join(lines) + "\n"
