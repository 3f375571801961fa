"""Deterministic timeline figures: one coloured row per label sequence.

Colours come from a fixed integer hash of the class id, so the same
classes get the same colours in every run and the SVG output is
byte-identical for identical inputs. A text mode draws the rows with
block characters for terminals.
"""

from __future__ import annotations

import colorsys
from typing import Sequence

from .core import LabelSequence, to_timeline

_ROW_HEIGHT = 28
_ROW_GAP = 8
_LABEL_WIDTH = 120
_TEXT_GLYPHS = "█▓▒░▚▞▮▯◆◇"
_MAX_TEXT_WIDTH = 10_000  # columns; the strips are built in memory before printing


def class_color(class_id: int) -> str:
    """Stable '#rrggbb' colour for a class id (Knuth multiplicative hash)."""
    h = ((class_id + 1) * 2654435761) % (2 ** 32)
    hue = (h % 360) / 360.0
    light = 0.45 + ((h >> 9) % 20) / 100.0
    r, g, b = colorsys.hls_to_rgb(hue, light, 0.65)
    return "#{:02x}{:02x}{:02x}".format(int(r * 255), int(g * 255), int(b * 255))


def render_svg(rows: Sequence[tuple[str, LabelSequence]], width: int = 1000) -> str:
    """SVG document with one segment-coloured row per labelled sequence."""
    if not rows:
        raise ValueError("nothing to draw")
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    height = len(rows) * (_ROW_HEIGHT + _ROW_GAP) + _ROW_GAP
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_LABEL_WIDTH + width}" '
        f'height="{height}" viewBox="0 0 {_LABEL_WIDTH + width} {height}">\n',
    ]
    for row, (name, labels) in enumerate(rows):
        top = _ROW_GAP + row * (_ROW_HEIGHT + _ROW_GAP)
        total = len(labels)
        parts.append(f'<text x="4" y="{top + _ROW_HEIGHT * 0.7:.2f}" '
                     f'font-family="monospace" font-size="12">{_escape(name)}</text>\n')
        for seg in to_timeline(labels):
            x = _LABEL_WIDTH + seg.start / total * width
            w = (seg.end - seg.start) / total * width
            parts.append(f'<rect x="{x:.2f}" y="{top}" width="{w:.2f}" '
                         f'height="{_ROW_HEIGHT}" fill="{class_color(seg.label)}">'
                         f'<title>class {seg.label}: [{seg.start}, {seg.end})</title>'
                         f'</rect>\n')
    parts.append("</svg>\n")
    return "".join(parts)


def render_text(rows: Sequence[tuple[str, LabelSequence]], width: int = 72) -> str:
    """Terminal rendering: one block-character strip per sequence."""
    if not rows:
        raise ValueError("nothing to draw")
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    if width > _MAX_TEXT_WIDTH:
        raise ValueError(f"width must be <= {_MAX_TEXT_WIDTH}, got {width}")
    name_width = max(len(name) for name, _ in rows)
    lines = []
    for name, labels in rows:
        total = len(labels)
        strip = "".join(
            _TEXT_GLYPHS[int(labels.labels[min(int(c * total / width), total - 1)])
                         % len(_TEXT_GLYPHS)]
            for c in range(width))
        lines.append(f"{name.ljust(name_width)} |{strip}|")
    return "\n".join(lines) + "\n"


def _escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))
