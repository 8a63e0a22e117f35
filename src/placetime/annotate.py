"""Standoff and inline annotation output.

Standoff records are JSON Lines, one self-describing object per match.
Inline annotation wraps each match as ``[[kind|normal|surface]]``;
stripping the markers restores the original text exactly when the text holds
no ``[[`` or ``]]`` of its own (``x [[ Paris ]] y`` strips back to ``x Paris ]] y``).
"""

from __future__ import annotations

import re

from .errors import ContractError

_MARKER = re.compile(r"\[\[[^|\]]*\|[^|\]]*\|(.*?)\]\]", re.DOTALL)


def annotate_inline(text: str, spans) -> str:
    """Wrap ``(offset, length, kind, normal)`` spans with inline markers.

    Spans must be sorted by offset and non-overlapping; each span's slice
    of ``text`` becomes the marker's surface part.
    """
    out = []
    cursor = 0
    for offset, length, kind, normal in spans:
        if offset < cursor:
            raise ContractError("overlapping or unsorted span at offset %d" % offset)
        if offset + length > len(text):
            raise ContractError("span (%d, %d) outside text" % (offset, length))
        out.append(text[cursor:offset])
        out.append("[[%s|%s|%s]]" % (kind, normal, text[offset:offset + length]))
        cursor = offset + length
    out.append(text[cursor:])
    return "".join(out)


def strip_inline(text: str) -> str:
    """Remove inline markers, leaving each surface in place."""
    return _MARKER.sub(lambda m: m.group(1), text)
