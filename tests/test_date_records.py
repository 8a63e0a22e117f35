"""``date`` records written from an encoded head and surface against whole-dict encoding."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from placetime.cli import _date_lines, _date_span
from placetime.dates import DateKind, DateMatch, NormalizedDate

import date_record_oracle

# Characters JSON escapes or that are easy to get wrong: quotes, backslashes,
# control characters, line separators, a byte-order mark and characters
# outside the BMP.
_TEXT = st.text(st.sampled_from('"\\\x00\x08\x1f\x7f\x85\u2028\u2029\ufeff\U0001e95e\U0001f600')
                | st.characters(codec="utf-8"), max_size=12)
# Fields of every size a normal form can print: zero, signs and many digits.
_YEAR = st.integers(0, 9999) | st.integers(-10 ** 6, 10 ** 20)
_OFFSET = st.integers(-3, 3) | st.integers(-10 ** 30, 10 ** 30)


@st.composite
def _normal(draw, kind=None):
    kind = kind or draw(st.sampled_from(DateKind))
    fields = {"year": _YEAR, "month": st.integers(1, 12), "day": st.integers(1, 28),
              "rel_offset": _OFFSET}
    return NormalizedDate(kind, **{name: draw(fields[name]) for name in kind.fields})


_MATCH = st.builds(DateMatch, st.integers(0, 10 ** 9), st.integers(1, 99), _TEXT, _normal(),
                   st.none() | _normal())


@settings(max_examples=300, deadline=None)
@given(files=st.lists(st.tuples(_TEXT, st.lists(_MATCH, max_size=8)), min_size=1, max_size=3))
def test_date_lines_equal_dict_encoding(files):
    for path, matches in files:
        assert _date_lines(path, matches) == [date_record_oracle.date_line(path, m)
                                              for m in matches]


# The inline marker's kind and normal form, written without the Enum's
# ``value`` or ``to_string``, against those two.
@pytest.mark.parametrize("kind", DateKind)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_date_span_equals_kind_value_and_to_string(kind, data):
    m = data.draw(_MATCH)._replace(normal=data.draw(_normal(kind)))
    assert _date_span(m) == (m.offset, m.length, "date:%s" % m.normal.kind.value,
                             m.normal.to_string())
