"""``geo`` records written from encoded heads and tails against whole-dict encoding."""

from hypothesis import given, settings
from hypothesis import strategies as st

from placetime.cli import _geo_lines
from placetime.gazetteer import PlaceRecord
from placetime.geotag import GeoMatch

import geo_record_oracle

# Characters JSON escapes or that are easy to get wrong: quotes, backslashes,
# control characters, line separators and characters outside the BMP.
_TEXT = st.text(st.sampled_from('"\\\x00\x08\x1f\x7f\x85\u2028\u2029\ufeff\U0001e95e\U0001f600')
                | st.characters(codec="utf-8"), max_size=12)
_COORDINATE = st.sampled_from((-0.0, 0.0, 1e-05, -1e-05, 48.85, 2.5e-300))
_COUNTRY = st.text("ABFRZ", min_size=2, max_size=2)
_PLACE = st.builds(PlaceRecord, st.integers(-5, 2 ** 40), _TEXT, st.just(()), _COUNTRY,
                   _COORDINATE | st.floats(-90.0, 90.0), _COORDINATE | st.floats(-180.0, 180.0),
                   st.integers(1, 6))
_MATCH = st.builds(GeoMatch, st.integers(0, 10 ** 9), st.integers(1, 99), _TEXT, st.just((0,)))


# A run's places have distinct ids, as a gazetteer's do.  A match resolves to
# the place its number picks, or to a trigger's country code.
@settings(max_examples=300, deadline=None)
@given(places=st.lists(_PLACE, min_size=1, max_size=6, unique_by=lambda r: r.id),
       files=st.lists(st.tuples(_TEXT, st.lists(st.tuples(_MATCH, st.integers(0, 5) | _COUNTRY),
                                                max_size=8)), min_size=1, max_size=3))
def test_geo_lines_equal_dict_encoding(places, files):
    lines = _geo_lines()  # one per run: its tails serve every file
    for path, items in files:
        pairs = [(m, pick if isinstance(pick, str) else places[pick % len(places)])
                 for m, pick in items]
        assert lines(path, pairs) == [geo_record_oracle.geo_line(path, pair) for pair in pairs]
