"""``geo`` and ``tallies`` records written by string formats against whole-dict encoding."""

import dataclasses
import string

from hypothesis import given, settings
from hypothesis import strategies as st

from placetime.cli import _geo_lines, _tallies_line
from placetime.gazetteer import PlaceRecord
from placetime.geotag import GeoMatch, aggregate_by_country

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
_MATCH = st.builds(GeoMatch, st.integers(0, 10 ** 9), st.integers(1, 99), _TEXT, st.just((0,)),
                   trigger=st.none())


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


# One file's whole standoff output, as ``places`` writes it: 1-50 resolutions
# over 1-6 countries, so that percentages such as 33.333333333333336 occur.
# Each place keeps one country, as a gazetteer's places do.
@settings(max_examples=300, deadline=None)
@given(path=_TEXT,
       countries=st.lists(st.text(string.ascii_uppercase, min_size=2, max_size=2),
                          min_size=1, max_size=6, unique=True),
       places=st.lists(_PLACE, min_size=1, max_size=6, unique_by=lambda r: r.id),
       items=st.lists(st.tuples(_MATCH, st.integers(0, 11)), min_size=1, max_size=50))
def test_places_standoff_equals_dict_encoding(path, countries, places, items):
    places = [dataclasses.replace(place, country=countries[i % len(countries)])
              for i, place in enumerate(places)]
    # An even pick is a place, an odd one a trigger's country code.
    pairs = [(m, places[pick // 2 % len(places)] if pick % 2 == 0 else
              countries[pick // 2 % len(countries)]) for m, pick in items]
    resolved = [place for _, place in pairs]
    written = _geo_lines()(path, pairs) + [_tallies_line(path, aggregate_by_country(resolved))]
    assert written == ([geo_record_oracle.geo_line(path, pair) for pair in pairs]
                       + [geo_record_oracle.tallies_line(path, resolved)])
