"""placetime: multilingual place-name and date-expression extraction.

Identifies a text's language and character encoding from byte n-grams,
recognizes and normalizes date expressions, recognizes and disambiguates
geographical place names, aggregates them per country, and renders the
result as an SVG map.
"""

__version__ = "0.1.0"

from .dates import (DateKind, DateLexicon, DateMatch, NormalizedDate,  # noqa: F401
                    extract_dates, load_date_lexicon, resolve_relative)
from .gazetteer import (CountryTrigger, GazetteerIndex, GeoStopList,  # noqa: F401
                        PlaceRecord, load_gazetteer, load_stop_words,
                        load_triggers, name_table, propose_stop_words, tokenize)
from .geotag import (CountryTally, GeoMatch, aggregate_by_country,  # noqa: F401
                     disambiguate, tag_places)
from .langid import (ENCODING_REGISTRY, LangEncLabel, LangEncProfile,  # noqa: F401
                     ScoredLabel, decode_to_utf8, identify, score_text,
                     train_profile)
from .mapviz import MapStyle, PlaceDot, bucket_frequencies, load_outline, render_svg  # noqa: F401
