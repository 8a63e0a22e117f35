"""placetime: multilingual place-name and date-expression extraction.

Identifies a text's language and character encoding from byte n-grams,
recognizes and normalizes date expressions, recognizes and disambiguates
geographical place names, aggregates them per country, and renders the
result as an SVG map.

Each exported name imports its module on first use, so a process loads only
the modules it reads from.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "dates": ("DateKind", "DateLexicon", "DateMatch", "NormalizedDate", "extract_dates",
              "load_date_lexicon", "resolve_relative"),
    "gazetteer": ("CountryTrigger", "GazetteerIndex", "GeoStopList", "PlaceRecord",
                  "load_gazetteer", "load_stop_words", "load_triggers", "name_table",
                  "propose_stop_words", "tokenize"),
    "geotag": ("CountryTally", "GeoMatch", "aggregate_by_country", "disambiguate",
               "tag_places"),
    "langid": ("ENCODING_REGISTRY", "LangEncLabel", "LangEncProfile", "ScoredLabel",
               "decode_to_utf8", "identify", "score_text", "train_profile"),
    "mapviz": ("MapStyle", "PlaceDot", "bucket_frequencies", "load_outline", "render_svg"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    from importlib import import_module
    value = globals()[name] = getattr(import_module("." + module, __name__), name)
    return value


def __dir__():
    return sorted(globals().keys() | _MODULE_OF.keys())
