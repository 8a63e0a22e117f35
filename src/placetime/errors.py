"""Exception types shared across the toolkit, the reader of its data files, and
the country-code rule they share."""

from pathlib import Path


class PlacetimeError(Exception):
    """Base class for all toolkit errors."""


class TrainingError(PlacetimeError):
    """Raised when a profile cannot be trained (e.g. corpus too short)."""


class ScoringError(PlacetimeError):
    """Raised when a byte sequence cannot be scored."""


class ConfigError(PlacetimeError):
    """Raised for invalid configuration (empty profile sets, bad flags)."""


class DecodeError(PlacetimeError):
    """Raised when bytes are invalid for the declared encoding.

    Carries the byte offset of the first offending byte.
    """

    def __init__(self, message, offset=None):
        super().__init__(message)
        self.offset = offset


class LoadError(PlacetimeError):
    """Raised when a data file (gazetteer, lexicon, outline, ...) is malformed."""


class ContractError(PlacetimeError):
    """Raised when an operation is called outside its contract."""


def check_country(code):
    """Raise ValueError unless ``code`` is a country code: two ASCII upper-case letters."""
    if len(code) != 2 or not code.isascii() or not code.isalpha() or not code.isupper():
        raise ValueError("bad country code %r" % (code,))


def read_lines(path, what):
    """The lines of the UTF-8 data file ``path`` (a ``what``, for messages).

    Lines end at a line feed only, and each loses one trailing carriage
    return; a final line feed adds no empty line.  A file that cannot be
    read, or holds a byte sequence that is not UTF-8, raises
    :class:`LoadError`; the latter names the line of the first bad byte.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise LoadError("cannot read %s %s: %s" % (what, path, exc)) from exc
    try:
        lines = data.decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise LoadError("%s:%d: not UTF-8" % (path, data.count(b"\n", 0, exc.start) + 1)) from exc
    if not lines[-1]:
        lines.pop()
    return [line.removesuffix("\r") for line in lines] if b"\r" in data else lines


def tsv_records(path, what, nfields):
    """(line number, fields) per line of a TSV data file that is not blank or a ``#`` comment.

    A line without exactly ``nfields`` tab-separated fields raises :class:`LoadError`.
    """
    for lineno, line in enumerate(read_lines(path, what), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != nfields:
            raise LoadError("%s:%d: expected %d tab-separated fields, got %d"
                            % (path, lineno, nfields, len(fields)))
        yield lineno, fields
