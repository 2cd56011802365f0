"""Alphabets with dense symbol indexing and a reserved delimiter."""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import InvalidParameterError, InvalidSymbolError

DEFAULT_DELIMITER = "$"


class Alphabet:
    """An ordered set of symbols plus a delimiter distinct from all of them.

    Symbol-to-index lookup is a dict, so index() is O(1); the delimiter is
    never a symbol and words must not contain it.
    """

    __slots__ = ("symbols", "delimiter", "_index")

    def __init__(self, symbols: Iterable[str], delimiter: str = DEFAULT_DELIMITER):
        syms = tuple(symbols)
        if len(delimiter) != 1:
            raise InvalidParameterError("delimiter must be a single character")
        index: dict[str, int] = {}
        for i, s in enumerate(syms):
            if len(s) != 1:
                raise InvalidParameterError(f"symbol {s!r} is not a single character")
            if s == delimiter:
                raise InvalidParameterError("delimiter may not be an alphabet symbol")
            if s in index:
                raise InvalidParameterError(f"duplicate symbol {s!r}")
            index[s] = i
        self.symbols = syms
        self.delimiter = delimiter
        self._index = index

    @classmethod
    def from_text(cls, *words: str, delimiter: str = DEFAULT_DELIMITER) -> "Alphabet":
        """Build the alphabet of all symbols observed in the given words."""
        return cls(sorted({c for w in words for c in w}), delimiter=delimiter)

    def __len__(self) -> int:
        return len(self.symbols)

    def __contains__(self, char: str) -> bool:
        return char in self._index

    def __iter__(self) -> Iterator[str]:
        return iter(self.symbols)

    def __repr__(self) -> str:
        return f"Alphabet({''.join(self.symbols)!r}, delimiter={self.delimiter!r})"

    def index(self, char: str) -> int:
        try:
            return self._index[char]
        except KeyError:
            raise InvalidSymbolError(f"symbol {char!r} not in alphabet") from None

    def encode(self, word: str) -> list[int]:
        """Map a word to its symbol indices, rejecting foreign characters."""
        idx = self._index
        try:
            return [idx[c] for c in word]
        except KeyError as exc:
            raise InvalidSymbolError(f"symbol {exc.args[0]!r} not in alphabet") from None


def validate_word(word: str, delimiter: str = DEFAULT_DELIMITER) -> str:
    """Reject words containing the delimiter; the delimiter is reserved."""
    if delimiter in word:
        raise InvalidSymbolError(f"word contains reserved delimiter {delimiter!r}")
    return word
