"""Word and document model for searchable encryption.

The paper maps every tuple of a relation to a *document*, i.e. a set of
fixed-length *words*.  Each word is the padded attribute value followed by a
short attribute identifier::

    <name:"Montgomery", dept:"HR", sal:7500>
        |-> {"MontgomeryN", "HR########D", "7500######S"}

The "globally fixed word length is the length of the longest attribute value
plus the length of an attribute identifier (required for decryption)".

:class:`WordCodec` implements that mapping between ``(attribute id, value
bytes)`` pairs and fixed-length words; :class:`Word` is a thin value wrapper
that validates the length invariant.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.errors import PaddingError, ParameterError
from repro.crypto.padding import PAD_BYTE, hash_pad, hash_unpad

#: The padding byte as the integer a ``bytes`` membership test takes fastest.
_PAD = PAD_BYTE[0]


class WordError(ValueError):
    """A word or word layout constraint was violated."""


@dataclass(frozen=True)
class Word:
    """A fixed-length word of a document."""

    data: bytes

    def __post_init__(self) -> None:
        if not isinstance(self.data, (bytes, bytearray)):
            raise WordError("word data must be bytes")
        object.__setattr__(self, "data", bytes(self.data))

    def __len__(self) -> int:
        return len(self.data)

    def __bytes__(self) -> bytes:
        return self.data


def word_bytes(word: Word | bytes, length: int) -> bytes:
    """The bytes of a word: a :class:`Word` or a bytes-like object of exactly
    ``length`` bytes, else :class:`~repro.crypto.errors.ParameterError`.

    Anything else is refused rather than converted: ``bytes(15)`` would be
    fifteen zero bytes, and a ``str`` has no bytes of its own.
    """
    if isinstance(word, Word):
        word = word.data
    elif type(word) is not bytes:
        try:
            word = bytes(memoryview(word))
        except TypeError:
            raise ParameterError(
                f"a word is a Word or bytes-like, got {type(word).__name__}"
            ) from None
    if len(word) != length:
        raise ParameterError(f"word must be exactly {length} bytes, got {len(word)}")
    return word


class WordCodec:
    """Encode ``(attribute identifier, value)`` pairs as fixed-length words.

    Parameters
    ----------
    value_width:
        Width in bytes reserved for the (padded) attribute value; the paper
        fixes it to the length of the longest attribute value in the schema.
    id_width:
        Width in bytes of the attribute identifier appended to the value
        (1 byte in the paper's example: ``"N"``, ``"D"``, ``"S"``).
    """

    def __init__(self, value_width: int, id_width: int = 1) -> None:
        if value_width < 1:
            raise WordError("value width must be at least 1 byte")
        if id_width < 1:
            raise WordError("attribute id width must be at least 1 byte")
        self._value_width = value_width
        self._id_width = id_width

    @property
    def value_width(self) -> int:
        """Bytes reserved for the padded attribute value."""
        return self._value_width

    @property
    def id_width(self) -> int:
        """Bytes reserved for the attribute identifier."""
        return self._id_width

    @property
    def word_length(self) -> int:
        """Total word length: ``value_width + id_width``."""
        return self._value_width + self._id_width

    def encode(self, attribute_id: bytes, value: bytes) -> Word:
        """Build the word ``pad(value) | attribute_id``."""
        return Word(self.encode_bytes(attribute_id, value))

    def encode_bytes(self, attribute_id: bytes, value: bytes) -> bytes:
        """:meth:`encode` without the :class:`Word` wrapper (same checks)."""
        if len(attribute_id) != self._id_width:
            raise WordError(
                f"attribute id must be exactly {self._id_width} bytes, got {len(attribute_id)}"
            )
        if type(value) is bytes and len(value) <= self._value_width and _PAD not in value:
            return value.ljust(self._value_width, PAD_BYTE) + attribute_id
        try:
            padded = hash_pad(value, self._value_width)
        except PaddingError as exc:
            raise WordError(str(exc)) from exc
        return padded + attribute_id

    def decode(self, word: Word | bytes) -> tuple[bytes, bytes]:
        """Split a word back into ``(attribute_id, value)``, removing padding."""
        data = bytes(word) if isinstance(word, Word) else word
        if len(data) != self.word_length:
            raise WordError(
                f"word must be exactly {self.word_length} bytes, got {len(data)}"
            )
        padded_value = data[: self._value_width]
        attribute_id = data[self._value_width:]
        try:
            value = hash_unpad(padded_value)
        except PaddingError as exc:
            raise WordError(str(exc)) from exc
        return attribute_id, value

    def attribute_id_of(self, word: Word | bytes) -> bytes:
        """Return only the attribute identifier of a word."""
        return self.decode(word)[0]

    def value_of(self, word: Word | bytes) -> bytes:
        """Return only the (unpadded) value of a word."""
        return self.decode(word)[1]


def max_value_width(values: list[bytes]) -> int:
    """Return the width a :class:`WordCodec` needs to hold all ``values``."""
    if not values:
        return 1
    return max(1, max(len(v) for v in values))
