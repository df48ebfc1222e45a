"""Byte encoding of attribute values and tuples.

Two encodings live here:

* **Value encoding** -- how a single attribute value becomes the byte string
  that is padded into a searchable word (:class:`ValueCodec`).  Strings are
  ASCII; integers are rendered in decimal exactly as the paper's
  ``"7500######S"`` example shows.
* **Tuple encoding** -- a reversible serialization of a whole tuple
  (:class:`TupleCodec`), used as the payload of the authenticated tuple
  ciphertext so the client can recover full tuples without relying on word
  decryption alone.
"""

from __future__ import annotations

from typing import Sequence

from repro import native
from repro.relational.errors import EncodingError, SchemaError
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.tuples import RelationTuple
from repro.relational.types import AttributeType


class ValueCodec:
    """Encode and decode single attribute values as bytes."""

    @staticmethod
    def encode(attribute: Attribute, value) -> bytes:
        """Encode ``value`` for ``attribute`` (ASCII string / decimal integer)."""
        attribute.validate_value(value)
        if attribute.attribute_type is AttributeType.STRING:
            return str(value).encode("ascii")
        if attribute.attribute_type is AttributeType.INTEGER:
            return str(int(value)).encode("ascii")
        raise EncodingError(f"unsupported type {attribute.attribute_type}")  # pragma: no cover

    @staticmethod
    def decode(attribute: Attribute, raw: bytes):
        """Decode bytes produced by :meth:`encode` back into a Python value."""
        try:
            text = raw.decode("ascii")
        except UnicodeDecodeError as exc:
            raise EncodingError(f"value bytes are not ASCII: {raw!r}") from exc
        if attribute.attribute_type is AttributeType.STRING:
            return text
        if attribute.attribute_type is AttributeType.INTEGER:
            try:
                return int(text)
            except ValueError as exc:
                raise EncodingError(f"invalid integer encoding {text!r}") from exc
        raise EncodingError(f"unsupported type {attribute.attribute_type}")  # pragma: no cover


class TupleCodec:
    """Reversible length-prefixed serialization of whole tuples.

    Wire format: for each attribute in schema order,
    ``len(value_bytes) (2 bytes big-endian) || value_bytes``.
    """

    def __init__(self, schema: RelationSchema) -> None:
        self._schema = schema
        #: The decode plan: per attribute, whether its text parses as an
        #: integer, and its declared width (the native row decoders' plan).
        self.plan = tuple(
            (a.attribute_type is AttributeType.INTEGER, a.max_length)
            for a in schema.attributes
        )

    @property
    def schema(self) -> RelationSchema:
        """The schema this codec serializes tuples of."""
        return self._schema

    def encode(self, relation_tuple: RelationTuple) -> bytes:
        """Serialize a tuple."""
        self.check_schema(relation_tuple)
        return self.frame(self.encode_values(relation_tuple))

    def check_schema(self, relation_tuple: RelationTuple) -> None:
        """Raise :class:`EncodingError` unless the tuple is of the codec's schema."""
        if relation_tuple.schema != self._schema:
            raise EncodingError("tuple schema does not match codec schema")

    def encode_values(self, relation_tuple: RelationTuple) -> list[bytes]:
        """Validate and encode each value against this schema, in declaration order.

        For a caller that needs the value bytes for more than the serialization
        (the searchable words are built from the same bytes); it hands them to
        :meth:`frame` afterwards and each value is validated once.  The tuple
        must be of this codec's schema (:meth:`check_schema`).  The common
        case -- a ``str`` that is ASCII, within its width and free of ``#``,
        an ``int`` (not a ``bool``) within its width -- is encoded inline;
        every other value goes through :meth:`ValueCodec.encode`, which
        raises the error it always raised.
        """
        encoded = []
        for (integer, width), attribute, value in zip(
            self.plan, self._schema.attributes, relation_tuple._values
        ):
            if integer:
                if type(value) is int:
                    text = str(value)
                    if len(text) <= width:
                        encoded.append(text.encode("ascii"))
                        continue
            elif (
                type(value) is str and len(value) <= width and "#" not in value
                and value.isascii()
            ):
                encoded.append(value.encode("ascii"))
                continue
            encoded.append(ValueCodec.encode(attribute, value))
        return encoded

    def frame(self, encoded_values: list[bytes]) -> bytes:
        """Length-prefix and join the output of :meth:`encode_values`."""
        try:
            return b"".join([len(raw).to_bytes(2, "big") + raw for raw in encoded_values])
        except OverflowError:  # a length past 0xFFFF does not fit its two bytes
            raise EncodingError("encoded value too long") from None

    def decode_regular(self, raws: Sequence[bytes | None]) -> list[RelationTuple | None]:
        """The native kernel's :meth:`decode` of each row in the common case.

        The common case is ASCII values within their declared widths, no
        ``#`` in a string and an integer of the form ``-?[0-9]+`` of at most
        18 digits, with nothing after the last value.  Every other row --
        ``None`` and non-``bytes`` rows included, and every row when the
        kernel is not loaded -- is ``None``: :meth:`decode` decides it.
        """
        kernel = native.kernel
        if kernel is None:
            return [None] * len(raws)
        return kernel.decode_rows(raws, self.plan, RelationTuple, self._schema)

    def decode(self, raw: bytes) -> RelationTuple:
        """Parse bytes produced by :meth:`encode` back into a validated tuple.

        Each value is checked against its attribute as it is parsed, so the
        tuple is built without a second validation pass: a string's width
        and ``#`` (``decode("ascii")`` already rules out the rest), an
        integer's width -- within which its text's length suffices, as
        ``int()`` never lengthens what it accepts.  A value that fails a
        check is re-validated by :meth:`RelationTuple.from_values` once the
        walk is done, only to raise the error it always raised.
        """
        values = []
        valid = True
        offset = 0
        end = len(raw)
        for integer, width in self.plan:
            start = offset + 2
            if start > end:
                raise EncodingError("truncated tuple encoding (missing length prefix)")
            offset = start + (raw[offset] << 8 | raw[offset + 1])
            if offset > end:
                raise EncodingError("truncated tuple encoding (missing value bytes)")
            try:
                text = raw[start:offset].decode("ascii")
                value = int(text) if integer else text
            except ValueError as exc:  # UnicodeDecodeError is a ValueError
                raise EncodingError(
                    f"invalid value encoding {raw[start:offset]!r}"
                ) from exc
            if integer:
                if offset - start > width and len(str(value)) > width:
                    valid = False
            elif offset - start > width or "#" in text:
                valid = False
            values.append(value)
        if offset != end:
            raise EncodingError("trailing bytes after tuple encoding")
        if not valid:
            try:
                RelationTuple.from_values(self._schema, values)
            except SchemaError as exc:
                raise EncodingError(f"decoded tuple violates its schema: {exc}") from exc
        return RelationTuple.from_checked_values(self._schema, tuple(values))


def word_value_width(schema: RelationSchema) -> int:
    """Return the paper's globally fixed value width: the longest attribute width."""
    return schema.max_value_length()
