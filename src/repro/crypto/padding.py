"""Fixed-width '#' padding.

This is exactly the padding the paper uses to bring attribute values to the
globally fixed word length::

    <name:"Montgomery", dept:"HR", sal:7500>
        |-> {"MontgomeryN", "HR########D", "7500######S"}

The functions :func:`hash_pad` / :func:`hash_unpad` implement that scheme over
byte strings; the word encoder (:mod:`repro.searchable.words`) uses them for
attribute values.
"""

from __future__ import annotations

from repro.crypto.errors import PaddingError

#: The padding byte used by the paper's examples (the ``'#'`` symbol).
PAD_BYTE = b"#"


def hash_pad(value: bytes, width: int, pad_byte: bytes = PAD_BYTE) -> bytes:
    """Right-pad ``value`` with ``pad_byte`` (default ``'#'``) to exactly ``width`` bytes.

    Raises :class:`PaddingError` if the value is longer than the target width
    or if it already contains the padding byte (which would make unpadding
    ambiguous, the same restriction the paper implicitly relies on).
    """
    if len(pad_byte) != 1:
        raise PaddingError("pad byte must be a single byte")
    if len(value) > width:
        raise PaddingError(
            f"value of length {len(value)} does not fit in a width-{width} field"
        )
    if pad_byte in value:
        raise PaddingError("value must not contain the padding byte")
    return value + pad_byte * (width - len(value))


def hash_unpad(padded: bytes, pad_byte: bytes = PAD_BYTE) -> bytes:
    """Strip trailing ``pad_byte`` characters added by :func:`hash_pad`."""
    if len(pad_byte) != 1:
        raise PaddingError("pad byte must be a single byte")
    stripped = padded.rstrip(pad_byte)
    if pad_byte in stripped:
        raise PaddingError("padding byte occurs in the interior of the value")
    return stripped
