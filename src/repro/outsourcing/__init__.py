"""End-to-end outsourcing protocol: client (Alex), untrusted server (Eve).

* :mod:`repro.outsourcing.client` -- the request helper every client of a
  provider sends its envelopes through, and the select outcome it returns
  (the key-holding client itself is :class:`~repro.api.EncryptedDatabase`);
* :mod:`repro.outsourcing.server` -- the keyless service provider;
* :mod:`repro.outsourcing.protocol` -- the byte-level wire format of the
  ciphertext objects the two exchange;
* :mod:`repro.outsourcing.evaluators` -- the allowlisted public-parameter
  descriptions evaluators are deployed as;
* :mod:`repro.outsourcing.audit` -- the provider's observation log (the raw
  material of every attack in :mod:`repro.security`).

The layer is transport-agnostic: :mod:`repro.net` carries the same protocol
frames over TCP, putting :class:`OutsourcedDatabaseServer` behind a real
socket (``repro serve``) without this package knowing about it.
"""

from repro.outsourcing.audit import AuditEvent, AuditEventKind, ServerAuditLog
from repro.outsourcing.client import SelectOutcome, request
from repro.outsourcing.protocol import (
    MessageKind,
    MessageV2,
    PROTOCOL_V2,
    ProtocolError,
    decode_count,
    decode_encrypted_query,
    decode_encrypted_relation,
    decode_encrypted_tuple,
    decode_evaluation_result,
    decode_query_batch,
    decode_result_batch,
    decode_tuple_ids,
    encode_count,
    encode_encrypted_query,
    encode_encrypted_relation,
    encode_encrypted_tuple,
    encode_evaluation_result,
    encode_query_batch,
    encode_result_batch,
    encode_tuple_ids,
    parse_message,
    peek_version,
)
from repro.outsourcing.server import OutsourcedDatabaseServer, ServerError
from repro.outsourcing.storage import (
    FileStorageBackend,
    InMemoryStorageBackend,
    StorageError,
)

__all__ = [
    "AuditEvent",
    "AuditEventKind",
    "ServerAuditLog",
    "SelectOutcome",
    "request",
    "MessageKind",
    "MessageV2",
    "PROTOCOL_V2",
    "ProtocolError",
    "decode_count",
    "decode_encrypted_query",
    "decode_encrypted_relation",
    "decode_encrypted_tuple",
    "decode_evaluation_result",
    "decode_query_batch",
    "decode_result_batch",
    "decode_tuple_ids",
    "encode_count",
    "encode_encrypted_query",
    "encode_encrypted_relation",
    "encode_encrypted_tuple",
    "encode_evaluation_result",
    "encode_query_batch",
    "encode_result_batch",
    "encode_tuple_ids",
    "parse_message",
    "peek_version",
    "OutsourcedDatabaseServer",
    "ServerError",
    "FileStorageBackend",
    "InMemoryStorageBackend",
    "StorageError",
]
