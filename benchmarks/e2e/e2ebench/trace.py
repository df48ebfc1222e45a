"""Outside-in tracing: spans recorded by the benchmark around each layer's calls.

No file under ``src/`` knows about this module.  A :class:`Recorder` keeps
spans in memory; :func:`instrument` wraps the names through which the
session module reaches each layer (``parse_sql``, the ``protocol`` codec
functions, the scheme registry, ``TableIndexer``, the index wire encoders)
plus the session's cache, and :class:`TimedServer` stands between the
session and its provider object.  All of it is undone by ``restore()``.

The driver is one thread in a closed loop, so the open spans form a plain
stack and a span's children never overlap: a layer's self time is its span
minus the sum of its children (:func:`self_times`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import repro.api.database as session_module

@dataclass
class Span:
    """One timed call: where it sits in the tree and what it counted."""

    layer: str
    name: str
    start: float
    #: Index of the enclosing span in ``Recorder.spans``, -1 at the root.
    parent: int
    #: Number of the session operation (or traced create_table) it belongs to.
    op: int
    end: float = 0.0
    notes: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span store with the stack of currently open spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.enabled = False
        self._open: list[int] = []
        self._op = 0

    def begin(self, layer: str, name: str) -> Span | None:
        """Open a span, or None while disabled or inside the same layer.

        A call nested in its own layer (``encrypt_relation`` looping over
        ``encrypt_tuple``) is the same layer's time already.
        """
        if not self.enabled:
            return None
        parent = self._open[-1] if self._open else -1
        if parent >= 0 and self.spans[parent].layer == layer:
            return None
        span = Span(layer, name, 0.0, parent, self._op)
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()

    def begin_op(self, kind: str) -> Span | None:
        """Open the root ``api`` span of the next session operation."""
        self._op += 1
        return self.begin("api", kind)

    def rescale(self, first: int, factor: float) -> None:
        """Put the spans from ``first`` on at reference speed (see calibrate)."""
        for span in self.spans[first:]:
            span.start *= factor
            span.end *= factor

    def dump(self) -> list[dict]:
        """The spans as JSON-able dicts (ids are list positions)."""
        return [
            {"id": i, "parent": s.parent, "op": s.op, "layer": s.layer,
             "name": s.name, "start": s.start, "end": s.end, **s.notes}
            for i, s in enumerate(self.spans)
        ]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its children cover."""
    own = [span.duration for span in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.duration
    return own


def timed(recorder: Recorder, layer: str, name: str, function, note=None):
    """``function`` wrapped in a span; ``note(span, args, result)`` adds counts."""

    def wrapper(*args, **kwargs):
        span = recorder.begin(layer, name)
        if span is None:
            return function(*args, **kwargs)
        try:
            result = function(*args, **kwargs)
        finally:
            recorder.finish(span)
        if note is not None:
            note(span, args, result)
        return result

    return wrapper


class TimedServer:
    """The provider object the session talks to, with every call in a span.

    ``handle_message`` is wrapped explicitly (it records frame sizes and,
    in-process, the provider's CPU time); every other call the session
    makes -- the management duck-type -- is wrapped on first use.
    """

    def __init__(self, inner, recorder: Recorder, layer: str) -> None:
        self._inner = inner
        self._recorder = recorder
        self._layer = layer

    def handle_message(self, raw: bytes) -> bytes:
        span = self._recorder.begin(self._layer, "handle_message")
        if span is None:
            return self._inner.handle_message(raw)
        cpu = time.thread_time()
        try:
            response = self._inner.handle_message(raw)
        finally:
            self._recorder.finish(span)
        span.notes.update(
            cpu=time.thread_time() - cpu, request=len(raw), response=len(response)
        )
        return response

    def __getattr__(self, name: str):
        value = getattr(self._inner, name)
        if not callable(value):
            return value  # properties: relation_names, supported_protocol_versions
        wrapped = timed(self._recorder, self._layer, name, value)
        self.__dict__[name] = wrapped
        return wrapped


class _ModuleShim:
    """A module with some attributes replaced; everything else passes through."""

    def __init__(self, module, overrides: dict) -> None:
        self.__dict__.update(overrides)
        self._module = module

    def __getattr__(self, name: str):
        return getattr(self._module, name)


def _note_bytes(span: Span, args, result) -> None:
    span.notes["bytes"] = len(result)


def _note_evaluation(span: Span, args, result) -> None:
    evaluation = result[0]
    span.notes.update(examined=evaluation.examined, returned=len(evaluation.matching))


def _note_report(span: Span, args, result) -> None:
    span.notes.update(rows=result.returned, false_positives=result.false_positives)


def _note_one_row(span: Span, args, result) -> None:
    span.notes["rows"] = 1


def _note_relation_rows(span: Span, args, result) -> None:
    span.notes["rows"] = len(result)


def _wrap_scheme(recorder: Recorder, scheme) -> None:
    for name, note in (
        ("encrypt_query", None),
        ("encrypt_relation", _note_relation_rows),
        ("encrypt_tuple", _note_one_row),
        ("decrypt_result", _note_report),
        ("decrypt_tuple", _note_one_row),
    ):
        setattr(scheme, name, timed(recorder, "schemes", name, getattr(scheme, name), note))


def _wrap_methods(recorder: Recorder, layer: str, target, names) -> None:
    for name in names:
        setattr(target, name, timed(recorder, layer, name, getattr(target, name)))


def instrument(recorder: Recorder):
    """Wrap the session module's view of each layer; returns ``restore()``.

    Scheme and indexer instances are created inside ``create_table``, so the
    factories the session module calls are replaced by ones that wrap what
    they build.
    """
    saved = {
        name: getattr(session_module, name)
        for name in (
            "parse_sql", "protocol", "registry", "TableIndexer",
            "encode_index_delta", "encode_index_lookup", "encode_index_snapshot",
        )
    }
    protocol, registry = saved["protocol"], saved["registry"]

    codec = {}
    for name in dir(protocol):
        if name.startswith("encode_"):
            codec[name] = timed(recorder, "protocol", name, getattr(protocol, name), _note_bytes)
        elif name == "decode_evaluation_result":
            codec[name] = timed(recorder, "protocol", name, getattr(protocol, name), _note_evaluation)
        elif name.startswith("decode_") or name == "parse_message":
            codec[name] = timed(recorder, "protocol", name, getattr(protocol, name))

    def create_scheme(*args, **kwargs):
        scheme = registry.create(*args, **kwargs)
        _wrap_scheme(recorder, scheme)
        return scheme

    def create_indexer(*args, **kwargs):
        indexer = saved["TableIndexer"](*args, **kwargs)
        _wrap_methods(
            recorder, "index", indexer,
            ("query_labels", "insert_delta", "remove_delta", "snapshot"),
        )
        return indexer

    session_module.parse_sql = timed(recorder, "relational", "parse_sql", saved["parse_sql"])
    session_module.protocol = _ModuleShim(protocol, codec)
    session_module.registry = _ModuleShim(registry, {"create": create_scheme})
    session_module.TableIndexer = create_indexer
    for name in ("encode_index_delta", "encode_index_lookup", "encode_index_snapshot"):
        setattr(session_module, name, timed(recorder, "protocol", name, saved[name], _note_bytes))

    def restore() -> None:
        for name, value in saved.items():
            setattr(session_module, name, value)

    return restore


def instrument_cache(recorder: Recorder, cache) -> None:
    """Wrap the session's result cache (it lives and dies with the session)."""
    _wrap_methods(recorder, "cache", cache, ("lookup", "put", "invalidate"))
