"""The native kernel: :data:`kernel` is ``_native.c`` compiled, or ``None``.

Its functions each have a Python reference that runs when :data:`kernel` is
``None``, and on every item a function leaves ``None``.  On the result path:

- ``swp_select``: :meth:`repro.searchable.swp.SwpMatcher.select` hands it a
  one-digest check (the provider's scan);
- ``open_payloads``: :meth:`repro.crypto.symmetric.SymmetricCipher.open_many`
  hands it a batch of tuple payloads (the client's result path);
- ``decode_tuples``: :func:`repro.outsourcing.protocol.decode_encrypted_relation`
  and ``decode_evaluation_result`` hand it a relation's tuple sequence where
  it lies in the frame (the Python walk re-runs on an irregular one to raise);
- ``decode_rows``: :meth:`repro.relational.encoding.TupleCodec.decode_regular`
  hands it the opened payloads (``TupleCodec.decode`` decides every row
  outside the common case).

On the write path (the client's ``E`` and ``Eq``):

- ``swp_sealer`` / ``swp_encrypt_words``: a
  :class:`repro.searchable.swp.SwpScheme` whose every HMAC is one digest keys
  itself into the kernel once, then hands it a batch of documents to seal
  (``seal_documents``) or of words to turn into trapdoors (``trapdoors``),
  with its ``(X, k)`` memo;
- ``seal_payloads``: :meth:`repro.crypto.symmetric.SymmetricCipher.seal_many`
  hands it a batch of tuple payloads and the nonces drawn for them.

The kernel is built on first import, not by an
install step, so it loads wherever the package is imported from: the source
tree, an editable install or a regular one.

- The build is cached in this package's ``__pycache__`` under a name made
  of the SHA-256 of the C source and the compile flags, plus the
  interpreter's extension suffix; a warm import only reads the source,
  hashes it and loads the cached file.
- On a miss (and only then) the interpreter's own compiler, as configured
  for building extensions, compiles it against ``libcrypto`` into a
  temporary file that is renamed into place, so processes importing at once
  never load a half-written file.  The builds of older sources or flags are
  then removed (a process that has one loaded keeps its mapping).
- A cached file that does not load is rebuilt once.  Any failure -- no
  compiler, no OpenSSL headers, a read-only package directory -- leaves
  :data:`kernel` ``None``, silently; answers are the same either way.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os

_PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__))
_SOURCE = os.path.join(_PACKAGE_DIR, "_native.c")
_CACHE_DIR = os.path.join(_PACKAGE_DIR, "__pycache__")
_SUFFIX = importlib.machinery.EXTENSION_SUFFIXES[0]
#: Added to the interpreter's link-shared command, before and after the source.
_FLAGS = ("-O2",)
_LIBRARIES = ("-lcrypto",)


def _cached_path(source: bytes) -> str:
    digest = hashlib.sha256(source + repr((_FLAGS, _LIBRARIES)).encode()).hexdigest()
    return os.path.join(_CACHE_DIR, f"_native-{digest[:16]}{_SUFFIX}")


def _build(target: str) -> None:
    """Compile the source into ``target``, or raise ``OSError``."""
    import subprocess
    import sysconfig
    import tempfile

    link_shared = (sysconfig.get_config_var("LDSHARED") or "").split()
    if not link_shared:
        raise OSError("the interpreter has no compiler configured for extensions")
    position_independent = (sysconfig.get_config_var("CCSHARED") or "").split()
    include = sysconfig.get_paths()["include"]
    os.makedirs(_CACHE_DIR, exist_ok=True)
    handle, temporary = tempfile.mkstemp(suffix=_SUFFIX, dir=_CACHE_DIR)
    os.close(handle)
    try:
        subprocess.run(
            [*link_shared, *position_independent, *_FLAGS, f"-I{include}",
             _SOURCE, "-o", temporary, *_LIBRARIES],
            check=True, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, timeout=120,
        )
        os.replace(temporary, target)
    except subprocess.SubprocessError as exc:
        raise OSError(f"compiling {_SOURCE} failed: {exc}") from exc
    finally:
        if os.path.exists(temporary):
            os.unlink(temporary)
    _remove_stale_builds(target)


def _remove_stale_builds(fresh: str) -> None:
    """Unlink every cached build in the cache directory but ``fresh``, as far as allowed.

    Best effort: a build that cannot be removed (or that a concurrent first
    import removed first) stays, and the fresh one loads all the same.
    """
    keep = os.path.basename(fresh)
    for name in os.listdir(_CACHE_DIR):
        if name.startswith("_native-") and name.endswith(_SUFFIX) and name != keep:
            try:
                os.unlink(os.path.join(_CACHE_DIR, name))
            except OSError:
                pass


def _import(path: str):
    spec = importlib.util.spec_from_file_location("repro._native", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load():
    """The compiled kernel module, building it first on a cache miss, or ``None``."""
    try:
        with open(_SOURCE, "rb") as handle:
            target = _cached_path(handle.read())
        if not os.path.exists(target):
            _build(target)
        try:
            return _import(target)
        except ImportError:  # truncated or foreign: build it again, once
            _build(target)
            return _import(target)
    except (OSError, ImportError):
        return None


#: The loaded ``_native`` module (``swp_select``, ``open_payloads``,
#: ``decode_tuples``, ``decode_rows``, ``swp_sealer``, ``swp_encrypt_words``,
#: ``seal_payloads``), or ``None``: the Python references run.
kernel = load()
