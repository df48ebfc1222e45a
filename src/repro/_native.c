/* The batch loops of the result path and of the write path, in C.
 *
 * Result path: swp_select is the SWP select of
 * repro.searchable.swp.SwpMatcher.select, run by the provider; open_payloads
 * is SymmetricCipher.decrypt_bytes over a batch of tuple payloads, run by the
 * key-holding client; decode_tuples is the tuple walk of
 * repro.outsourcing.protocol.decode_encrypted_relation, run by both;
 * decode_rows is TupleCodec.decode's common case over the opened payloads, run
 * by the client; open_result is the client's select: the last three fused
 * over a QUERY_RESULT body in one pass.  Write path, run by the client: swp_sealer and
 * swp_encrypt_words are SwpScheme's word encryption and trapdoors, and
 * seal_payloads is SymmetricCipher.encrypt_bytes over a batch under nonces the
 * caller drew.  The crypto loops key HMAC-SHA256 once per call or per scheme
 * (keyed_states), and every loop offers the interpreter lock during a long
 * batch (offer_lock).
 *
 * swp_select(items, words, X, hmac_block_key, suffix, check_length) walks
 * ``items`` beside ``words`` (the word ciphertexts of each item) and keeps an
 * item at its first word C with ``F_k(T[:w-m]) == T[w-m:]`` where
 * ``T = C XOR X``, ``w = len(X)`` and ``m = check_length``.  ``F_k`` is one
 * HMAC-SHA256 over ``T[:w-m] || suffix`` truncated to ``m <= 32`` bytes;
 * ``hmac_block_key`` is the key as HMAC absorbs it (hashed first when longer
 * than a block, then zero-padded to 64 bytes), so the inner and outer hash
 * states after the padded key are computed once per call and copied per word.
 *
 * Every word is taken as Python's loop takes it: ``len(word)`` decides
 * whether it is tested and ``bytes(word)`` is what is tested, so bytes-like
 * and other objects match, skip or raise exactly as they do there.  The
 * arguments are the trapdoor ``(X, k)`` and public lengths only.
 *
 * open_payloads(payloads, associated_data, stream_block_key, stream_suffix,
 * mac_block_key) opens each ``nonce || tag || body`` payload under its
 * associated data (the tuple id): it computes ``HMAC(mac_key, ad || nonce ||
 * body)``, compares it with the tag in constant time and only then XORs the
 * body with the keystream blocks ``HMAC(stream_key, nonce || counter (8 bytes,
 * big-endian) || stream_suffix)``.  A row is ``None`` when it is shorter than
 * nonce and tag, when its tag does not verify, or when a payload or id is not
 * a plain byte buffer; the caller re-runs the Python path on such a row, so
 * what it raises (or, for an exotic buffer, returns) is Python's.
 *
 * decode_tuples(raw, start, end, tuple_type) walks the counted sequence of
 * tuple ciphertexts that fills raw[start:end] where it lies: a 4-byte count,
 * then per tuple a 4-byte body length and a body of id, payload, counted
 * search fields and metadata, each length-prefixed.  Each tuple is built as
 * the Python walk builds it, ``object.__new__(tuple_type)`` and
 * ``object.__setattr__`` of its four fields and of ``framed``, the tuple as
 * the frame carries it: one slice from its 4-byte body length to the end of
 * the body, so a provider re-emits it in a join, prefix included.  Any
 * irregular framing -- a part past its bounds, bytes left in a body or after
 * the last tuple, a raw that is not exactly ``bytes`` -- returns None, and
 * the caller's Python walk raises its own ProtocolError.  A claimed count is
 * checked against the bytes that could back it before any allocation, so
 * memory is bounded by the frame, never by the peer's count.
 *
 * decode_rows(rows, plan, tuple_type, schema) decodes each TupleCodec row
 * (per value a 2-byte length and the value's bytes; ``plan`` is the codec's
 * ``(integer, width)`` per attribute) into ``tuple_type`` with ``_schema`` and
 * ``_values`` set, as RelationTuple.from_checked_values does.  Only the
 * common case is decoded: every value ASCII and within its width, no ``#`` in
 * a string, an integer of the form ``-?[0-9]+`` with at most 18 digits, and
 * nothing after the last value.  Every other row, and every row that is not
 * exactly ``bytes`` (None, for an unopened payload), is None: the caller's
 * TupleCodec.decode decides it, so what is accepted, and what is raised, is
 * Python's.
 *
 * open_result(raw, declaration, stream_block_key, stream_suffix, mac_block_key,
 * plan, tuple_type, schema) walks a QUERY_RESULT body where it lies -- the
 * relation's 4-byte length, the relation, 16 bytes of statistics and nothing
 * after -- and for each tuple frame (as decode_tuples reads it, search fields
 * and metadata skipped) checks the payload's tag over ``id || nonce || body``
 * as open_payloads does, XORs the body into one scratch buffer reused across
 * rows, and decodes it as decode_rows does into a tuple_type row.  It
 * returns the rows, or None for the whole answer when anything is outside
 * the common case: irregular framing, a schema declaration other than
 * ``declaration`` (the scheme's own), a payload shorter than nonce and tag, a
 * tag that does not verify, a row decode_rows would leave None, a raw that is
 * not exactly bytes.  The caller then decodes and decrypts the answer the
 * reference way, which raises what it raises.  A claimed count is checked
 * against the bytes that could back it before anything is allocated.
 *
 * The decoders leave what they build untracked by the cyclic collector:
 * each tuple ciphertext and its search_fields tuple, each decoded row and its
 * values tuple.  These records hold only bytes, str, int, tuples of those
 * and, in a row, its schema, which holds no record; nothing sets an
 * attribute on them after the decoder returns.  No reference cycle can pass
 * through them, so reference counting alone frees them, and a collection
 * need not walk them (CPython untracks a tuple of atoms by the same rule,
 * lazily, at its first collection).  A result of a thousand rows would
 * otherwise leave two thousand tracked objects alive across the select,
 * promoted into the older generations that full collections walk.
 *
 * swp_sealer(round_keys, check_key, stream_key, value_suffix, word_length,
 * check_length) keys one SwpScheme into a capsule, once: each Feistel round's,
 * the check key PRF's and the stream PRF's ``(hmac_block_key, suffix)``, and
 * the suffix of the per-word check value.  It takes only single-HMAC lengths
 * (``w - m <= 32`` and ``m <= 32``, hence halves of at most 32 bytes); any
 * other scheme stays in Python.
 *
 * swp_encrypt_words(items, document_ids, sealer, memo, memo_words) runs that
 * scheme.  Per word W it takes the trapdoor ``(X, k)`` from ``memo`` (the
 * scheme's dict, as SwpScheme._pre_encrypt keeps it: cleared when it holds
 * ``memo_words`` words) or computes it -- ``X`` by the 8-round alternating
 * unbalanced Feistel network, round r XORing ``F_r('|' || half[1 - r % 2])``
 * into half ``r % 2``, ``k = f(X[:w-m])`` -- and remembers it.  With
 * ``document_ids`` None, ``items`` are words and each comes back as its
 * ``(X, k)``; otherwise ``items`` are documents, sequences of words, and each
 * comes back as the tuple of its word ciphertexts ``C_i = X XOR (S_i ||
 * F_k(S_i))``, ``S_i`` the stream block of ``id || i`` (4 bytes) and ``F_k``
 * keyed from scratch per word.  A word, an id or a document holding a word
 * that is not exactly ``bytes`` of its length comes back None: the caller's
 * Python reference decides it.
 *
 * seal_payloads(plaintexts, associated_data, nonces, stream_block_key,
 * stream_suffix, mac_block_key) is open_payloads' mirror: each row's body is
 * the plaintext XOR the keystream under its nonce, and the row is
 * ``nonce || HMAC(mac_key, ad || nonce || body) || body``.  A row whose
 * plaintext, id or nonce is not exactly ``bytes`` (a nonce of 16 bytes) is
 * None, for the caller's Python reference.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <string.h>
#include <time.h>

#define OPENSSL_SUPPRESS_DEPRECATED
#include <openssl/crypto.h>
#include <openssl/sha.h>

#define BLOCK_SIZE 64
#define NONCE_LENGTH 16
#define TAG_LENGTH SHA256_DIGEST_LENGTH
#define KEYSTREAM_BLOCK_LENGTH SHA256_DIGEST_LENGTH
/* Items between two looks at the clock (see offer_lock). */
#define ITEMS_PER_CLOCK 64

static double
monotonic_seconds(void)
{
    struct timespec now;

    clock_gettime(CLOCK_MONOTONIC, &now);
    return (double)now.tv_sec + (double)now.tv_nsec * 1e-9;
}

/* Let a thread waiting for the interpreter lock run, as the Python loop would.
 *
 * A waiter asks for the lock once it has waited a switch interval with no
 * switch; each release and retake counts as a switch.  So the lock is offered
 * only after it was held for two intervals, by when any waiter has asked and
 * the release hands it over (the Python loop hands it over after one). */
static void
offer_lock(double *held_since, double hold_limit)
{
    double now = monotonic_seconds();

    if (now - *held_since >= hold_limit) {
        Py_BEGIN_ALLOW_THREADS
        Py_END_ALLOW_THREADS
        *held_since = monotonic_seconds();
    }
}

/* How long a batch may hold the lock before offer_lock hands it over: two
 * switch intervals.  0, or -1 with an exception set. */
static int
lock_hold_limit(double *hold_limit)
{
    PyObject *interval;

    interval = PySys_GetObject("getswitchinterval"); /* borrowed */
    interval = interval == NULL ? NULL : PyObject_CallNoArgs(interval);
    if (interval == NULL) {
        if (!PyErr_Occurred()) {
            PyErr_SetString(PyExc_RuntimeError, "sys.getswitchinterval is missing");
        }
        return -1;
    }
    *hold_limit = 2 * PyFloat_AsDouble(interval);
    Py_DECREF(interval);
    return PyErr_Occurred() ? -1 : 0;
}

/* The HMAC-SHA256 inner and outer states after the 64-byte padded key. */
static void
keyed_states(const unsigned char *block_key, SHA256_CTX *inner, SHA256_CTX *outer)
{
    unsigned char pad[BLOCK_SIZE];
    int i;

    for (i = 0; i < BLOCK_SIZE; i++) {
        pad[i] = block_key[i] ^ 0x36;
    }
    SHA256_Init(inner);
    SHA256_Update(inner, pad, BLOCK_SIZE);
    for (i = 0; i < BLOCK_SIZE; i++) {
        pad[i] = block_key[i] ^ 0x5c;
    }
    SHA256_Init(outer);
    SHA256_Update(outer, pad, BLOCK_SIZE);
}

/* The outer hash of HMAC over the finished inner ``ctx``, into ``digest``. */
static void
finish_hmac(SHA256_CTX *ctx, const SHA256_CTX *outer, unsigned char *digest)
{
    SHA256_Final(digest, ctx);
    *ctx = *outer;
    SHA256_Update(ctx, digest, SHA256_DIGEST_LENGTH);
    SHA256_Final(digest, ctx);
}

typedef struct {
    SHA256_CTX inner;
    SHA256_CTX outer;
    const unsigned char *pre_encrypted;
    const unsigned char *suffix;
    Py_ssize_t suffix_length;
    Py_ssize_t word_length;
    Py_ssize_t left_length;
    Py_ssize_t check_length;
    unsigned char *masked; /* word_length bytes of scratch for T */
} Check;

/* Whether the word_length bytes at ``ciphertext`` pass the check. */
static int
passes(Check *check, const unsigned char *ciphertext)
{
    unsigned char digest[SHA256_DIGEST_LENGTH];
    SHA256_CTX ctx;
    Py_ssize_t i;

    for (i = 0; i < check->word_length; i++) {
        check->masked[i] = ciphertext[i] ^ check->pre_encrypted[i];
    }
    ctx = check->inner;
    SHA256_Update(&ctx, check->masked, (size_t)check->left_length);
    SHA256_Update(&ctx, check->suffix, (size_t)check->suffix_length);
    finish_hmac(&ctx, &check->outer, digest);
    return memcmp(digest, check->masked + check->left_length,
                  (size_t)check->check_length) == 0;
}

/* 1 if ``word`` passes, 0 if not or if its length is not word_length, -1 on error.
 *
 * A word that is not bytes goes through len() and bytes() as int.from_bytes
 * takes it in Python; when the two lengths disagree the value is read as the
 * big-endian integer Python reads, which overflows the left part unless its
 * extra leading bytes are zero. */
static int
check_word(Check *check, PyObject *word)
{
    PyObject *converted;
    const unsigned char *data;
    Py_ssize_t length, extra, i;

    if (PyBytes_CheckExact(word)) {
        if (PyBytes_GET_SIZE(word) != check->word_length) {
            return 0;
        }
        return passes(check, (const unsigned char *)PyBytes_AS_STRING(word));
    }
    length = PyObject_Size(word);
    if (length < 0) {
        return -1;
    }
    if (length != check->word_length) {
        return 0;
    }
    converted = PyObject_Bytes(word);
    if (converted == NULL) {
        return -1;
    }
    data = (const unsigned char *)PyBytes_AS_STRING(converted);
    extra = PyBytes_GET_SIZE(converted) - check->word_length;
    for (i = 0; i < extra; i++) {
        if (data[i] != 0) {
            Py_DECREF(converted);
            PyErr_SetString(PyExc_OverflowError, "int too big to convert");
            return -1;
        }
    }
    /* The word_length low-order bytes, zero-extended, into the scratch
     * buffer that passes() then masks in place. */
    if (extra >= 0) {
        memcpy(check->masked, data + extra, (size_t)check->word_length);
    }
    else {
        memset(check->masked, 0, (size_t)-extra);
        memcpy(check->masked - extra, data, (size_t)(check->word_length + extra));
    }
    Py_DECREF(converted);
    return passes(check, check->masked);
}

/* Append ``item`` to ``hits`` if one of ``item_words`` passes; 0 or -1 on error. */
static int
select_item(Check *check, PyObject *hits, PyObject *item, PyObject *item_words)
{
    PyObject *iterator, *word;
    int found = 0;

    iterator = PyObject_GetIter(item_words);
    if (iterator == NULL) {
        return -1;
    }
    while (!found && (word = PyIter_Next(iterator)) != NULL) {
        found = check_word(check, word);
        Py_DECREF(word);
        if (found < 0) {
            Py_DECREF(iterator);
            return -1;
        }
    }
    Py_DECREF(iterator);
    if (PyErr_Occurred()) {
        return -1;
    }
    return found ? PyList_Append(hits, item) : 0;
}

static PyObject *
swp_select(PyObject *module, PyObject *args)
{
    PyObject *items, *words;
    PyObject *items_iterator = NULL, *words_iterator = NULL, *hits = NULL;
    PyObject *item, *item_words;
    Py_buffer pre_encrypted, block_key, suffix;
    Py_ssize_t check_length;
    Check check;
    int status;
    unsigned int walked = 0;
    double held_since, hold_limit;

    if (!PyArg_ParseTuple(args, "OOy*y*y*n:swp_select", &items, &words,
                          &pre_encrypted, &block_key, &suffix, &check_length)) {
        return NULL;
    }
    check.masked = NULL;
    if (block_key.len != BLOCK_SIZE) {
        PyErr_SetString(PyExc_ValueError, "hmac_block_key must be 64 bytes");
        goto done;
    }
    if (check_length < 1 || check_length > SHA256_DIGEST_LENGTH
        || check_length >= pre_encrypted.len) {
        PyErr_SetString(PyExc_ValueError,
                        "check length must satisfy 1 <= m <= 32 and m < len(X)");
        goto done;
    }
    check.pre_encrypted = pre_encrypted.buf;
    check.suffix = suffix.buf;
    check.suffix_length = suffix.len;
    check.word_length = pre_encrypted.len;
    check.left_length = pre_encrypted.len - check_length;
    check.check_length = check_length;
    check.masked = PyMem_Malloc((size_t)pre_encrypted.len);
    if (check.masked == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    keyed_states(block_key.buf, &check.inner, &check.outer);
    if (lock_hold_limit(&hold_limit) < 0) {
        goto done;
    }
    held_since = monotonic_seconds();

    /* zip(items, words): items is advanced first and ends the walk. */
    items_iterator = PyObject_GetIter(items);
    if (items_iterator == NULL) {
        goto done;
    }
    words_iterator = PyObject_GetIter(words);
    if (words_iterator == NULL) {
        goto done;
    }
    hits = PyList_New(0);
    if (hits == NULL) {
        goto done;
    }
    while ((item = PyIter_Next(items_iterator)) != NULL) {
        item_words = PyIter_Next(words_iterator);
        if (item_words == NULL) {
            Py_DECREF(item);
            break;
        }
        status = select_item(&check, hits, item, item_words);
        Py_DECREF(item_words);
        Py_DECREF(item);
        if (status < 0) {
            Py_CLEAR(hits);
            goto done;
        }
        if (++walked % ITEMS_PER_CLOCK == 0) {
            offer_lock(&held_since, hold_limit);
        }
    }
    if (PyErr_Occurred()) {
        Py_CLEAR(hits);
    }

done:
    PyMem_Free(check.masked);
    Py_XDECREF(items_iterator);
    Py_XDECREF(words_iterator);
    PyBuffer_Release(&pre_encrypted);
    PyBuffer_Release(&block_key);
    PyBuffer_Release(&suffix);
    return hits;
}

/* The payload cipher's keystream and MAC HMACs, keyed once per call of
 * open_payloads or seal_payloads. */
typedef struct {
    SHA256_CTX stream_inner;
    SHA256_CTX stream_outer;
    SHA256_CTX mac_inner;
    SHA256_CTX mac_outer;
    const unsigned char *stream_suffix;
    Py_ssize_t stream_suffix_length;
} Opener;

/* Whether ``object`` is a buffer read as its plain bytes; 0 with the error
 * cleared when it is not one (Python decides what that row raises), -1 on
 * any other error. */
static int
plain_buffer(PyObject *object, Py_buffer *view)
{
    if (PyObject_GetBuffer(object, view, PyBUF_SIMPLE) == 0) {
        return 1;
    }
    if (PyErr_ExceptionMatches(PyExc_TypeError)
        || PyErr_ExceptionMatches(PyExc_BufferError)) {
        PyErr_Clear();
        return 0;
    }
    return -1;
}

/* ``HMAC(mac_key, ad || nonce || body)`` into ``digest``. */
static void
payload_tag(const Opener *opener, const unsigned char *ad, Py_ssize_t ad_length,
            const unsigned char *nonce, const unsigned char *body, Py_ssize_t body_length,
            unsigned char *digest)
{
    SHA256_CTX ctx = opener->mac_inner;

    SHA256_Update(&ctx, ad, (size_t)ad_length);
    SHA256_Update(&ctx, nonce, NONCE_LENGTH);
    SHA256_Update(&ctx, body, (size_t)body_length);
    finish_hmac(&ctx, &opener->mac_outer, digest);
}

/* ``out = in XOR`` the keystream blocks ``HMAC(stream_key, nonce || counter
 * (8 bytes, big-endian) || stream_suffix)``, ``length`` bytes. */
static void
xor_keystream(const Opener *opener, const unsigned char *nonce, const unsigned char *in,
              unsigned char *out, Py_ssize_t length)
{
    unsigned char digest[SHA256_DIGEST_LENGTH], counter[8];
    Py_ssize_t offset, i, take;
    unsigned long long block;
    SHA256_CTX ctx;
    int k;

    for (offset = 0, block = 0; offset < length; offset += take, block++) {
        for (k = 0; k < 8; k++) {
            counter[k] = (unsigned char)(block >> (8 * (7 - k)));
        }
        ctx = opener->stream_inner;
        SHA256_Update(&ctx, nonce, NONCE_LENGTH);
        SHA256_Update(&ctx, counter, sizeof counter);
        SHA256_Update(&ctx, opener->stream_suffix, (size_t)opener->stream_suffix_length);
        finish_hmac(&ctx, &opener->stream_outer, digest);
        take = length - offset < KEYSTREAM_BLOCK_LENGTH ? length - offset : KEYSTREAM_BLOCK_LENGTH;
        for (i = 0; i < take; i++) {
            out[offset + i] = in[offset + i] ^ digest[i];
        }
    }
}

/* The plaintext of one payload (new reference), None, or NULL on error. */
static PyObject *
open_payload(const Opener *opener, const unsigned char *raw, Py_ssize_t raw_length,
             const unsigned char *ad, Py_ssize_t ad_length)
{
    unsigned char digest[SHA256_DIGEST_LENGTH];
    const unsigned char *nonce = raw, *tag = raw + NONCE_LENGTH;
    const unsigned char *body = raw + NONCE_LENGTH + TAG_LENGTH;
    Py_ssize_t body_length;
    PyObject *opened;

    if (raw_length < NONCE_LENGTH + TAG_LENGTH) {
        Py_RETURN_NONE;
    }
    body_length = raw_length - NONCE_LENGTH - TAG_LENGTH;
    payload_tag(opener, ad, ad_length, nonce, body, body_length, digest);
    if (CRYPTO_memcmp(digest, tag, TAG_LENGTH) != 0) {
        Py_RETURN_NONE;
    }
    opened = PyBytes_FromStringAndSize(NULL, body_length);
    if (opened == NULL) {
        return NULL;
    }
    xor_keystream(opener, nonce, body, (unsigned char *)PyBytes_AS_STRING(opened), body_length);
    return opened;
}

/* open_payload over one ``(payload, associated data)`` row of objects. */
static PyObject *
open_row(const Opener *opener, PyObject *payload, PyObject *ad)
{
    Py_buffer raw, ad_view;
    PyObject *opened;
    int status;

    if (PyBytes_CheckExact(payload) && PyBytes_CheckExact(ad)) {
        return open_payload(opener, (const unsigned char *)PyBytes_AS_STRING(payload),
                            PyBytes_GET_SIZE(payload),
                            (const unsigned char *)PyBytes_AS_STRING(ad), PyBytes_GET_SIZE(ad));
    }
    status = plain_buffer(payload, &raw);
    if (status <= 0) {
        return status < 0 ? NULL : Py_NewRef(Py_None);
    }
    status = plain_buffer(ad, &ad_view);
    if (status <= 0) {
        PyBuffer_Release(&raw);
        return status < 0 ? NULL : Py_NewRef(Py_None);
    }
    opened = open_payload(opener, raw.buf, raw.len, ad_view.buf, ad_view.len);
    PyBuffer_Release(&ad_view);
    PyBuffer_Release(&raw);
    return opened;
}

static PyObject *
open_payloads(PyObject *module, PyObject *args)
{
    PyObject *payloads, *associated_data;
    PyObject *payload_rows = NULL, *ad_rows = NULL, *opened = NULL, *row;
    Py_buffer stream_key, stream_suffix, mac_key;
    Py_ssize_t count, index;
    Opener opener;
    double held_since, hold_limit;

    if (!PyArg_ParseTuple(args, "OOy*y*y*:open_payloads", &payloads, &associated_data,
                          &stream_key, &stream_suffix, &mac_key)) {
        return NULL;
    }
    if (stream_key.len != BLOCK_SIZE || mac_key.len != BLOCK_SIZE) {
        PyErr_SetString(PyExc_ValueError, "stream and MAC block keys must be 64 bytes");
        goto done;
    }
    /* Tuples, so a thread that runs while the lock is offered cannot
     * resize what the loop indexes. */
    payload_rows = PySequence_Tuple(payloads);
    if (payload_rows == NULL) {
        goto done;
    }
    ad_rows = PySequence_Tuple(associated_data);
    if (ad_rows == NULL) {
        goto done;
    }
    count = PyTuple_GET_SIZE(payload_rows);
    if (PyTuple_GET_SIZE(ad_rows) != count) {
        PyErr_SetString(PyExc_ValueError,
                        "payloads and associated data differ in length");
        goto done;
    }
    if (lock_hold_limit(&hold_limit) < 0) {
        goto done;
    }
    keyed_states(stream_key.buf, &opener.stream_inner, &opener.stream_outer);
    keyed_states(mac_key.buf, &opener.mac_inner, &opener.mac_outer);
    opener.stream_suffix = stream_suffix.buf;
    opener.stream_suffix_length = stream_suffix.len;
    opened = PyList_New(count);
    if (opened == NULL) {
        goto done;
    }
    held_since = monotonic_seconds();
    for (index = 0; index < count; index++) {
        row = open_row(&opener, PyTuple_GET_ITEM(payload_rows, index),
                       PyTuple_GET_ITEM(ad_rows, index));
        if (row == NULL) {
            Py_CLEAR(opened);
            goto done;
        }
        PyList_SET_ITEM(opened, index, row);
        if ((index + 1) % ITEMS_PER_CLOCK == 0) {
            offer_lock(&held_since, hold_limit);
        }
    }

done:
    Py_XDECREF(payload_rows);
    Py_XDECREF(ad_rows);
    PyBuffer_Release(&stream_key);
    PyBuffer_Release(&stream_suffix);
    PyBuffer_Release(&mac_key);
    return opened;
}

/* The longest suffix a PRF message ends with ('|', a 4-byte length, a counter). */
#define MAX_SUFFIX 16

/* A PRF whose output is one HMAC-SHA256 (at most 32 bytes), keyed once: the
 * states after the padded key, and the public suffix every message ends with. */
typedef struct {
    SHA256_CTX inner;
    SHA256_CTX outer;
    unsigned char suffix[MAX_SUFFIX];
    Py_ssize_t suffix_length;
} Keyed;

/* ``HMAC(key, head || body || suffix)`` into ``digest`` (32 bytes). */
static void
keyed_hmac(const Keyed *prf, const unsigned char *head, Py_ssize_t head_length,
           const unsigned char *body, Py_ssize_t body_length, unsigned char *digest)
{
    SHA256_CTX ctx = prf->inner;

    SHA256_Update(&ctx, head, (size_t)head_length);
    SHA256_Update(&ctx, body, (size_t)body_length);
    SHA256_Update(&ctx, prf->suffix, (size_t)prf->suffix_length);
    finish_hmac(&ctx, &prf->outer, digest);
}

/* ``suffix`` as a PRF's suffix; 0, or -1 with an exception set. */
static int
set_suffix(Keyed *prf, PyObject *suffix)
{
    if (!PyBytes_Check(suffix) || PyBytes_GET_SIZE(suffix) > MAX_SUFFIX) {
        PyErr_SetString(PyExc_ValueError, "a PRF suffix is bytes of at most 16 bytes");
        return -1;
    }
    prf->suffix_length = PyBytes_GET_SIZE(suffix);
    memcpy(prf->suffix, PyBytes_AS_STRING(suffix), (size_t)prf->suffix_length);
    return 0;
}

/* A ``(hmac_block_key, suffix)`` pair as a Keyed PRF; 0, or -1 with an
 * exception set. */
static int
keyed_from_pair(PyObject *pair, Keyed *prf)
{
    PyObject *block_key;

    if (!PyTuple_Check(pair) || PyTuple_GET_SIZE(pair) != 2
        || !PyBytes_Check(block_key = PyTuple_GET_ITEM(pair, 0))
        || PyBytes_GET_SIZE(block_key) != BLOCK_SIZE) {
        PyErr_SetString(PyExc_ValueError, "a PRF key is a (64-byte block key, suffix) pair");
        return -1;
    }
    keyed_states((const unsigned char *)PyBytes_AS_STRING(block_key), &prf->inner,
                 &prf->outer);
    return set_suffix(prf, PyTuple_GET_ITEM(pair, 1));
}

/* The most Feistel rounds a sealer takes (the scheme uses 8). */
#define MAX_ROUNDS 16
/* What the empty tweak's separator puts before each round's source half. */
static const unsigned char ROUND_PREFIX[1] = {'|'};
/* The name of the capsule that holds a Sealer. */
static const char SEALER_NAME[] = "repro._native.Sealer";

/* One SwpScheme's keys, keyed once per scheme (swp_sealer). */
typedef struct {
    Keyed rounds[MAX_ROUNDS];
    Keyed check_key;
    Keyed stream;
    Keyed value; /* only its suffix: F_k is keyed per word */
    Py_ssize_t round_count;
    Py_ssize_t word_length;
    Py_ssize_t left_length;
    Py_ssize_t check_length;
    Py_ssize_t halves[2]; /* ceil(w/2) and floor(w/2) */
} Sealer;

static void
free_sealer(PyObject *capsule)
{
    PyMem_Free(PyCapsule_GetPointer(capsule, SEALER_NAME));
}

static PyObject *
swp_sealer(PyObject *module, PyObject *args)
{
    PyObject *round_keys, *check_key, *stream_key, *value_suffix, *rounds = NULL;
    PyObject *capsule = NULL;
    Py_ssize_t word_length, check_length, index;
    Sealer *sealer;

    if (!PyArg_ParseTuple(args, "OOOOnn:swp_sealer", &round_keys, &check_key, &stream_key,
                          &value_suffix, &word_length, &check_length)) {
        return NULL;
    }
    if (check_length < 1 || check_length > SHA256_DIGEST_LENGTH
        || word_length - check_length < 1 || word_length - check_length > SHA256_DIGEST_LENGTH) {
        PyErr_SetString(PyExc_ValueError, "lengths must satisfy 1 <= m <= 32 and 1 <= w - m <= 32");
        return NULL;
    }
    sealer = PyMem_New(Sealer, 1);
    if (sealer == NULL) {
        return PyErr_NoMemory();
    }
    sealer->word_length = word_length;
    sealer->check_length = check_length;
    sealer->left_length = word_length - check_length;
    sealer->halves[0] = (word_length + 1) / 2;
    sealer->halves[1] = word_length / 2;
    rounds = PySequence_Tuple(round_keys);
    if (rounds == NULL) {
        goto fail;
    }
    sealer->round_count = PyTuple_GET_SIZE(rounds);
    if (sealer->round_count < 1 || sealer->round_count > MAX_ROUNDS) {
        PyErr_SetString(PyExc_ValueError, "a sealer takes 1 to 16 Feistel rounds");
        goto fail;
    }
    for (index = 0; index < sealer->round_count; index++) {
        if (keyed_from_pair(PyTuple_GET_ITEM(rounds, index), &sealer->rounds[index]) < 0) {
            goto fail;
        }
    }
    if (keyed_from_pair(check_key, &sealer->check_key) < 0
        || keyed_from_pair(stream_key, &sealer->stream) < 0
        || set_suffix(&sealer->value, value_suffix) < 0) {
        goto fail;
    }
    capsule = PyCapsule_New(sealer, SEALER_NAME, free_sealer);
    if (capsule == NULL) {
        goto fail;
    }
    Py_DECREF(rounds);
    return capsule;

fail:
    Py_XDECREF(rounds);
    PyMem_Free(sealer);
    return NULL;
}

/* The pre-encryption ``X = P(word)`` (word_length bytes) and its check key
 * ``k = f(X[:w-m])`` (32 bytes): the alternating unbalanced Feistel network,
 * round r XORing ``F_r('|' || half[1 - r % 2])`` into half ``r % 2``. */
static void
pre_encrypt(const Sealer *sealer, const unsigned char *word, unsigned char *x,
            unsigned char *check_key)
{
    unsigned char digest[SHA256_DIGEST_LENGTH];
    unsigned char *half[2] = {x, x + sealer->halves[0]};
    Py_ssize_t r, i, target;

    memcpy(x, word, (size_t)sealer->word_length);
    for (r = 0; r < sealer->round_count; r++) {
        target = r % 2;
        keyed_hmac(&sealer->rounds[r], ROUND_PREFIX, 1, half[1 - target],
                   sealer->halves[1 - target], digest);
        for (i = 0; i < sealer->halves[target]; i++) {
            half[target][i] ^= digest[i];
        }
    }
    keyed_hmac(&sealer->check_key, NULL, 0, x, sealer->left_length, check_key);
}

/* The word ciphertext ``C = X XOR (S || F_k(S))`` at ``position`` of the
 * document ``document_id``, from the word's ``(X, k)``, into ``sealed``
 * (word_length bytes). */
static void
seal_word(const Sealer *sealer, const unsigned char *x, const unsigned char *check_key,
          const unsigned char *document_id, Py_ssize_t position, unsigned char *sealed)
{
    unsigned char block_key[BLOCK_SIZE], index[4];
    unsigned char stream[SHA256_DIGEST_LENGTH], value[SHA256_DIGEST_LENGTH];
    Keyed fresh;
    Py_ssize_t i;

    for (i = 0; i < 4; i++) {
        index[i] = (unsigned char)((size_t)position >> (8 * (3 - i)));
    }
    keyed_hmac(&sealer->stream, document_id, NONCE_LENGTH, index, 4, stream);
    /* F_k keyed from scratch, as prf_once keys it: ``k || '|'`` zero-padded. */
    memcpy(block_key, check_key, SHA256_DIGEST_LENGTH);
    block_key[SHA256_DIGEST_LENGTH] = '|';
    memset(block_key + SHA256_DIGEST_LENGTH + 1, 0, BLOCK_SIZE - SHA256_DIGEST_LENGTH - 1);
    keyed_states(block_key, &fresh.inner, &fresh.outer);
    memcpy(fresh.suffix, sealer->value.suffix, (size_t)sealer->value.suffix_length);
    fresh.suffix_length = sealer->value.suffix_length;
    keyed_hmac(&fresh, NULL, 0, stream, sealer->left_length, value);
    for (i = 0; i < sealer->left_length; i++) {
        sealed[i] = x[i] ^ stream[i];
    }
    for (i = 0; i < sealer->check_length; i++) {
        sealed[sealer->left_length + i] = x[sealer->left_length + i] ^ value[i];
    }
}

/* Whether ``object`` is exactly bytes of ``length`` bytes. */
static int
bytes_of_length(PyObject *object, Py_ssize_t length)
{
    return PyBytes_CheckExact(object) && PyBytes_GET_SIZE(object) == length;
}

/* Whether ``pair`` is a tuple ``(X, k)`` of bytes of the word length and of
 * 32 bytes. */
static int
is_pair(const Sealer *sealer, PyObject *pair)
{
    return PyTuple_CheckExact(pair) && PyTuple_GET_SIZE(pair) == 2
           && bytes_of_length(PyTuple_GET_ITEM(pair, 0), sealer->word_length)
           && bytes_of_length(PyTuple_GET_ITEM(pair, 1), SHA256_DIGEST_LENGTH);
}

/* The memo of a scheme's ``(X, k)`` pairs, as SwpScheme._pre_encrypt keeps
 * it: a dict from word to pair, cleared when it holds ``limit`` words. */
typedef struct {
    PyObject *words;
    Py_ssize_t limit;
} Memo;

/* The ``(X, k)`` of a word of exactly the word length, from the memo or
 * computed and remembered: a borrowed reference (the memo holds it), or
 * NULL on error. */
static PyObject *
pre_encrypted(const Sealer *sealer, Memo *memo, PyObject *word)
{
    PyObject *pair, *x, *check_key;
    int status;

    pair = PyDict_GetItemWithError(memo->words, word);
    if (pair != NULL) {
        if (!is_pair(sealer, pair)) {
            PyErr_SetString(PyExc_TypeError, "a memo entry is not an (X, k) pair");
            return NULL;
        }
        return pair;
    }
    if (PyErr_Occurred()) {
        return NULL;
    }
    pair = PyTuple_New(2);
    if (pair == NULL) {
        return NULL;
    }
    x = PyBytes_FromStringAndSize(NULL, sealer->word_length);
    PyTuple_SET_ITEM(pair, 0, x);
    check_key = PyBytes_FromStringAndSize(NULL, SHA256_DIGEST_LENGTH);
    PyTuple_SET_ITEM(pair, 1, check_key);
    if (x == NULL || check_key == NULL) {
        Py_DECREF(pair);
        return NULL;
    }
    pre_encrypt(sealer, (const unsigned char *)PyBytes_AS_STRING(word),
                (unsigned char *)PyBytes_AS_STRING(x),
                (unsigned char *)PyBytes_AS_STRING(check_key));
    if (PyDict_GET_SIZE(memo->words) >= memo->limit) {
        PyDict_Clear(memo->words);
    }
    status = PyDict_SetItem(memo->words, word, pair);
    Py_DECREF(pair);
    return status < 0 ? NULL : pair;
}

/* The trapdoor ``(X, k)`` of one word, a new reference; None when the word is
 * not exactly bytes of the word length, NULL on error. */
static PyObject *
word_trapdoor(const Sealer *sealer, Memo *memo, PyObject *word)
{
    if (!bytes_of_length(word, sealer->word_length)) {
        return Py_NewRef(Py_None);
    }
    return Py_XNewRef(pre_encrypted(sealer, memo, word));
}

/* The word ciphertexts of one document, a new tuple; None when the id or a
 * word is not exactly bytes of its length, NULL on error. */
static PyObject *
seal_document(const Sealer *sealer, Memo *memo, PyObject *words, PyObject *document_id)
{
    PyObject *sequence, *sealed, *pair, *ciphertext;
    Py_ssize_t count, position;

    if (!bytes_of_length(document_id, NONCE_LENGTH)) {
        return Py_NewRef(Py_None);
    }
    sequence = PySequence_Fast(words, "a document is a sequence of words");
    if (sequence == NULL) {
        return NULL;
    }
    count = PySequence_Fast_GET_SIZE(sequence);
    for (position = 0; position < count; position++) {
        if (!bytes_of_length(PySequence_Fast_GET_ITEM(sequence, position),
                             sealer->word_length)) {
            Py_DECREF(sequence);
            return Py_NewRef(Py_None);
        }
    }
    sealed = PyTuple_New(count);
    for (position = 0; sealed != NULL && position < count; position++) {
        pair = pre_encrypted(sealer, memo, PySequence_Fast_GET_ITEM(sequence, position));
        ciphertext = pair == NULL ? NULL : PyBytes_FromStringAndSize(NULL, sealer->word_length);
        if (ciphertext == NULL) {
            Py_CLEAR(sealed);
            break;
        }
        seal_word(sealer, (const unsigned char *)PyBytes_AS_STRING(PyTuple_GET_ITEM(pair, 0)),
                  (const unsigned char *)PyBytes_AS_STRING(PyTuple_GET_ITEM(pair, 1)),
                  (const unsigned char *)PyBytes_AS_STRING(document_id), position,
                  (unsigned char *)PyBytes_AS_STRING(ciphertext));
        PyTuple_SET_ITEM(sealed, position, ciphertext);
    }
    Py_DECREF(sequence);
    return sealed;
}

static PyObject *
swp_encrypt_words(PyObject *module, PyObject *args)
{
    PyObject *items, *document_ids, *capsule;
    PyObject *item_rows = NULL, *id_rows = NULL, *results = NULL, *row;
    const Sealer *sealer;
    Memo memo;
    Py_ssize_t count, index;
    double held_since, hold_limit;

    if (!PyArg_ParseTuple(args, "OOOO!n:swp_encrypt_words", &items, &document_ids, &capsule,
                          &PyDict_Type, &memo.words, &memo.limit)) {
        return NULL;
    }
    sealer = PyCapsule_GetPointer(capsule, SEALER_NAME);
    if (sealer == NULL) {
        return NULL;
    }
    if (memo.limit < 1) {
        PyErr_SetString(PyExc_ValueError, "the memo must hold at least one word");
        return NULL;
    }
    /* A strong reference: a thread that runs while the lock is offered may
     * drop the scheme, not the memo under the loop. */
    Py_INCREF(memo.words);
    /* Tuples, so such a thread cannot resize what the loop indexes either. */
    item_rows = PySequence_Tuple(items);
    if (item_rows == NULL) {
        goto done;
    }
    count = PyTuple_GET_SIZE(item_rows);
    if (document_ids != Py_None) {
        id_rows = PySequence_Tuple(document_ids);
        if (id_rows == NULL) {
            goto done;
        }
        if (PyTuple_GET_SIZE(id_rows) != count) {
            PyErr_SetString(PyExc_ValueError, "documents and document ids differ in length");
            goto done;
        }
    }
    if (lock_hold_limit(&hold_limit) < 0) {
        goto done;
    }
    results = PyList_New(count);
    if (results == NULL) {
        goto done;
    }
    held_since = monotonic_seconds();
    for (index = 0; index < count; index++) {
        if (id_rows == NULL) {
            row = word_trapdoor(sealer, &memo, PyTuple_GET_ITEM(item_rows, index));
        }
        else {
            row = seal_document(sealer, &memo, PyTuple_GET_ITEM(item_rows, index),
                                PyTuple_GET_ITEM(id_rows, index));
        }
        if (row == NULL) {
            Py_CLEAR(results);
            goto done;
        }
        PyList_SET_ITEM(results, index, row);
        if ((index + 1) % ITEMS_PER_CLOCK == 0) {
            offer_lock(&held_since, hold_limit);
        }
    }

done:
    Py_DECREF(memo.words);
    Py_XDECREF(item_rows);
    Py_XDECREF(id_rows);
    return results;
}

/* ``nonce || HMAC(mac_key, ad || nonce || body) || body`` with ``body`` the
 * plaintext XOR the keystream: a new bytes object, or NULL on error. */
static PyObject *
seal_payload(const Opener *opener, const unsigned char *plain, Py_ssize_t plain_length,
             const unsigned char *ad, Py_ssize_t ad_length, const unsigned char *nonce)
{
    unsigned char *raw, *body;
    PyObject *sealed;

    sealed = PyBytes_FromStringAndSize(NULL, NONCE_LENGTH + TAG_LENGTH + plain_length);
    if (sealed == NULL) {
        return NULL;
    }
    raw = (unsigned char *)PyBytes_AS_STRING(sealed);
    body = raw + NONCE_LENGTH + TAG_LENGTH;
    memcpy(raw, nonce, NONCE_LENGTH);
    xor_keystream(opener, nonce, plain, body, plain_length);
    payload_tag(opener, ad, ad_length, nonce, body, plain_length, raw + NONCE_LENGTH);
    return sealed;
}

static PyObject *
seal_payloads(PyObject *module, PyObject *args)
{
    PyObject *plaintexts, *associated_data, *nonces;
    PyObject *plain_rows = NULL, *ad_rows = NULL, *nonce_rows = NULL, *sealed = NULL, *row;
    PyObject *plain, *ad, *nonce;
    Py_buffer stream_key, stream_suffix, mac_key;
    Py_ssize_t count, index;
    Opener opener;
    double held_since, hold_limit;

    if (!PyArg_ParseTuple(args, "OOOy*y*y*:seal_payloads", &plaintexts, &associated_data,
                          &nonces, &stream_key, &stream_suffix, &mac_key)) {
        return NULL;
    }
    if (stream_key.len != BLOCK_SIZE || mac_key.len != BLOCK_SIZE) {
        PyErr_SetString(PyExc_ValueError, "stream and MAC block keys must be 64 bytes");
        goto done;
    }
    /* Tuples, so a thread that runs while the lock is offered cannot
     * resize what the loop indexes. */
    plain_rows = PySequence_Tuple(plaintexts);
    ad_rows = plain_rows == NULL ? NULL : PySequence_Tuple(associated_data);
    nonce_rows = ad_rows == NULL ? NULL : PySequence_Tuple(nonces);
    if (nonce_rows == NULL) {
        goto done;
    }
    count = PyTuple_GET_SIZE(plain_rows);
    if (PyTuple_GET_SIZE(ad_rows) != count || PyTuple_GET_SIZE(nonce_rows) != count) {
        PyErr_SetString(PyExc_ValueError,
                        "plaintexts, associated data and nonces differ in length");
        goto done;
    }
    if (lock_hold_limit(&hold_limit) < 0) {
        goto done;
    }
    keyed_states(stream_key.buf, &opener.stream_inner, &opener.stream_outer);
    keyed_states(mac_key.buf, &opener.mac_inner, &opener.mac_outer);
    opener.stream_suffix = stream_suffix.buf;
    opener.stream_suffix_length = stream_suffix.len;
    sealed = PyList_New(count);
    if (sealed == NULL) {
        goto done;
    }
    held_since = monotonic_seconds();
    for (index = 0; index < count; index++) {
        plain = PyTuple_GET_ITEM(plain_rows, index);
        ad = PyTuple_GET_ITEM(ad_rows, index);
        nonce = PyTuple_GET_ITEM(nonce_rows, index);
        if (PyBytes_CheckExact(plain) && PyBytes_CheckExact(ad)
            && bytes_of_length(nonce, NONCE_LENGTH)) {
            row = seal_payload(&opener, (const unsigned char *)PyBytes_AS_STRING(plain),
                               PyBytes_GET_SIZE(plain),
                               (const unsigned char *)PyBytes_AS_STRING(ad),
                               PyBytes_GET_SIZE(ad),
                               (const unsigned char *)PyBytes_AS_STRING(nonce));
            if (row == NULL) {
                Py_CLEAR(sealed);
                goto done;
            }
        }
        else {
            row = Py_NewRef(Py_None);
        }
        PyList_SET_ITEM(sealed, index, row);
        if ((index + 1) % ITEMS_PER_CLOCK == 0) {
            offer_lock(&held_since, hold_limit);
        }
    }

done:
    Py_XDECREF(plain_rows);
    Py_XDECREF(ad_rows);
    Py_XDECREF(nonce_rows);
    PyBuffer_Release(&stream_key);
    PyBuffer_Release(&stream_suffix);
    PyBuffer_Release(&mac_key);
    return sealed;
}
static Py_ssize_t
read_u32(const unsigned char *p)
{
    return (Py_ssize_t)((size_t)p[0] << 24 | (size_t)p[1] << 16 | (size_t)p[2] << 8 | p[3]);
}

/* The smallest tuple frame: its body length and the four prefixes in it. */
#define MIN_TUPLE_FRAME 20

/* Names the tuple walk and the row decode set, interned at import. */
static PyObject *tuple_id_name, *payload_name, *search_fields_name, *metadata_name,
    *framed_name, *schema_name, *values_name, *no_arguments;

/* ``object.__new__(cls)``: an instance its class's ``__init__`` never saw. */
static PyObject *
bare_instance(PyObject *cls)
{
    return PyBaseObject_Type.tp_new((PyTypeObject *)cls, no_arguments, NULL);
}

/* ``object`` out of the cyclic collector's lists (see the header); a no-op
 * on an object that is not a collector object or is untracked already. */
static void
untrack(PyObject *object)
{
    if (PyObject_IS_GC(object)) {
        PyObject_GC_UnTrack(object);
    }
}

/* ``object.__setattr__`` of each ``(name, value)`` pair on ``instance``;
 * steals the values (NULL when building one failed).  0, or -1 on error. */
static int
set_stolen(PyObject *instance, int count, PyObject **names, PyObject **values)
{
    int i, status = 0;

    for (i = 0; i < count; i++) {
        if (status == 0) {
            status = values[i] == NULL ? -1
                     : PyObject_GenericSetAttr(instance, names[i], values[i]);
        }
        Py_XDECREF(values[i]);
    }
    return status;
}

/* The length-prefixed byte string at ``*offset``, which must end by ``end``:
 * 1 and its bounds, or 0 when the prefix or the bytes run past ``end``. */
static int
part_at(const unsigned char *data, Py_ssize_t *offset, Py_ssize_t end,
        Py_ssize_t *start)
{
    Py_ssize_t length;

    if (end - *offset < 4) {
        return 0;
    }
    length = read_u32(data + *offset);
    *start = *offset + 4;
    if (length > end - *start) {
        return 0;
    }
    *offset = *start + length;
    return 1;
}

static PyObject *
bytes_between(const unsigned char *data, Py_ssize_t start, Py_ssize_t end)
{
    return PyBytes_FromStringAndSize((const char *)data + start, end - start);
}

/* The tuple ciphertext framed at ``*offset`` (its 4-byte body length, then
 * the body), which must end by ``end``: 1 with ``*built`` set, 0 when the
 * framing is irregular, -1 on error. */
static int
tuple_at(const unsigned char *data, Py_ssize_t *offset, Py_ssize_t end,
         PyObject *cls, PyObject **built)
{
    Py_ssize_t begin, body_end, id_start, id_end, payload_start, payload_end;
    Py_ssize_t metadata_start, field_start, field_count, i;
    PyObject *fields, *field, *instance;
    PyObject *names[5] = {tuple_id_name, payload_name, search_fields_name,
                          metadata_name, framed_name};
    PyObject *values[5];

    body_end = *offset;
    if (!part_at(data, &body_end, end, &begin)) {
        return 0;
    }
    *offset = begin;
    if (!part_at(data, offset, body_end, &id_start)) {
        return 0;
    }
    id_end = *offset;
    if (!part_at(data, offset, body_end, &payload_start)) {
        return 0;
    }
    payload_end = *offset;
    if (body_end - *offset < 4) {
        return 0;
    }
    field_count = read_u32(data + *offset);
    *offset += 4;
    /* Each field takes its 4-byte prefix and the metadata one more, so the
     * count is bounded by the body before anything is allocated for it. */
    if (field_count > (body_end - *offset - 4) / 4) {
        return 0;
    }
    fields = PyTuple_New(field_count);
    if (fields == NULL) {
        return -1;
    }
    for (i = 0; i < field_count; i++) {
        if (!part_at(data, offset, body_end, &field_start)) {
            Py_DECREF(fields);
            return 0;
        }
        field = bytes_between(data, field_start, *offset);
        if (field == NULL) {
            Py_DECREF(fields);
            return -1;
        }
        PyTuple_SET_ITEM(fields, i, field);
    }
    if (!part_at(data, offset, body_end, &metadata_start) || *offset != body_end) {
        Py_DECREF(fields);
        return 0;
    }
    instance = bare_instance(cls);
    if (instance == NULL) {
        Py_DECREF(fields);
        return -1;
    }
    values[0] = bytes_between(data, id_start, id_end);
    values[1] = bytes_between(data, payload_start, payload_end);
    values[2] = fields;
    values[3] = bytes_between(data, metadata_start, body_end);
    values[4] = bytes_between(data, begin - 4, body_end);
    if (set_stolen(instance, 5, names, values) < 0) {
        Py_DECREF(instance);
        return -1;
    }
    untrack(fields);
    untrack(instance);
    *built = instance;
    return 1;
}

static PyObject *
decode_tuples(PyObject *module, PyObject *args)
{
    PyObject *raw, *cls, *tuples, *item;
    const unsigned char *data;
    Py_ssize_t start, end, offset, count, index;
    double held_since, hold_limit;
    int status;

    if (!PyArg_ParseTuple(args, "OnnO!:decode_tuples", &raw, &start, &end,
                          &PyType_Type, &cls)) {
        return NULL;
    }
    if (!PyBytes_CheckExact(raw)) {
        Py_RETURN_NONE;
    }
    if (start < 0 || start > end || end > PyBytes_GET_SIZE(raw)) {
        PyErr_SetString(PyExc_ValueError, "start and end must satisfy 0 <= start <= end <= len(raw)");
        return NULL;
    }
    data = (const unsigned char *)PyBytes_AS_STRING(raw);
    if (end - start < 4) {
        Py_RETURN_NONE;
    }
    count = read_u32(data + start);
    offset = start + 4;
    /* A claimed count is bounded by the frame before anything is allocated. */
    if (count > (end - offset) / MIN_TUPLE_FRAME) {
        Py_RETURN_NONE;
    }
    if (lock_hold_limit(&hold_limit) < 0) {
        return NULL;
    }
    tuples = PyTuple_New(count);
    if (tuples == NULL) {
        return NULL;
    }
    held_since = monotonic_seconds();
    for (index = 0; index < count; index++) {
        status = tuple_at(data, &offset, end, cls, &item);
        if (status <= 0) {
            Py_DECREF(tuples);
            if (status < 0) {
                return NULL;
            }
            Py_RETURN_NONE;
        }
        PyTuple_SET_ITEM(tuples, index, item);
        if ((index + 1) % ITEMS_PER_CLOCK == 0) {
            offer_lock(&held_since, hold_limit);
        }
    }
    if (offset != end) {
        Py_DECREF(tuples);
        Py_RETURN_NONE;
    }
    return tuples;
}

/* The longest decimal text decoded here: any 18 digits fit a long long. */
#define MAX_DIGITS 18

typedef struct {
    int integer;
    Py_ssize_t width;
} Column;

/* The value of ``length`` bytes at ``text`` in a column, a new reference;
 * None (a new reference) when the text is not the common case, NULL on error. */
static PyObject *
column_value(const Column *column, const unsigned char *text, Py_ssize_t length)
{
    Py_ssize_t i, digits = length;
    long long value = 0;

    if (length > column->width) {
        return Py_NewRef(Py_None);
    }
    if (!column->integer) {
        for (i = 0; i < length; i++) {
            if (text[i] >= 0x80 || text[i] == '#') {
                return Py_NewRef(Py_None);
            }
        }
        return PyUnicode_DecodeASCII((const char *)text, length, NULL);
    }
    i = length > 0 && text[0] == '-';
    digits -= i;
    if (digits < 1 || digits > MAX_DIGITS) {
        return Py_NewRef(Py_None);
    }
    for (; i < length; i++) {
        if (text[i] < '0' || text[i] > '9') {
            return Py_NewRef(Py_None);
        }
        value = value * 10 + (text[i] - '0');
    }
    return PyLong_FromLongLong(text[0] == '-' ? -value : value);
}

/* The values of one row of ``length`` bytes at ``data``, a new tuple; None (a
 * new reference) when the row is not the common case, NULL on error. */
static PyObject *
row_values(const Column *columns, Py_ssize_t arity, const unsigned char *data,
           Py_ssize_t length)
{
    Py_ssize_t offset = 0, start, index;
    PyObject *values, *value;

    values = PyTuple_New(arity);
    if (values == NULL) {
        return NULL;
    }
    for (index = 0; index < arity; index++) {
        if (length - offset < 2) {
            break;
        }
        start = offset + 2;
        offset = start + (data[offset] << 8 | data[offset + 1]);
        if (offset > length) {
            break;
        }
        value = column_value(&columns[index], data + start, offset - start);
        if (value == NULL) {
            Py_DECREF(values);
            return NULL;
        }
        if (value == Py_None) {
            Py_DECREF(value);
            break;
        }
        PyTuple_SET_ITEM(values, index, value);
    }
    if (index < arity || offset != length) {
        Py_DECREF(values);
        return Py_NewRef(Py_None);
    }
    return values;
}

/* The codec's decode plan as columns (PyMem, *arity of them), or NULL with
 * an exception set. */
static Column *
plan_columns(PyObject *plan, Py_ssize_t *arity)
{
    PyObject *plan_tuple = PySequence_Tuple(plan);
    Column *columns = NULL;
    Py_ssize_t index;

    if (plan_tuple == NULL) {
        return NULL;
    }
    *arity = PyTuple_GET_SIZE(plan_tuple);
    columns = PyMem_New(Column, *arity > 0 ? *arity : 1);
    if (columns == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (index = 0; index < *arity; index++) {
        if (!PyArg_ParseTuple(PyTuple_GET_ITEM(plan_tuple, index), "pn;a plan column is (integer, width)",
                              &columns[index].integer, &columns[index].width)) {
            PyMem_Free(columns);
            columns = NULL;
            goto done;
        }
    }

done:
    Py_DECREF(plan_tuple);
    return columns;
}

/* ``tuple_type`` with ``_schema`` and ``_values`` set, untracked; steals
 * ``values`` (None and NULL pass through).  NULL on error. */
static PyObject *
row_instance(PyObject *cls, PyObject *schema, PyObject *values)
{
    PyObject *names[2] = {schema_name, values_name};
    PyObject *set[2];
    PyObject *instance;

    if (values == NULL || values == Py_None) {
        return values;
    }
    instance = bare_instance(cls);
    set[0] = Py_NewRef(schema);
    set[1] = values;
    if (instance == NULL) {
        Py_DECREF(set[0]);
        Py_DECREF(set[1]);
        return NULL;
    }
    if (set_stolen(instance, 2, names, set) < 0) {
        Py_DECREF(instance);
        return NULL;
    }
    untrack(values);
    untrack(instance);
    return instance;
}

static PyObject *
decode_rows(PyObject *module, PyObject *args)
{
    PyObject *rows, *plan, *cls, *schema;
    PyObject *row_tuple = NULL, *decoded = NULL, *row, *instance;
    Column *columns = NULL;
    Py_ssize_t arity, count, index;
    double held_since, hold_limit;

    if (!PyArg_ParseTuple(args, "OOO!O:decode_rows", &rows, &plan, &PyType_Type, &cls,
                          &schema)) {
        return NULL;
    }
    columns = plan_columns(plan, &arity);
    if (columns == NULL) {
        goto done;
    }
    /* A tuple, so a thread that runs while the lock is offered cannot
     * resize what the loop indexes. */
    row_tuple = PySequence_Tuple(rows);
    if (row_tuple == NULL) {
        goto done;
    }
    if (lock_hold_limit(&hold_limit) < 0) {
        goto done;
    }
    count = PyTuple_GET_SIZE(row_tuple);
    decoded = PyList_New(count);
    if (decoded == NULL) {
        goto done;
    }
    held_since = monotonic_seconds();
    for (index = 0; index < count; index++) {
        row = PyTuple_GET_ITEM(row_tuple, index);
        instance = !PyBytes_CheckExact(row) ? Py_NewRef(Py_None)
                   : row_instance(cls, schema,
                                  row_values(columns, arity,
                                             (const unsigned char *)PyBytes_AS_STRING(row),
                                             PyBytes_GET_SIZE(row)));
        if (instance == NULL) {
            Py_CLEAR(decoded);
            goto done;
        }
        PyList_SET_ITEM(decoded, index, instance);
        if ((index + 1) % ITEMS_PER_CLOCK == 0) {
            offer_lock(&held_since, hold_limit);
        }
    }

done:
    PyMem_Free(columns);
    Py_XDECREF(row_tuple);
    return decoded;
}

/* The row of the tuple ciphertext framed at ``*offset`` (see tuple_at), which
 * must end by ``end``, opened into ``*scratch`` (grown as needed) and
 * decoded: 1 with ``*built`` set, 0 when the framing is irregular, the tag
 * does not verify or the row is not the common case, -1 on error. */
static int
open_tuple_at(const Opener *opener, const Column *columns, Py_ssize_t arity,
              PyObject *cls, PyObject *schema, const unsigned char *data,
              Py_ssize_t *offset, Py_ssize_t end, unsigned char **scratch,
              Py_ssize_t *scratch_size, PyObject **built)
{
    unsigned char digest[SHA256_DIGEST_LENGTH];
    Py_ssize_t begin, body_end, id_start, payload_start, payload_end, field_count;
    Py_ssize_t skipped, i, length;
    const unsigned char *payload;
    unsigned char *grown;

    body_end = *offset;
    if (!part_at(data, &body_end, end, &begin)) {
        return 0;
    }
    *offset = begin;
    if (!part_at(data, offset, body_end, &id_start)
        || !part_at(data, offset, body_end, &payload_start)) {
        return 0;
    }
    payload_end = *offset;
    if (body_end - *offset < 4) {
        return 0;
    }
    field_count = read_u32(data + *offset);
    *offset += 4;
    for (i = 0; i < field_count; i++) {
        if (!part_at(data, offset, body_end, &skipped)) {
            return 0;
        }
    }
    if (!part_at(data, offset, body_end, &skipped) || *offset != body_end) {
        return 0;
    }
    length = payload_end - payload_start - NONCE_LENGTH - TAG_LENGTH;
    if (length < 0) {
        return 0;
    }
    /* The id's own bytes end where the payload's length prefix starts. */
    payload = data + payload_start;
    payload_tag(opener, data + id_start, payload_start - 4 - id_start, payload,
                payload + NONCE_LENGTH + TAG_LENGTH, length, digest);
    if (CRYPTO_memcmp(digest, payload + NONCE_LENGTH, TAG_LENGTH) != 0) {
        return 0;
    }
    if (length > *scratch_size) {
        grown = PyMem_Realloc(*scratch, (size_t)length);
        if (grown == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        *scratch = grown;
        *scratch_size = length;
    }
    xor_keystream(opener, payload, payload + NONCE_LENGTH + TAG_LENGTH, *scratch, length);
    *built = row_instance(cls, schema, row_values(columns, arity, *scratch, length));
    if (*built == NULL) {
        return -1;
    }
    if (*built == Py_None) {
        Py_DECREF(*built);
        return 0;
    }
    return 1;
}

static PyObject *
open_result(PyObject *module, PyObject *args)
{
    PyObject *raw, *declaration, *plan, *cls, *schema, *rows = NULL, *row;
    Py_buffer stream_key, stream_suffix, mac_key;
    const unsigned char *data;
    unsigned char *scratch = NULL;
    Py_ssize_t size, relation_end, offset, declaration_start, count, index;
    Py_ssize_t arity, scratch_size = 0;
    Column *columns = NULL;
    Opener opener;
    double held_since, hold_limit;
    int status;

    if (!PyArg_ParseTuple(args, "OSy*y*y*OO!O:open_result", &raw, &declaration, &stream_key,
                          &stream_suffix, &mac_key, &plan, &PyType_Type, &cls, &schema)) {
        return NULL;
    }
    if (stream_key.len != BLOCK_SIZE || mac_key.len != BLOCK_SIZE) {
        PyErr_SetString(PyExc_ValueError, "stream and MAC block keys must be 64 bytes");
        goto done;
    }
    if (!PyBytes_CheckExact(raw)) {
        rows = Py_NewRef(Py_None);
        goto done;
    }
    data = (const unsigned char *)PyBytes_AS_STRING(raw);
    size = PyBytes_GET_SIZE(raw);
    /* The relation's length, the relation, then 16 bytes of statistics. */
    if (size < 4 + 16 || read_u32(data) != size - 4 - 16) {
        rows = Py_NewRef(Py_None);
        goto done;
    }
    relation_end = size - 16;
    offset = 4;
    if (!part_at(data, &offset, relation_end, &declaration_start)
        || offset - declaration_start != PyBytes_GET_SIZE(declaration)
        || memcmp(data + declaration_start, PyBytes_AS_STRING(declaration),
                  (size_t)(offset - declaration_start)) != 0
        || relation_end - offset < 4) {
        rows = Py_NewRef(Py_None);
        goto done;
    }
    count = read_u32(data + offset);
    offset += 4;
    /* A claimed count is bounded by the frame before anything is allocated. */
    if (count > (relation_end - offset) / MIN_TUPLE_FRAME) {
        rows = Py_NewRef(Py_None);
        goto done;
    }
    columns = plan_columns(plan, &arity);
    if (columns == NULL || lock_hold_limit(&hold_limit) < 0) {
        goto done;
    }
    keyed_states(stream_key.buf, &opener.stream_inner, &opener.stream_outer);
    keyed_states(mac_key.buf, &opener.mac_inner, &opener.mac_outer);
    opener.stream_suffix = stream_suffix.buf;
    opener.stream_suffix_length = stream_suffix.len;
    rows = PyList_New(count);
    if (rows == NULL) {
        goto done;
    }
    held_since = monotonic_seconds();
    for (index = 0; index < count; index++) {
        status = open_tuple_at(&opener, columns, arity, cls, schema, data, &offset,
                               relation_end, &scratch, &scratch_size, &row);
        if (status <= 0) {
            Py_SETREF(rows, status < 0 ? NULL : Py_NewRef(Py_None));
            goto done;
        }
        PyList_SET_ITEM(rows, index, row);
        if ((index + 1) % ITEMS_PER_CLOCK == 0) {
            offer_lock(&held_since, hold_limit);
        }
    }
    if (offset != relation_end) {
        Py_SETREF(rows, Py_NewRef(Py_None));
    }

done:
    PyMem_Free(scratch);
    PyMem_Free(columns);
    PyBuffer_Release(&stream_key);
    PyBuffer_Release(&stream_suffix);
    PyBuffer_Release(&mac_key);
    return rows;
}

static PyMethodDef native_methods[] = {
    {"swp_select", swp_select, METH_VARARGS,
     "swp_select(items, words, X, hmac_block_key, suffix, check_length) -> list\n\n"
     "The items with a word C whose T = C XOR X passes the SWP check."},
    {"open_payloads", open_payloads, METH_VARARGS,
     "open_payloads(payloads, associated_data, stream_block_key, stream_suffix,\n"
     "              mac_block_key) -> list\n\n"
     "Each payload's plaintext, or None where it is short, forged or not a byte buffer."},
    {"decode_tuples", decode_tuples, METH_VARARGS,
     "decode_tuples(raw, start, end, tuple_type) -> tuple or None\n\n"
     "The tuple ciphertexts of the counted sequence raw[start:end], or None where it is irregular."},
    {"decode_rows", decode_rows, METH_VARARGS,
     "decode_rows(rows, plan, tuple_type, schema) -> list\n\n"
     "Each tuple encoding's tuple, or None where it is not the common case."},
    {"open_result", open_result, METH_VARARGS,
     "open_result(raw, declaration, stream_block_key, stream_suffix, mac_block_key,\n"
     "            plan, tuple_type, schema) -> list or None\n\n"
     "The decrypted rows of a QUERY_RESULT body, or None where any is irregular."},
    {"swp_sealer", swp_sealer, METH_VARARGS,
     "swp_sealer(round_keys, check_key, stream_key, value_suffix, word_length,\n"
     "           check_length) -> capsule\n\n"
     "One SwpScheme's keys, keyed once, for swp_encrypt_words."},
    {"swp_encrypt_words", swp_encrypt_words, METH_VARARGS,
     "swp_encrypt_words(items, document_ids, sealer, memo, memo_words) -> list\n\n"
     "Each word's trapdoor (X, k), or with document ids each document's SWP word\n"
     "ciphertexts; None where an id or a word is not bytes of its length."},
    {"seal_payloads", seal_payloads, METH_VARARGS,
     "seal_payloads(plaintexts, associated_data, nonces, stream_block_key,\n"
     "              stream_suffix, mac_block_key) -> list\n\n"
     "Each row's nonce || tag || body, or None where a row is not plain bytes."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef native_module = {
    PyModuleDef_HEAD_INIT, "_native",
    "The native SWP select, payload opener, tuple walk and row decode, and the SWP and payload sealers.",
    -1, native_methods,
};

PyMODINIT_FUNC
PyInit__native(void)
{
    struct {
        PyObject **slot;
        const char *text;
    } interned[] = {
        {&tuple_id_name, "tuple_id"}, {&payload_name, "payload"},
        {&search_fields_name, "search_fields"}, {&metadata_name, "metadata"},
        {&framed_name, "framed"}, {&schema_name, "_schema"}, {&values_name, "_values"},
    };
    size_t i;

    for (i = 0; i < sizeof interned / sizeof interned[0]; i++) {
        if (*interned[i].slot == NULL) {
            *interned[i].slot = PyUnicode_InternFromString(interned[i].text);
            if (*interned[i].slot == NULL) {
                return NULL;
            }
        }
    }
    if (no_arguments == NULL) {
        no_arguments = PyTuple_New(0);
        if (no_arguments == NULL) {
            return NULL;
        }
    }
    return PyModule_Create(&native_module);
}
