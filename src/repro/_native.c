/* The two batch loops of the result path's ends, in C.
 *
 * swp_select is the SWP select of repro.searchable.swp.SwpMatcher.select, run
 * by the provider; open_payloads is SymmetricCipher.decrypt_bytes over a batch
 * of tuple payloads, run by the key-holding client.  Both key HMAC-SHA256
 * once per call (keyed_states) and offer the interpreter lock during a long
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

/* The plaintext of one payload (new reference), None, or NULL on error. */
static PyObject *
open_payload(const Opener *opener, const unsigned char *raw, Py_ssize_t raw_length,
             const unsigned char *ad, Py_ssize_t ad_length)
{
    unsigned char digest[SHA256_DIGEST_LENGTH], counter[8];
    const unsigned char *nonce = raw, *tag = raw + NONCE_LENGTH;
    const unsigned char *body = raw + NONCE_LENGTH + TAG_LENGTH;
    unsigned char *plain;
    Py_ssize_t body_length, offset, i, take;
    unsigned long long block;
    SHA256_CTX ctx;
    PyObject *opened;
    int k;

    if (raw_length < NONCE_LENGTH + TAG_LENGTH) {
        Py_RETURN_NONE;
    }
    body_length = raw_length - NONCE_LENGTH - TAG_LENGTH;
    ctx = opener->mac_inner;
    SHA256_Update(&ctx, ad, (size_t)ad_length);
    SHA256_Update(&ctx, nonce, NONCE_LENGTH);
    SHA256_Update(&ctx, body, (size_t)body_length);
    finish_hmac(&ctx, &opener->mac_outer, digest);
    if (CRYPTO_memcmp(digest, tag, TAG_LENGTH) != 0) {
        Py_RETURN_NONE;
    }
    opened = PyBytes_FromStringAndSize(NULL, body_length);
    if (opened == NULL) {
        return NULL;
    }
    plain = (unsigned char *)PyBytes_AS_STRING(opened);
    for (offset = 0, block = 0; offset < body_length; offset += take, block++) {
        for (k = 0; k < 8; k++) {
            counter[k] = (unsigned char)(block >> (8 * (7 - k)));
        }
        ctx = opener->stream_inner;
        SHA256_Update(&ctx, nonce, NONCE_LENGTH);
        SHA256_Update(&ctx, counter, sizeof counter);
        SHA256_Update(&ctx, opener->stream_suffix, (size_t)opener->stream_suffix_length);
        finish_hmac(&ctx, &opener->stream_outer, digest);
        take = body_length - offset < KEYSTREAM_BLOCK_LENGTH
               ? body_length - offset : KEYSTREAM_BLOCK_LENGTH;
        for (i = 0; i < take; i++) {
            plain[offset + i] = body[offset + i] ^ digest[i];
        }
    }
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

static PyMethodDef native_methods[] = {
    {"swp_select", swp_select, METH_VARARGS,
     "swp_select(items, words, X, hmac_block_key, suffix, check_length) -> list\n\n"
     "The items with a word C whose T = C XOR X passes the SWP check."},
    {"open_payloads", open_payloads, METH_VARARGS,
     "open_payloads(payloads, associated_data, stream_block_key, stream_suffix,\n"
     "              mac_block_key) -> list\n\n"
     "Each payload's plaintext, or None where it is short, forged or not a byte buffer."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef native_module = {
    PyModuleDef_HEAD_INIT, "_native", "The native SWP select and payload-opening kernel.", -1, native_methods,
};

PyMODINIT_FUNC
PyInit__native(void)
{
    return PyModule_Create(&native_module);
}
