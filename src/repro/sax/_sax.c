/*
 * Native SAX front end behind repro.sax._kernel under the fast kernel.
 *
 * Plain C with no Python headers, compiled together with
 * ../grammar/_sequitur.c into the package's one native library: the first
 * import of repro.grammar._kernel builds both files with Python's own C
 * compiler (with -ffp-contract=off, so no a*b+c is fused) into
 * ../grammar/__pycache__/ and loads the library through ctypes. There is
 * no fallback. sax_tokens is also the first stage of _sequitur.c's
 * seq_member_curve.
 *
 * sax_intervals: one pass per sweep and PAA size. Row r is the window that
 * starts at global index start + r. The pass repeats, operation for
 * operation, repro.sax.paa.sliding_paa_rows followed by
 * np.searchsorted(breaks, rows, side="right"):
 *
 *   relative[k] = k * (window / paa_size)
 *   position    = (double)(start + r) + relative[k]
 *   cumulative  = prefix[floor(position) - origin]
 *                 + (position - floor(position)) * values[min(..., n_values - 1)]
 *   coefficient = (cumulative[k + 1] - cumulative[k]) / (window / paa_size)
 *   row[k]      = constant[r] ? 0.0 : (coefficient - means[r]) / stds[r]
 *   interval    = number of breaks b with !(row[k] < b)
 *
 * so the float rows and the interval matrix are bitwise those of the numpy
 * reference, for integer and fractional segment widths alike. The window
 * statistics (means, safe stds, constancy mask) come in from
 * repro.sax._kernel.window_stats, computed once per sweep. Positions are
 * never negative (0 <= origin <= start), so truncation is floor. Either
 * output may be NULL.
 *
 * The row table (SaxTable): the distinct words seen so far, each with a
 * dense id in first-seen order. Words are stored once, as ASCII letters
 * (symbol s is 'a' + s), back to back in one byte arena; ends[id] is where
 * word id ends. An open-addressing table of int32 ids, indexed by the top
 * bits of a 32-bit hash of the word and kept at most half full, finds a
 * word by hash, length and a full byte compare, so words of any width (and
 * of mixed widths) share one table. Nothing is ever removed, so an id never
 * changes. Entry points:
 *
 *   sax_table_new/free/size/export  the handle, its id count, and its
 *                                   capacities plus the arena for readers
 *   sax_table_intern                one block of symbol rows: optional
 *                                   lookup through an alphabet column,
 *                                   exact numerosity reduction (a row equal
 *                                   to the row before it is dropped; the
 *                                   row before the block is passed in as
 *                                   `carry`), and the id of every kept row
 *   sax_table_insert                words given as bytes in id order (a
 *                                   saved vocabulary); stops at the first
 *                                   repeated word and returns its index
 *   sax_tokens                      one batch member: a fresh table, one
 *                                   sax_table_intern call, free
 *
 * A row (or column) value out of range makes sax_table_intern forget the
 * ids the call added, so the table holds the words it held before. An
 * allocation failure adds no half-made id either: every id in the table
 * stays findable.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { SAX_OK = 0, SAX_RANGE = -1, SAX_NOMEM = -2 };

/* The number of breaks b with !(z < b): np.searchsorted(side="right"),
 * including its NaN rule (a NaN lands past every break). Branch-free. */
static intptr_t upper_bound(const double *breaks, int64_t n_breaks, double z) {
    const double *base = breaks;
    int64_t n = n_breaks;
    if (n == 0) return 0;
    while (n > 1) {
        int64_t half = n / 2;
        base = !(z < base[half]) ? base + half : base;
        n -= half;
    }
    return (intptr_t)(base - breaks) + !(z < *base);
}

int sax_intervals(const double *prefix, int64_t n_prefix, const double *values,
                  int64_t n_values, int64_t start, int64_t stop, int64_t origin,
                  int64_t window, int64_t paa_size, const double *means,
                  const double *stds, const uint8_t *constant, const double *breaks,
                  int64_t n_breaks, double *rows, intptr_t *intervals) {
    if (origin < 0 || start < origin || stop < start || window < 1 || paa_size < 1 ||
        n_values < 1)
        return SAX_RANGE;
    double step = (double)window / (double)paa_size;
    double *relative = malloc(2 * (size_t)(paa_size + 1) * sizeof *relative);
    if (!relative) return SAX_NOMEM;
    double *cumulative = relative + paa_size + 1;
    for (int64_t k = 0; k <= paa_size; k++) relative[k] = (double)k * step;
    int status = SAX_OK;
    for (int64_t r = 0; r < stop - start; r++) {
        double first = (double)(start + r);
        for (int64_t k = 0; k <= paa_size; k++) {
            double position = first + relative[k];
            int64_t whole = (int64_t)position;
            int64_t local = whole - origin;
            if (local >= n_prefix) {
                status = SAX_RANGE;
                goto done;
            }
            int64_t at = local < n_values - 1 ? local : n_values - 1;
            cumulative[k] = prefix[local] + (position - (double)whole) * values[at];
        }
        int64_t offset = r * paa_size;
        for (int64_t k = 0; k < paa_size; k++) {
            double coefficient = (cumulative[k + 1] - cumulative[k]) / step;
            double z = constant[r] ? 0.0 : (coefficient - means[r]) / stds[r];
            if (rows) rows[offset + k] = z;
            if (intervals) intervals[offset + k] = upper_bound(breaks, n_breaks, z);
        }
    }
done:
    free(relative);
    return status;
}

/* Symbols are the letters 'a' to 'z': symbol s is stored as 'a' + s. */
enum { SAX_LETTERS = 26 };

typedef struct {
    uint8_t *bytes;    /* word arena: word id is bytes[ends[id - 1], ends[id]) */
    int64_t *ends;     /* id_cap entries */
    uint32_t *hashes;  /* id_cap entries */
    int32_t *buckets;  /* bucket_cap entries of ids, -1 = empty */
    int64_t n_bytes, byte_cap, n_ids, id_cap, bucket_cap;
    int bits;          /* log2(bucket_cap) */
} SaxTable;

SaxTable *sax_table_new(void) { return calloc(1, sizeof(SaxTable)); }

void sax_table_free(SaxTable *t) {
    if (!t) return;
    free(t->bytes);
    free(t->ends);
    free(t->hashes);
    free(t->buckets);
    free(t);
}

int64_t sax_table_size(const SaxTable *t) { return t->n_ids; }

/* sizes: n_ids, id_cap, n_bytes, byte_cap, bucket_cap; arrays: bytes, ends. */
void sax_table_export(const SaxTable *t, int64_t *sizes, const void **arrays) {
    sizes[0] = t->n_ids, sizes[1] = t->id_cap, sizes[2] = t->n_bytes;
    sizes[3] = t->byte_cap, sizes[4] = t->bucket_cap;
    arrays[0] = t->bytes, arrays[1] = t->ends;
}

static uint32_t word_hash(const uint8_t *word, int64_t length) {
    uint64_t hash = 0xcbf29ce484222325u; /* FNV-1a, then a final mix */
    for (int64_t j = 0; j < length; j++) hash = (hash ^ word[j]) * 0x100000001b3u;
    hash ^= hash >> 32;
    return (uint32_t)((hash * 0x9e3779b97f4a7c15u) >> 32);
}

static int64_t word_start(const SaxTable *t, int64_t id) { return id ? t->ends[id - 1] : 0; }

/* Room for `need` more bytes at the arena's tail. */
static int reserve_bytes(SaxTable *t, int64_t need) {
    if (t->bytes && t->n_bytes + need <= t->byte_cap) return SAX_OK;
    int64_t cap = t->byte_cap ? t->byte_cap : 256;
    while (cap < t->n_bytes + need) cap *= 2;
    uint8_t *grown = realloc(t->bytes, (size_t)cap);
    if (!grown) return SAX_NOMEM;
    t->bytes = grown, t->byte_cap = cap;
    return SAX_OK;
}

/* Room for one more id; ids stay below 2^30 so buckets fit int32. */
static int reserve_id(SaxTable *t) {
    if (t->n_ids < t->id_cap) return SAX_OK;
    if (t->id_cap >= (int64_t)1 << 30) return SAX_NOMEM;
    int64_t cap = t->id_cap ? 2 * t->id_cap : 64;
    int64_t *ends = realloc(t->ends, (size_t)cap * sizeof *ends);
    if (!ends) return SAX_NOMEM;
    t->ends = ends;
    uint32_t *hashes = realloc(t->hashes, (size_t)cap * sizeof *hashes);
    if (!hashes) return SAX_NOMEM;
    t->hashes = hashes, t->id_cap = cap;
    return SAX_OK;
}

/* Put ids 0 .. n_ids - 1 into emptied buckets, from their stored hashes. */
static void fill_buckets(SaxTable *t) {
    int64_t mask = t->bucket_cap - 1;
    memset(t->buckets, 0xff, (size_t)t->bucket_cap * sizeof *t->buckets);
    for (int64_t id = 0; id < t->n_ids; id++) {
        int64_t slot = t->hashes[id] >> (32 - t->bits);
        while (t->buckets[slot] >= 0) slot = (slot + 1) & mask;
        t->buckets[slot] = (int32_t)id;
    }
}

/* Rebuild the buckets at 2^bits entries. */
static int rehash(SaxTable *t, int bits) {
    int32_t *buckets = malloc(((size_t)1 << bits) * sizeof *buckets);
    if (!buckets) return SAX_NOMEM;
    free(t->buckets);
    t->buckets = buckets, t->bucket_cap = (int64_t)1 << bits, t->bits = bits;
    fill_buckets(t);
    return SAX_OK;
}

/* The id of the `length`-byte word written (not yet committed) at the
 * arena's tail; a new word is committed there and gets the next id. The
 * buckets stay at most half full, and a failed allocation adds nothing. */
static int64_t tail_id(SaxTable *t, int64_t length) {
    if (!t->bucket_cap && rehash(t, 10)) return SAX_NOMEM;
    const uint8_t *word = t->bytes + t->n_bytes;
    uint32_t hash = word_hash(word, length);
    int64_t mask = t->bucket_cap - 1, slot = hash >> (32 - t->bits), id;
    while ((id = t->buckets[slot]) >= 0) {
        if (t->hashes[id] == hash) {
            int64_t start = word_start(t, id);
            if (t->ends[id] - start == length && !memcmp(word, t->bytes + start, (size_t)length))
                return id;
        }
        slot = (slot + 1) & mask;
    }
    if (reserve_id(t)) return SAX_NOMEM;
    if (2 * (t->n_ids + 1) > t->bucket_cap) {
        if (rehash(t, t->bits + 1)) return SAX_NOMEM;
        mask = t->bucket_cap - 1;
        for (slot = hash >> (32 - t->bits); t->buckets[slot] >= 0; slot = (slot + 1) & mask) {
        }
    }
    id = t->n_ids++;
    t->n_bytes += length;
    t->ends[id] = t->n_bytes;
    t->hashes[id] = hash;
    t->buckets[slot] = (int32_t)id;
    return id;
}

/* Forget every id from `n_ids` on (a no-op when none was added). */
static void truncate_ids(SaxTable *t, int64_t n_ids) {
    if (t->n_ids == n_ids) return;
    t->n_ids = n_ids;
    t->n_bytes = word_start(t, n_ids);
    fill_buckets(t);
}

int64_t sax_table_intern(SaxTable *t, const intptr_t *rows, int64_t n_rows, int64_t width,
                         const int64_t *column, int64_t n_symbols, const intptr_t *carry,
                         int64_t reduce, int64_t *offsets, int64_t *ids) {
    if (n_rows < 0 || width < 1 || (column && n_symbols < 1)) return SAX_RANGE;
    int64_t limit = column ? n_symbols : SAX_LETTERS;
    for (int64_t i = 0; column && i < n_symbols; i++)
        if (column[i] < 0 || column[i] >= SAX_LETTERS) return SAX_RANGE;
    /* letters[v]: the letter of row value v; then the carried row's word
     * (0, which equals no letter, where there is no carried symbol). */
    uint8_t *letters = malloc((size_t)(limit + width));
    if (!letters) return SAX_NOMEM;
    uint8_t *carried = letters + limit;
    for (int64_t i = 0; i < limit; i++) letters[i] = (uint8_t)('a' + (column ? column[i] : i));
    for (int64_t j = 0; j < width; j++)
        carried[j] = carry && carry[j] >= 0 && carry[j] < SAX_LETTERS ? (uint8_t)('a' + carry[j]) : 0;
    /* Each row is written at the arena's tail, which always has room for
     * one more word; `previous` is the arena offset of the last kept word. */
    int64_t kept = 0, before = t->n_ids, previous = -1;
    if (reserve_bytes(t, width)) {
        free(letters);
        return SAX_NOMEM;
    }
    for (int64_t r = 0; r < n_rows; r++) {
        uint8_t *word = t->bytes + t->n_bytes;
        const uint8_t *last = previous >= 0 ? t->bytes + previous : carried;
        const intptr_t *row = rows + r * width;
        unsigned differs = !reduce || (previous < 0 && !carry);
        for (int64_t j = 0; j < width; j++) {
            if ((uintptr_t)row[j] >= (uintptr_t)limit) {
                truncate_ids(t, before);
                kept = SAX_RANGE;
                goto done;
            }
            word[j] = letters[row[j]];
            differs |= word[j] ^ last[j];
        }
        if (!differs) continue;
        int64_t id = tail_id(t, width);
        if (id < 0 || reserve_bytes(t, width)) {
            kept = SAX_NOMEM;
            break;
        }
        offsets[kept] = r;
        ids[kept++] = id;
        previous = word_start(t, id);
    }
done:
    free(letters);
    return kept;
}

int64_t sax_table_insert(SaxTable *t, const uint8_t *words, const int64_t *ends, int64_t n) {
    int64_t start = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t length = ends[i] - start;
        if (length < 0) return SAX_RANGE;
        if (reserve_bytes(t, length)) return SAX_NOMEM;
        memcpy(t->bytes + t->n_bytes, words + start, (size_t)length);
        int64_t before = t->n_ids, id = tail_id(t, length);
        if (id < 0) return id;
        if (t->n_ids == before) return i; /* word i repeats an earlier one */
        start = ends[i];
    }
    return n;
}

int64_t sax_tokens(const intptr_t *intervals, int64_t n_rows, int64_t width,
                   const int64_t *column, int64_t n_symbols, int64_t *offsets,
                   int64_t *ids) {
    SaxTable *table = sax_table_new();
    if (!table) return SAX_NOMEM;
    int64_t kept =
        sax_table_intern(table, intervals, n_rows, width, column, n_symbols, NULL, 1, offsets, ids);
    sax_table_free(table);
    return kept;
}
