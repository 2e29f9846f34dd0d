/*
 * Native SAX front end behind repro.sax._kernel under the fast kernel.
 *
 * Plain C with no Python headers, built and loaded like _sequitur.c: the
 * first import of repro.sax._kernel compiles this file with Python's own C
 * compiler (with -ffp-contract=off, so no a*b+c is fused) into __pycache__/
 * and loads it through ctypes. There is no fallback.
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
 * sax_tokens: one pass per ensemble member. It maps each interval row to
 * its symbol row through one alphabet's column of the symbol matrix, drops
 * every row equal to the row before it (exact numerosity reduction), and
 * gives each kept row a dense id in first-occurrence order: equal rows get
 * equal ids, at any width. Rows are bytes (symbols < 256) in an
 * open-addressing table keyed by a hash of the row, compared in full on a
 * hash match. Only the ids' equality pattern means anything downstream.
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

static uint64_t row_hash(const uint8_t *row, int64_t width) {
    uint64_t hash = 0xcbf29ce484222325u; /* FNV-1a, then a final mix */
    for (int64_t j = 0; j < width; j++) hash = (hash ^ row[j]) * 0x100000001b3u;
    hash ^= hash >> 32;
    return hash * 0x9e3779b97f4a7c15u;
}

/* An open-addressing table of ids, indexed by the top bits of the hash and
 * kept at most half full: it grows with the number of distinct rows, not
 * with the number of windows. */
static int64_t *id_table(int64_t capacity) {
    int64_t *table = malloc((size_t)capacity * sizeof *table);
    if (table) memset(table, 0xff, (size_t)capacity * sizeof *table);
    return table;
}

int64_t sax_tokens(const intptr_t *intervals, int64_t n_rows, int64_t width,
                   const int64_t *column, int64_t n_symbols, int64_t *offsets,
                   int64_t *ids) {
    if (n_rows < 0 || width < 1 || n_symbols < 1) return SAX_RANGE;
    for (int64_t i = 0; i < n_symbols; i++)
        if (column[i] < 0 || column[i] > UINT8_MAX) return SAX_RANGE;
    size_t rows = (size_t)(n_rows > 0 ? n_rows : 1);
    int shift = 64 - 10;
    int64_t mask = ((int64_t)1 << (64 - shift)) - 1;
    uint8_t *symbols = malloc((size_t)n_symbols);
    uint8_t *words = malloc(rows * (size_t)width);
    int64_t *first = malloc(rows * sizeof *first);
    uint64_t *hashes = malloc(rows * sizeof *hashes);
    int64_t *table = id_table(mask + 1);
    int64_t kept = SAX_NOMEM, n_ids = 0;
    if (!symbols || !words || !first || !hashes || !table) goto done;
    for (int64_t i = 0; i < n_symbols; i++) symbols[i] = (uint8_t)column[i];
    kept = 0;
    for (int64_t r = 0; r < n_rows; r++) {
        uint8_t *word = words + kept * width;
        const uint8_t *previous = kept ? word - width : word;
        const intptr_t *row = intervals + r * width;
        unsigned differs = !kept;
        for (int64_t j = 0; j < width; j++) {
            if ((uintptr_t)row[j] >= (uintptr_t)n_symbols) {
                kept = SAX_RANGE;
                goto done;
            }
            word[j] = symbols[row[j]];
            differs |= word[j] ^ previous[j];
        }
        if (!differs) continue;
        uint64_t hash = row_hash(word, width);
        int64_t slot = (int64_t)(hash >> shift), id;
        while ((id = table[slot]) >= 0 &&
               !(hashes[id] == hash &&
                 !memcmp(word, words + first[id] * width, (size_t)width)))
            slot = (slot + 1) & mask;
        if (id < 0) {
            id = n_ids++;
            table[slot] = id;
            first[id] = kept;
            hashes[id] = hash;
            if (2 * n_ids > mask) { /* rehash into twice the buckets */
                free(table);
                shift--;
                mask = 2 * mask + 1;
                if (!(table = id_table(mask + 1))) {
                    kept = SAX_NOMEM;
                    goto done;
                }
                for (int64_t i = 0; i < n_ids; i++) {
                    int64_t at = (int64_t)(hashes[i] >> shift);
                    while (table[at] >= 0) at = (at + 1) & mask;
                    table[at] = i;
                }
            }
        }
        offsets[kept] = r;
        ids[kept] = id;
        kept++;
    }
done:
    free(symbols);
    free(words);
    free(first);
    free(hashes);
    free(table);
    return kept;
}
