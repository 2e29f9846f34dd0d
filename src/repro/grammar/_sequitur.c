/*
 * Native Sequitur arena behind repro.grammar._kernel.FastSequitur.
 *
 * Plain C with no Python headers: the first import of repro.grammar._kernel
 * compiles this file and ../sax/_sax.c with Python's own C compiler into
 * one library in __pycache__/ (the file name carries a hash of both
 * sources, the machine and the compile command) and loads it through
 * ctypes. There is no fallback; a failed build is an ImportError.
 *
 * Symbol arena. Slot i is one symbol: value[i] encodes it, next[i] and
 * prev[i] link it into its rule's circular list. Slots are never recycled.
 *
 *   value >= 0, even  terminal with token id value >> 1
 *   value >= 1, odd   non-terminal naming the rule with serial (value-1) >> 1
 *   value < 0         guard of the rule with serial -value - 1
 *
 * Rules are indexed by serial (0 is R0): rule_guard[s] is the guard slot,
 * rule_count[s] the reference count. Serials are never reused either.
 *
 * Digram table. Open addressing with linear probing and backward-shift
 * deletion, keyed by left << 32 | right (both values < 2^32, so token ids
 * must lie in [0, 2^31)); an owner of -1 marks an empty bucket. Guards
 * never enter the table, and an entry is owned by the slot that starts its
 * digram: the arena analogue of the reference builder's identity check.
 *
 * Tail-only reduction. The builder only appends, so a digram match always
 * starts at the tail of R0 (a new token against R0's last symbol), and a
 * replacement there can only cascade through the non-terminal it just put
 * at the tail. reduce_tail(new, match) runs the reference builder's whole
 * check/match/substitute/cleanup/join/expand chain as one loop under the
 * precondition next[next[new]] == R0's guard, checked on every level. The
 * branches it drops, and why they are dead:
 *
 * - Tail site (anchor, new, second, guard). Both right-hand triple fixes
 *   compare a symbol against R0's guard and never fire; the digram starting
 *   at `second` ends at the guard, so it was never registered; the inserted
 *   non-terminal is followed by the guard, so neither the stale-digram
 *   delete after it nor check(nonterminal) can do anything. Only
 *   check(anchor) remains, and a match there is again a tail match.
 * - Earlier occurrence (new rules only). The cleanup keeps its generic
 *   triple fixes, but check(anchor) and check(nonterminal) can only
 *   register: both keys hold the brand-new rule's serial. The clones'
 *   reference-count increments cancel the cleanup's decrements.
 * - Stale-entry deletes keyed on the anchor's new neighbour. An entry is
 *   deleted before its owner's next link changes, so the anchor can only
 *   own the entry of the digram it starts now, which the cleanup removed.
 * - Post-work. What the reference runs after its recursive call returns
 *   (registering a new rule's body digram, then rule utility) is kept per
 *   level on the pending stack and run innermost first. In a rule-utility
 *   expansion both joins are plain link writes.
 *
 * What remains updates the digram table in the reference's order, which the
 * output grammar depends on. Every entry point returns a status; after
 * SEQ_NOMEM or SEQ_TAIL the arena is left mid-update, so the status sticks
 * and every later call returns it.
 *
 * Curve kernels. The spans the walk yields end in two arena-free kernels at
 * the bottom of this file: seq_density turns them into the rule density
 * curve, seq_median combines the ensemble's normalized member curves.
 *
 * One member, one call. seq_member_curve chains a batch ensemble member's
 * whole pipeline: sax_tokens (from _sax.c, which is compiled into the same
 * library), the arena, seq_spans and seq_density, keeping every check and
 * status of the chained calls. It holds no state between calls, so members
 * may run on as many threads at once as the caller likes.
 *
 * One streaming member, one log. A SeqLog (bottom of the file) holds a
 * streaming member's kept token ids (int32) and window offsets (int64),
 * the carried last symbol row, the live boundary, the prune counter and
 * the member's persistent arena. seq_log_ingest takes one drain block
 * through sax_table_intern into the member's row table and appends the
 * kept tokens; seq_log_forget prunes past the horizon; seq_log_curves
 * runs whole polls (feed or rebuild, spans, density) of one or more logs.
 * A log is touched by one call at a time, so the polls of distinct
 * members may run on distinct threads.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

enum {
    SEQ_OK = 0, SEQ_RANGE = -1, SEQ_NOMEM = -2, SEQ_TAIL = -3, SEQ_SPANS = -4,
    SEQ_INDEX = -5, SEQ_EMPTY = -6, SEQ_SYMBOL = -7, SEQ_NO_TOKENS = -8
};

typedef struct {
    int64_t *value, *next, *prev;      /* arena, slot_cap entries each */
    int64_t *rule_guard, *rule_count;  /* rule_cap entries each */
    uint64_t *keys;                    /* digram table, table_cap buckets */
    int64_t *owners;
    int64_t *pending;  /* 2 * pending_cap: cascade levels, or open span nodes */
    int64_t slots, slot_cap, rules, rule_cap, digrams, table_cap, pending_cap;
    int64_t fed, status;
    int shift;  /* 64 - log2(table_cap) */
} Seq;

#define KEY(left, right) ((uint64_t)(left) << 32 | (uint64_t)(right))
#define IN_RANGE(token) ((token) >= 0 && (token) < (int64_t)1 << 31)

static int fail(Seq *s, int status) { return (int)(s->status = status); }

static int grow(int64_t **array, int64_t count) {
    int64_t *grown = realloc(*array, (size_t)count * sizeof **array);
    if (!grown) return SEQ_NOMEM;
    *array = grown;
    return SEQ_OK;
}

static uint64_t bucket(const Seq *s, uint64_t key) {
    return (key * 0x9E3779B97F4A7C15ULL) >> s->shift;
}

/* The bucket holding `key`, or the empty bucket that ends its probe run. */
static uint64_t find(const Seq *s, uint64_t key) {
    uint64_t mask = (uint64_t)s->table_cap - 1, i = bucket(s, key);
    while (s->owners[i] >= 0 && s->keys[i] != key) i = (i + 1) & mask;
    return i;
}

static int64_t lookup(const Seq *s, uint64_t key) { return s->owners[find(s, key)]; }

static void put(Seq *s, uint64_t key, int64_t owner) {
    uint64_t i = find(s, key);
    s->digrams += s->owners[i] < 0;
    s->keys[i] = key;
    s->owners[i] = owner;
}

/* Delete key's entry if `owner` owns it, shifting its probe run back. */
static void drop(Seq *s, uint64_t key, int64_t owner) {
    uint64_t mask = (uint64_t)s->table_cap - 1, i = find(s, key), j;
    if (s->owners[i] != owner || owner < 0) return;
    for (j = (i + 1) & mask; s->owners[j] >= 0; j = (j + 1) & mask)
        if (((j - bucket(s, s->keys[j])) & mask) >= ((j - i) & mask)) {
            s->keys[i] = s->keys[j];
            s->owners[i] = s->owners[j];
            i = j;
        }
    s->owners[i] = -1;
    s->digrams--;
}

static int rehash(Seq *s, int64_t cap) {
    uint64_t *keys = s->keys;
    int64_t *owners = s->owners, old_cap = s->table_cap;
    s->keys = malloc((size_t)cap * sizeof *s->keys);
    s->owners = malloc((size_t)cap * sizeof *s->owners);
    if (!s->keys || !s->owners) {
        free(s->keys), free(s->owners);
        s->keys = keys, s->owners = owners;
        return SEQ_NOMEM;
    }
    s->table_cap = cap, s->digrams = 0;
    for (s->shift = 64; cap > 1; cap >>= 1) s->shift--;
    for (int64_t i = 0; i < s->table_cap; i++) s->owners[i] = -1;
    for (int64_t i = 0; i < old_cap; i++)
        if (owners[i] >= 0) put(s, keys[i], owners[i]);
    free(keys), free(owners);
    return SEQ_OK;
}

/* Make room for `slots` symbols, `rules` rules, `digrams` table entries and
 * `levels` pending levels before any of them is written. */
static int reserve(Seq *s, int64_t slots, int64_t rules, int64_t digrams, int64_t levels) {
    int64_t cap;
    if (s->slots + slots > s->slot_cap) {
        for (cap = 2 * s->slot_cap; cap < s->slots + slots; cap *= 2) {}
        if (grow(&s->value, cap) || grow(&s->next, cap) || grow(&s->prev, cap))
            return fail(s, SEQ_NOMEM);
        s->slot_cap = cap;
    }
    if (s->rules + rules > s->rule_cap) {
        if (grow(&s->rule_guard, 2 * s->rule_cap) || grow(&s->rule_count, 2 * s->rule_cap))
            return fail(s, SEQ_NOMEM);
        s->rule_cap *= 2;
    }
    if (2 * (s->digrams + digrams) > s->table_cap) {
        for (cap = 2 * s->table_cap; 2 * (s->digrams + digrams) > cap; cap *= 2) {}
        if (rehash(s, cap)) return fail(s, SEQ_NOMEM);
    }
    if (levels > s->pending_cap) {
        if (grow(&s->pending, 4 * s->pending_cap)) return fail(s, SEQ_NOMEM);
        s->pending_cap *= 2;
    }
    return SEQ_OK;
}

static int reduce_tail(Seq *s, int64_t new, int64_t match) {
    int64_t depth = 0, first, serial, *value, *next, *prev, *rule_guard, *rule_count;
    for (;;) {
        /* A level writes at most 5 slots, 1 rule and 8 digram entries, and
         * defers 2 more to the post-work, as every pending level does. */
        if (reserve(s, 5, 1, 10 + 2 * depth, depth + 1)) return (int)s->status;
        value = s->value, next = s->next, prev = s->prev;
        rule_guard = s->rule_guard, rule_count = s->rule_count;
        int64_t tail_guard = rule_guard[0];
        if (next[next[new]] != tail_guard) return fail(s, SEQ_TAIL);
        int64_t anchor = prev[match], second = next[match], after = next[second];
        int64_t av = value[anchor], fv = value[after];
        if (av < 0 && fv < 0) {
            /* The match is the entire body of an existing rule: reuse it. */
            serial = -av - 1;
            first = -1;
        } else {
            /* New rule from clones of the digram, substituted at the earlier
             * occurrence (anchor, match, second, after) first. */
            int64_t guard = s->slots, v1 = value[match], v2 = value[second];
            serial = s->rules++;
            int64_t encoded = serial << 1 | 1;
            first = guard + 1;
            s->slots += 4;
            value[guard] = -serial - 1, next[guard] = first, prev[guard] = first + 1;
            value[first] = v1, next[first] = first + 1, prev[first] = guard;
            value[first + 1] = v2, next[first + 1] = guard, prev[first + 1] = first;
            value[guard + 3] = encoded, next[guard + 3] = after, prev[guard + 3] = anchor;
            rule_guard[serial] = guard, rule_count[serial] = 1;
            /* cleanup(match): joins anchor -> second. */
            if (av >= 0) drop(s, KEY(av, v1), anchor);
            if (v1 == v2 && fv == v2) put(s, KEY(v2, v2), second);
            if (av >= 0 && v1 == av && value[prev[anchor]] == av) put(s, KEY(av, av), prev[anchor]);
            prev[second] = anchor;
            drop(s, KEY(v1, v2), match);
            /* cleanup(second): joins anchor -> after. */
            if (fv >= 0 && v2 == fv && value[next[after]] == fv) put(s, KEY(fv, fv), after);
            if (av >= 0 && v2 == av && value[prev[anchor]] == av) put(s, KEY(av, av), prev[anchor]);
            if (fv >= 0) drop(s, KEY(v2, fv), second);
            /* Inserting N joins the anchor to it while the anchor is still
             * followed by `after`: the left triple fix over
             * (anchor.prev, anchor, after). */
            if (av >= 0 && fv == av && value[prev[anchor]] == av) put(s, KEY(av, av), prev[anchor]);
            next[anchor] = prev[after] = guard + 3;
            if (av >= 0) put(s, KEY(av, encoded), anchor);
            if (fv >= 0) put(s, KEY(encoded, fv), guard + 3);
        }
        /* Tail site: (anchor, new, second, guard) -> (anchor, N, guard). */
        int64_t nonterminal = s->slots++, encoded = serial << 1 | 1;
        int64_t v = value[new], sv = value[next[new]];
        anchor = prev[new], second = next[new], av = value[anchor];
        if (av >= 0) {
            drop(s, KEY(av, v), anchor);
            if (v == av && value[prev[anchor]] == av) put(s, KEY(av, av), prev[anchor]);
        }
        prev[second] = anchor;
        drop(s, KEY(v, sv), new);
        if (v & 1) rule_count[(v - 1) >> 1]--;
        if (av >= 0 && sv == av && value[prev[anchor]] == av) put(s, KEY(av, av), prev[anchor]);
        if (sv & 1) rule_count[(sv - 1) >> 1]--;
        value[nonterminal] = encoded, next[nonterminal] = tail_guard, prev[nonterminal] = anchor;
        rule_count[serial]++;
        next[anchor] = prev[tail_guard] = nonterminal;
        /* check(anchor): register, skip an overlap, or cascade. */
        if (av < 0) break;
        int64_t found = lookup(s, KEY(av, encoded));
        if (found == -1) {
            put(s, KEY(av, encoded), anchor);
            break;
        }
        if (next[found] == anchor) break;
        s->pending[2 * depth] = first, s->pending[2 * depth + 1] = serial;
        depth++;
        new = anchor, match = found;
    }
    for (;;) {
        if (first != -1) put(s, KEY(value[first], value[next[first]]), first);
        /* Rule utility: the replacement may have dropped another rule's
         * reference count to one, in which case it is inlined. */
        int64_t head_slot = next[rule_guard[serial]], head = value[head_slot];
        if (head > 0 && (head & 1) && rule_count[(head - 1) >> 1] == 1) {
            int64_t inner = (head - 1) >> 1, left = prev[head_slot], right = next[head_slot];
            int64_t inner_guard = rule_guard[inner];
            int64_t inner_first = next[inner_guard], inner_last = prev[inner_guard];
            if (value[right] >= 0) drop(s, KEY(head, value[right]), head_slot);
            next[left] = inner_first, prev[inner_first] = left;
            next[inner_last] = right, prev[right] = inner_last;
            put(s, KEY(value[inner_last], value[right]), inner_last);
            rule_count[inner] = 0;
            next[inner_guard] = prev[inner_guard] = inner_guard;
        }
        if (!depth) return SEQ_OK;
        depth--;
        first = s->pending[2 * depth], serial = s->pending[2 * depth + 1];
    }
}

static int feed(Seq *s, int64_t token) {
    if (reserve(s, 1, 0, 1, 0)) return (int)s->status;
    int64_t guard = s->rule_guard[0], last = s->prev[guard], terminal = s->slots++;
    int64_t last_value = s->value[last], found;
    s->value[terminal] = token << 1, s->next[terminal] = guard, s->prev[terminal] = last;
    s->next[last] = s->prev[guard] = terminal;
    s->fed++;
    if (last_value < 0) return SEQ_OK;
    found = lookup(s, KEY(last_value, token << 1));
    if (found == -1) put(s, KEY(last_value, token << 1), last);
    else if (s->next[found] != last) return reduce_tail(s, last, found);
    return SEQ_OK;
}

/* ---- exported entry points (ctypes) ---- */

void seq_free(Seq *s) {
    free(s->value), free(s->next), free(s->prev), free(s->rule_guard);
    free(s->rule_count), free(s->keys), free(s->owners), free(s->pending);
    free(s);
}

/* Empty the arena, keeping every capacity: R0 (serial 0) becomes an empty
 * circular list through its guard. The digram table is a map, so the
 * grammar fed afterwards does not depend on its size. */
static void reset(Seq *s) {
    s->slots = s->rules = 1;
    s->digrams = s->fed = s->status = 0;
    for (int64_t i = 0; i < s->table_cap; i++) s->owners[i] = -1;
    s->value[0] = -1, s->next[0] = s->prev[0] = 0;
    s->rule_guard[0] = s->rule_count[0] = 0;
}

Seq *seq_new(void) {
    Seq *s = calloc(1, sizeof *s);
    if (!s) return NULL;
    s->slot_cap = 64, s->rule_cap = 16, s->pending_cap = 8;
    if (grow(&s->value, 64) || grow(&s->next, 64) || grow(&s->prev, 64)
        || grow(&s->rule_guard, 16) || grow(&s->rule_count, 16)
        || grow(&s->pending, 16) || rehash(s, 64)) {
        seq_free(s);
        return NULL;
    }
    reset(s);
    return s;
}

int seq_feed(Seq *s, int64_t token) {
    if (s->status) return (int)s->status;
    return IN_RANGE(token) ? feed(s, token) : SEQ_RANGE;
}

int seq_feed_many(Seq *s, const int64_t *tokens, int64_t count) {
    if (s->status) return (int)s->status;
    for (int64_t i = 0; i < count; i++)
        if (!IN_RANGE(tokens[i])) return SEQ_RANGE;
    for (int64_t i = 0; i < count; i++)
        if (feed(s, tokens[i])) return (int)s->status;
    return SEQ_OK;
}

int64_t seq_n_tokens(const Seq *s) { return s->fed; }

/* Token spans (first, last) of every rule occurrence but R0, in pre-order:
 * a node's first token is known on entry, its last when the walk returns
 * from the rule's guard. Returns the node count, or a negative status. */
int64_t seq_spans(Seq *s, int64_t *firsts, int64_t *lasts, int64_t cap) {
    int64_t nodes = 0, depth = 0, position = 0, symbol, v;
    if (s->status) return s->status;
    for (symbol = s->next[s->rule_guard[0]];;) {
        if ((v = s->value[symbol]) < 0) {
            if (!depth) return nodes;
            depth--;
            lasts[s->pending[2 * depth + 1]] = position - 1;
            symbol = s->pending[2 * depth];
        } else if (v & 1) {
            if (nodes == cap) return SEQ_SPANS;
            if (reserve(s, 0, 0, 0, depth + 1)) return s->status;
            s->pending[2 * depth] = s->next[symbol], s->pending[2 * depth + 1] = nodes;
            depth++;
            firsts[nodes] = lasts[nodes] = position;
            nodes++;
            symbol = s->next[s->rule_guard[(v - 1) >> 1]];
        } else {
            position++;
            symbol = s->next[symbol];
        }
    }
}

/* Everything in one call: sizes = {slots, slot_cap, rules, rule_cap,
 * table_cap, pending_cap, fed, status}; arrays = {value, next, prev,
 * rule_guard, rule_count, keys, owners}. The arrays stay owned by `s`. */
void seq_export(const Seq *s, int64_t *sizes, const int64_t **arrays) {
    sizes[0] = s->slots, sizes[1] = s->slot_cap, sizes[2] = s->rules, sizes[3] = s->rule_cap;
    sizes[4] = s->table_cap, sizes[5] = s->pending_cap, sizes[6] = s->fed, sizes[7] = s->status;
    arrays[0] = s->value, arrays[1] = s->next, arrays[2] = s->prev, arrays[3] = s->rule_guard;
    arrays[4] = s->rule_count, arrays[5] = (const int64_t *)s->keys, arrays[6] = s->owners;
}

/* ---- curve kernels (no arena) ---- */

/* Rule density curve of `length` >= 1 points from token spans: span i
 * covers points offsets[firsts[i]] - horizon_start through
 * offsets[lasts[i]] + window - 1 - horizon_start, clipped to the curve.
 * Integer arithmetic wraps like numpy's int64. Every span index is checked
 * (negative ones included) before an empty interval is reported, as numpy
 * indexing raises before the emptiness check. The +1/-1 differences and
 * their prefix sum are integers far below 2^53, so the doubles are exact. */
int seq_density(const int64_t *offsets, int64_t n_offsets, int64_t window,
                const int64_t *firsts, const int64_t *lasts, int64_t spans,
                int64_t horizon_start, int64_t length, double *curve) {
    uint64_t bound = (uint64_t)n_offsets, reach = (uint64_t)window - 1;
    uint64_t origin = (uint64_t)horizon_start;
    int empty = 0;
    memset(curve, 0, (size_t)length * sizeof *curve);
    for (int64_t i = 0; i < spans; i++) {
        if ((uint64_t)firsts[i] >= bound || (uint64_t)lasts[i] >= bound) return SEQ_INDEX;
        int64_t start = (int64_t)((uint64_t)offsets[firsts[i]] - origin);
        int64_t end = (int64_t)((uint64_t)offsets[lasts[i]] + reach - origin);
        if (end < start) empty = 1;
        if (empty || start >= length || end < 0) continue;
        curve[start > 0 ? start : 0] += 1.0;
        if (end < length - 1) curve[end + 1] -= 1.0;
    }
    if (empty) return SEQ_EMPTY;
    double running = 0.0;
    for (int64_t t = 0; t < length; t++) curve[t] = running += curve[t];
    return SEQ_OK;
}

/* Point-wise median of k >= 1 rows of n doubles, as np.median computes it:
 * the mean of the middle value (odd k) or pair (even k), summed from +0.0
 * as numpy's mean is, so a -0.0 median comes out +0.0; and a NaN wherever a
 * column holds one. Each column is insertion-sorted starting from the
 * previous column's order, which density curves (piecewise constant) mostly
 * keep, so a point costs about k steps. */
int seq_median(const double *const *rows, int64_t k, int64_t n, double *out) {
    int64_t *order = malloc((size_t)k * sizeof *order);
    double *sorted = malloc((size_t)k * sizeof *sorted);
    int64_t lower = (k - 1) / 2, upper = k / 2;
    if (!order || !sorted) {
        free(order), free(sorted);
        return SEQ_NOMEM;
    }
    for (int64_t i = 0; i < k; i++) order[i] = i;
    for (int64_t t = 0; t < n; t++) {
        double nan = 0.0;
        int any_nan = 0;
        for (int64_t i = 0; i < k; i++) {
            double v = rows[order[i]][t];
            if (v != v) any_nan = 1, nan = v;
            sorted[i] = v;
        }
        if (any_nan) {
            out[t] = nan;
            continue;
        }
        for (int64_t i = 1; i < k; i++) {
            double v = sorted[i];
            int64_t row = order[i], j = i;
            for (; j > 0 && sorted[j - 1] > v; j--) {
                sorted[j] = sorted[j - 1];
                order[j] = order[j - 1];
            }
            sorted[j] = v, order[j] = row;
        }
        out[t] = lower == upper ? 0.0 + sorted[lower] : (0.0 + sorted[lower] + sorted[upper]) / 2;
    }
    free(order), free(sorted);
    return SEQ_OK;
}

/* ---- one batch member, end to end ---- */

/* _sax.c: symbol lookup, exact numerosity reduction and first-occurrence
 * ids of one interval matrix; the kept count, or -1 (a value outside the
 * column or the letters) or -2 (no memory). */
int64_t sax_tokens(const intptr_t *intervals, int64_t n_rows, int64_t width,
                   const int64_t *column, int64_t n_symbols, int64_t *offsets,
                   int64_t *ids);

static int64_t clock_ns(void) {
    struct timespec now;
    clock_gettime(CLOCK_MONOTONIC, &now);
    return (int64_t)now.tv_sec * 1000000000 + now.tv_nsec;
}

/* Charge the time since *mark to *phase and move the mark. */
static void lap(int64_t *mark, int64_t *phase) {
    int64_t now = clock_ns();
    *phase = now - *mark;
    *mark = now;
}

/* The rule density curve (`length` doubles) of one batch member from its
 * interval matrix (n_rows x width, row r the window starting at r) and its
 * alphabet column: sax_tokens -> seq_feed_many -> seq_spans -> seq_density,
 * as the chained calls run them. A row or column value out of range is
 * SEQ_SYMBOL, no kept token SEQ_NO_TOKENS; every other status is the one
 * the failing stage returns. phase_ns receives the nanoseconds spent
 * tokenizing, feeding, walking the spans and accumulating the density (0
 * for a phase that did not run). */
int seq_member_curve(const intptr_t *intervals, int64_t n_rows, int64_t width,
                     const int64_t *column, int64_t n_symbols, int64_t window,
                     int64_t length, double *curve, int64_t *phase_ns) {
    int64_t rows = n_rows > 0 ? n_rows : 1, mark = clock_ns(), kept, nodes;
    int64_t *offsets = malloc(4 * (size_t)rows * sizeof *offsets), *ids, *firsts, *lasts;
    Seq *s = NULL;
    int status = SEQ_OK;
    memset(phase_ns, 0, 4 * sizeof *phase_ns);
    if (!offsets) return SEQ_NOMEM;
    ids = offsets + rows, firsts = ids + rows, lasts = firsts + rows;
    kept = sax_tokens(intervals, n_rows, width, column, n_symbols, offsets, ids);
    lap(&mark, &phase_ns[0]);
    if (kept < 0) {
        status = kept == -1 ? SEQ_SYMBOL : SEQ_NOMEM;
        goto done;
    }
    if (!kept) {
        status = SEQ_NO_TOKENS;
        goto done;
    }
    if (!(s = seq_new())) {
        status = SEQ_NOMEM;
        goto done;
    }
    status = seq_feed_many(s, ids, kept);
    lap(&mark, &phase_ns[1]);
    if (status) goto done;
    nodes = seq_spans(s, firsts, lasts, kept);
    lap(&mark, &phase_ns[2]);
    if (nodes < 0) {
        status = (int)nodes;
        goto done;
    }
    status = seq_density(offsets, kept, window, firsts, lasts, nodes, 0, length, curve);
    lap(&mark, &phase_ns[3]);
done:
    if (s) seq_free(s);
    free(offsets);
    return status;
}

/* ---- one streaming member's token log ---- */

/* _sax.c: symbol lookup, numerosity reduction against a carried row and
 * interning of one block of rows into a persistent row table; the kept
 * count, or -1 (a value outside the column or the letters) or -2 (no
 * memory). */
int64_t sax_table_intern(void *table, const intptr_t *rows, int64_t n_rows, int64_t width,
                         const int64_t *column, int64_t n_symbols, const intptr_t *carry,
                         int64_t reduce, int64_t *offsets, int64_t *ids);

/* A streaming member's kept tokens, oldest first: ids[i] was kept from the
 * window starting at offsets[i] (ascending). Tokens before `live` slid out
 * of the horizon; they are dropped physically once they outweigh the live
 * ones. `carry` is the symbol row of the last window ingested, which the
 * next block's numerosity reduction compares its first row against. `seq`
 * is Sequitur over exactly the live ids as of the last poll, built when
 * the prune counter read `anchor`: while no token is pruned the live ids
 * only grow at the right end, where Sequitur is incremental, so a poll
 * feeds the new suffix; once one is pruned, the poll rebuilds it. */
typedef struct {
    int32_t *ids;
    int64_t *offsets;
    intptr_t *carry;     /* width symbols, valid when has_carry */
    int64_t count, cap;  /* stored tokens and their capacity */
    int64_t live;        /* index of the first live token */
    int64_t kept, pruned; /* tokens ever kept and ever pruned */
    int64_t width, has_carry, anchor;
    Seq *seq;
} SeqLog;

void seq_log_free(SeqLog *log) {
    if (!log) return;
    if (log->seq) seq_free(log->seq);
    free(log->ids), free(log->offsets), free(log->carry), free(log);
}

SeqLog *seq_log_new(int64_t width) {
    SeqLog *log = width >= 1 ? calloc(1, sizeof *log) : NULL;
    if (!log) return NULL;
    log->width = width;
    if (!(log->carry = malloc((size_t)width * sizeof *log->carry))) {
        free(log);
        return NULL;
    }
    return log;
}

/* Room for `more` tokens after the stored ones. */
static int log_reserve(SeqLog *log, int64_t more) {
    int64_t cap = log->cap ? log->cap : 64;
    if (log->count + more <= log->cap) return SEQ_OK;
    while (cap < log->count + more) cap *= 2;
    int32_t *ids = realloc(log->ids, (size_t)cap * sizeof *ids);
    if (!ids) return SEQ_NOMEM;
    log->ids = ids;
    int64_t *offsets = realloc(log->offsets, (size_t)cap * sizeof *offsets);
    if (!offsets) return SEQ_NOMEM;
    log->offsets = offsets, log->cap = cap;
    return SEQ_OK;
}

/* One drain block: intervals is n_rows x width (row r the window starting
 * at first + r), column the member's alphabet column. Looks the symbols
 * up, drops each row equal to the one before it when `reduce` (the row
 * before the block is the carried one), interns the kept rows into `table`
 * and appends their ids and offsets. Returns the kept count, SEQ_SYMBOL
 * for a value outside the column (nothing is appended, and the table
 * forgets the words the call added) or SEQ_NOMEM. */
int64_t seq_log_ingest(SeqLog *log, void *table, const intptr_t *intervals, int64_t n_rows,
                       const int64_t *column, int64_t n_symbols, int64_t reduce, int64_t first) {
    int64_t width = log->width, kept, *ids, *offsets;
    if (n_rows <= 0) return 0;
    if (log_reserve(log, n_rows) || !(ids = malloc((size_t)n_rows * sizeof *ids)))
        return SEQ_NOMEM;
    offsets = log->offsets + log->count;
    kept = sax_table_intern(table, intervals, n_rows, width, column, n_symbols,
                            reduce && log->has_carry ? log->carry : NULL, reduce, offsets, ids);
    if (kept < 0) {
        free(ids);
        return kept == -1 ? SEQ_SYMBOL : SEQ_NOMEM;
    }
    for (int64_t i = 0; i < kept; i++) {
        offsets[i] += first;
        log->ids[log->count + i] = (int32_t)ids[i];
    }
    free(ids);
    log->count += kept, log->kept += kept;
    if (reduce) {
        const intptr_t *last = intervals + (n_rows - 1) * width;
        for (int64_t j = 0; j < width; j++) log->carry[j] = (intptr_t)column[last[j]];
        log->has_carry = 1;
    }
    return kept;
}

/* Prune the tokens whose window starts before `start`; returns how many.
 * The dead prefix is dropped once it holds more than `slack` tokens and
 * outweighs the live part, which only a call that pruned can find true. */
int64_t seq_log_forget(SeqLog *log, int64_t start, int64_t slack) {
    int64_t low = log->live, high = log->count, pruned;
    while (low < high) {
        int64_t middle = low + (high - low) / 2;
        if (log->offsets[middle] < start) low = middle + 1;
        else high = middle;
    }
    pruned = low - log->live;
    log->pruned += pruned, log->live = low;
    if (log->live > slack && 2 * log->live > log->count) {
        log->count -= log->live;
        memmove(log->ids, log->ids + log->live, (size_t)log->count * sizeof *log->ids);
        memmove(log->offsets, log->offsets + log->live, (size_t)log->count * sizeof *log->offsets);
        log->live = 0;
    }
    return pruned;
}

/* The rule density curve (`length` doubles from horizon_start) over the
 * live tokens: bring `seq` up to exactly the live ids (feed the suffix, or
 * rebuild it after a prune), walk its spans and accumulate the density.
 * No live token is an all-zero curve. phase_ns receives the nanoseconds
 * spent feeding, walking the spans and accumulating the density. */
static int log_curve(SeqLog *log, int64_t window, int64_t horizon_start, int64_t length,
                     double *curve, int64_t *phase_ns) {
    int64_t n = log->count - log->live, mark = clock_ns(), nodes, *firsts;
    const int32_t *ids = log->ids + log->live;
    Seq *s = log->seq;
    int status;
    memset(phase_ns, 0, 3 * sizeof *phase_ns);
    if (!n) {
        memset(curve, 0, (size_t)length * sizeof *curve);
        return SEQ_OK;
    }
    if (!s || log->anchor != log->pruned || s->fed > n) {
        if (!s && !(s = log->seq = seq_new())) return SEQ_NOMEM;
        reset(s);
        log->anchor = log->pruned;
    }
    if (s->status) return (int)s->status;
    for (int64_t i = s->fed; i < n; i++)
        if (feed(s, ids[i])) return (int)s->status;
    lap(&mark, &phase_ns[0]);
    if (!(firsts = malloc(2 * (size_t)n * sizeof *firsts))) return SEQ_NOMEM;
    nodes = seq_spans(s, firsts, firsts + n, n);
    lap(&mark, &phase_ns[1]);
    status = nodes < 0 ? (int)nodes
                       : seq_density(log->offsets + log->live, n, window, firsts, firsts + n,
                                     nodes, horizon_start, length, curve);
    lap(&mark, &phase_ns[2]);
    free(firsts);
    return status;
}

/* The polls of n logs over one horizon: curves[i] and phase_ns[3 i .. 3 i + 2]
 * are log i's (see log_curve). Returns the status of the first log that
 * fails, leaving the later ones unpolled, or SEQ_OK. One call for every
 * log of an ensemble means one GIL release per poll, not one per member. */
int seq_log_curves(SeqLog *const *logs, int64_t n, int64_t window, int64_t horizon_start,
                   int64_t length, double *const *curves, int64_t *phase_ns) {
    for (int64_t i = 0; i < n; i++) {
        int status = log_curve(logs[i], window, horizon_start, length, curves[i], phase_ns + 3 * i);
        if (status) return status;
    }
    return SEQ_OK;
}

/* Replace the stored tokens with n live ones (a restored snapshot), after
 * `pruned` tokens slid out; carry may be NULL. Ids must lie in [0, 2^31).
 * The builder is rebuilt at the next poll. */
int seq_log_load(SeqLog *log, const int64_t *ids, const int64_t *offsets, int64_t n,
                 const intptr_t *carry, int64_t pruned) {
    int64_t count = log->count;
    for (int64_t i = 0; i < n; i++)
        if (!IN_RANGE(ids[i])) return SEQ_RANGE;
    log->count = 0;
    if (log_reserve(log, n)) {
        log->count = count;
        return SEQ_NOMEM;
    }
    for (int64_t i = 0; i < n; i++) log->ids[i] = (int32_t)ids[i];
    if (n) memcpy(log->offsets, offsets, (size_t)n * sizeof *offsets);
    log->count = n, log->live = 0, log->pruned = pruned, log->kept = pruned + n;
    log->has_carry = carry != NULL;
    if (carry) memcpy(log->carry, carry, (size_t)log->width * sizeof *carry);
    log->anchor = -1;
    return SEQ_OK;
}

int64_t seq_log_live(const SeqLog *log) { return log->count - log->live; }

/* Copy the newest n live tokens (n at most seq_log_live) into ids and
 * offsets, oldest first. */
void seq_log_copy(const SeqLog *log, int64_t n, int64_t *ids, int64_t *offsets) {
    int64_t first = log->count - n;
    for (int64_t i = 0; i < n; i++) ids[i] = log->ids[first + i];
    if (n) memcpy(offsets, log->offsets + first, (size_t)n * sizeof *offsets);
}

/* sizes = {count, cap, live, kept, pruned, width, has_carry, and the
 * builder's slot_cap, rule_cap, table_cap, pending_cap (0 without one)};
 * carry receives the carried row when there is one. */
void seq_log_export(const SeqLog *log, int64_t *sizes, int64_t *carry) {
    const Seq *s = log->seq;
    sizes[0] = log->count, sizes[1] = log->cap, sizes[2] = log->live, sizes[3] = log->kept;
    sizes[4] = log->pruned, sizes[5] = log->width, sizes[6] = log->has_carry;
    sizes[7] = s ? s->slot_cap : 0, sizes[8] = s ? s->rule_cap : 0;
    sizes[9] = s ? s->table_cap : 0, sizes[10] = s ? s->pending_cap : 0;
    for (int64_t j = 0; log->has_carry && j < log->width; j++) carry[j] = log->carry[j];
}
