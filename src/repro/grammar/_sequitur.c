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
 * curve, seq_median combines the ensemble's member curves, dividing each
 * by its peak on the way when given the peaks (normalize and median in one
 * pass).
 *
 * One member, one call. seq_member_curve chains a batch member's whole
 * pipeline: sax_tokens (from _sax.c, which is compiled into the same
 * library), the arena, seq_spans and seq_density, keeping every check and
 * status of the chained calls. It is every batch density curve of the
 * package: ensemble members and the single-run detector alike, under
 * either numerosity strategy (exact or none, the `reduce` flag), and of
 * GI-Select's grid, which ranks cells by its kept token count and grammar
 * size. The call runs on a caller-owned workspace (SeqSpace): an arena, a
 * row table and scratch buffers that stay allocated between calls and are
 * emptied at the start of each, so a member does not pay to grow them
 * from nothing. The caller keeps one workspace per thread (repro's
 * member_curve does, and frees it when the thread ends); no two calls may
 * share one at once. A workspace that holds more than seq_space_keep
 * bytes after a call gives all of it back, which bounds both what it
 * retains and what emptying it costs the next call.
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
 *
 * Decay generations. A log made with a generation size g > 0 (the decay
 * policy) also routes every kept token, inside seq_log_ingest, to the
 * generation offset / g. Generations are a Gen array, oldest first: the
 * last one is open and owns the log's arena, which is fed at ingest (not
 * at poll); the first token of a later generation seals it. Sealing walks
 * the arena's spans once and keeps them (token indices within the
 * generation) with the token count, the number of live rules and the sum
 * of their reference counts (rule_count), then empties the arena for the
 * next generation, keeping its capacities. seq_log_forget drops every
 * sealed generation that ends at or before the horizon (which the decay
 * policy keeps a multiple of g) into the retired_* counters. A poll walks
 * the open generation's spans only, checks that each generation's token
 * count equals the live tokens in its offset range (SEQ_GENERATIONS
 * otherwise) and adds every generation's +1/-1 marks into one curve with
 * one prefix sum: the sum of per-generation density curves, which are
 * integers, so it equals adding those curves one by one bit for bit.
 * seq_log_load re-routes the loaded tokens the same way.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

enum {
    SEQ_OK = 0, SEQ_RANGE = -1, SEQ_NOMEM = -2, SEQ_TAIL = -3, SEQ_SPANS = -4,
    SEQ_INDEX = -5, SEQ_EMPTY = -6, SEQ_SYMBOL = -7, SEQ_NO_TOKENS = -8,
    SEQ_GENERATIONS = -9, SEQ_ORDER = -10, SEQ_NEGATIVE = -11
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

/* The +1/-1 marks of a rule density curve of `length` >= 1 points, added
 * into `curve`: span i covers points offsets[firsts[i]] - horizon_start
 * through offsets[lasts[i]] + window - 1 - horizon_start, clipped to the
 * curve. Integer arithmetic wraps like numpy's int64. Every span index is
 * checked (negative ones included) before an empty interval is reported,
 * as numpy indexing raises before the emptiness check. */
static int density_marks(const int64_t *offsets, int64_t n_offsets, int64_t window,
                         const int64_t *firsts, const int64_t *lasts, int64_t spans,
                         int64_t horizon_start, int64_t length, double *curve) {
    uint64_t bound = (uint64_t)n_offsets, reach = (uint64_t)window - 1;
    uint64_t origin = (uint64_t)horizon_start;
    int empty = 0;
    for (int64_t i = 0; i < spans; i++) {
        if ((uint64_t)firsts[i] >= bound || (uint64_t)lasts[i] >= bound) return SEQ_INDEX;
        int64_t start = (int64_t)((uint64_t)offsets[firsts[i]] - origin);
        int64_t end = (int64_t)((uint64_t)offsets[lasts[i]] + reach - origin);
        if (end < start) empty = 1;
        if (empty || start >= length || end < 0) continue;
        curve[start > 0 ? start : 0] += 1.0;
        if (end < length - 1) curve[end + 1] -= 1.0;
    }
    return empty ? SEQ_EMPTY : SEQ_OK;
}

/* Turn marks into the curve. The marks and their prefix sum are integers
 * far below 2^53, so the doubles are exact. */
static void prefix_sum(double *curve, int64_t length) {
    double running = 0.0;
    for (int64_t t = 0; t < length; t++) curve[t] = running += curve[t];
}

/* Rule density curve of `length` >= 1 points from token spans (see
 * density_marks). */
int seq_density(const int64_t *offsets, int64_t n_offsets, int64_t window,
                const int64_t *firsts, const int64_t *lasts, int64_t spans,
                int64_t horizon_start, int64_t length, double *curve) {
    memset(curve, 0, (size_t)length * sizeof *curve);
    int status = density_marks(offsets, n_offsets, window, firsts, lasts, spans, horizon_start,
                               length, curve);
    if (!status) prefix_sum(curve, length);
    return status;
}

/* Point-wise median of k >= 1 rows of n doubles, as np.median computes it:
 * the mean of the middle value (odd k) or pair (even k), summed from +0.0
 * as numpy's mean is, so a -0.0 median comes out +0.0; and a NaN wherever a
 * column holds one. With `divisors` (NULL means none), row i's values are
 * read as rows[i][t] / divisors[i], the one IEEE division numpy's
 * `row / peak` makes, so normalizing and combining is one pass; a value
 * below zero is then SEQ_NEGATIVE (normalize_curve's rule), checked before
 * it is divided. Each column is insertion-sorted starting from the previous
 * column's order, which density curves (piecewise constant) mostly keep,
 * so a point costs about k steps. */
int seq_median(const double *const *rows, const double *divisors, int64_t k, int64_t n,
               double *out) {
    int64_t *order = malloc((size_t)k * sizeof *order);
    double *sorted = malloc((size_t)k * sizeof *sorted);
    int64_t lower = (k - 1) / 2, upper = k / 2;
    int status = SEQ_OK;
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
            if (divisors) {
                if (v < 0) {
                    status = SEQ_NEGATIVE;
                    goto done;
                }
                v /= divisors[order[i]];
            }
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
done:
    free(order), free(sorted);
    return status;
}

/* ---- one batch member, end to end ---- */

/* _sax.c: the bytes a row table holds; and symbol lookup, numerosity
 * reduction (exact when `reduce` is nonzero, none otherwise) and
 * first-occurrence ids of one interval matrix into `table`, emptied first;
 * the kept count, or -1 (a value outside the column or the letters) or -2
 * (no memory). */
int64_t sax_table_bytes(const void *table);
void *sax_table_new(void);
void sax_table_free(void *table);
int64_t sax_tokens(void *table, const intptr_t *intervals, int64_t n_rows, int64_t width,
                   const int64_t *column, int64_t n_symbols, int64_t reduce,
                   int64_t *offsets, int64_t *ids);

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

/* Grammar.grammar_size() of an arena's grammar: every live rule (R0 and
 * each rule still referenced) counts one plus the symbols of its body. */
static int64_t grammar_size(const Seq *s) {
    int64_t size = 0;
    for (int64_t r = 0; r < s->rules; r++) {
        if (r && s->rule_count[r] <= 0) continue;
        int64_t guard = s->rule_guard[r];
        size++;
        for (int64_t symbol = s->next[guard]; symbol != guard; symbol = s->next[symbol]) size++;
    }
    return size;
}

/* A member workspace: what seq_member_curve would otherwise allocate and
 * grow per call, kept warm between the calls of one thread. `seq` is the
 * arena (emptied with reset), `table` the row table (emptied by
 * sax_tokens), `scratch` the offsets, ids, firsts and lasts of up to
 * `scratch_rows` rows; each is made on first use. After every call that
 * leaves more than seq_space_keep bytes in it, all three are freed, so one
 * huge member neither pins its memory nor makes later small members pay
 * for emptying it. seq_space_live counts the workspaces not yet freed. */
typedef struct {
    Seq *seq;
    void *table;
    int64_t *scratch;
    int64_t scratch_rows;
} SeqSpace;

const int64_t seq_space_keep = (int64_t)4 << 20;
static int64_t live_spaces;

SeqSpace *seq_space_new(void) {
    SeqSpace *w = calloc(1, sizeof *w);
    if (w) __atomic_add_fetch(&live_spaces, 1, __ATOMIC_RELAXED);
    return w;
}

static void space_release(SeqSpace *w) {
    if (w->seq) seq_free(w->seq);
    sax_table_free(w->table);
    free(w->scratch);
    memset(w, 0, sizeof *w);
}

void seq_space_free(SeqSpace *w) {
    if (!w) return;
    space_release(w);
    free(w);
    __atomic_sub_fetch(&live_spaces, 1, __ATOMIC_RELAXED);
}

int64_t seq_space_live(void) { return __atomic_load_n(&live_spaces, __ATOMIC_RELAXED); }

/* Bytes the workspace holds, from its capacities (see FastSequitur.memory_bytes). */
int64_t seq_space_bytes(const SeqSpace *w) {
    const Seq *s = w->seq;
    int64_t arena = s ? 24 * s->slot_cap + 16 * (s->rule_cap + s->table_cap + s->pending_cap) : 0;
    return arena + sax_table_bytes(w->table) + 32 * w->scratch_rows;
}

/* The rule density curve (`length` doubles) of one batch member from its
 * interval matrix (n_rows x width, row r the window starting at r) and its
 * alphabet column, on the workspace `w`: sax_tokens -> seq_feed_many ->
 * seq_spans -> seq_density, as the chained calls run them. The workspace's
 * arena and table are emptied first, and the grammar does not depend on
 * their capacities (the digram table and the row table are maps), so the
 * curve equals a fresh arena's bit for bit. `reduce` selects the
 * numerosity strategy as in sax_tokens: exact (nonzero) or none (every
 * window a token). A row or column value out of range is SEQ_SYMBOL, no
 * kept token SEQ_NO_TOKENS; every other status is the one the failing
 * stage returns, and leaves the workspace fit for the next call. counters
 * (6 entries) receives the nanoseconds spent tokenizing, feeding, walking
 * the spans (and the rule lists) and accumulating the density, then the
 * kept token count and the grammar size (0 for what did not run). */
int seq_member_curve(SeqSpace *w, const intptr_t *intervals, int64_t n_rows, int64_t width,
                     const int64_t *column, int64_t n_symbols, int64_t reduce,
                     int64_t window, int64_t length, double *curve, int64_t *counters) {
    int64_t rows = n_rows > 0 ? n_rows : 1, mark = clock_ns(), kept, nodes;
    int64_t *offsets, *ids, *firsts, *lasts;
    int status = SEQ_OK;
    memset(counters, 0, 6 * sizeof *counters);
    if (rows > w->scratch_rows) {
        free(w->scratch);
        w->scratch_rows = 0;
        if (!(w->scratch = malloc(4 * (size_t)rows * sizeof *w->scratch))) return SEQ_NOMEM;
        w->scratch_rows = rows;
    }
    if (!w->table && !(w->table = sax_table_new())) return SEQ_NOMEM;
    offsets = w->scratch, ids = offsets + rows, firsts = ids + rows, lasts = firsts + rows;
    kept = sax_tokens(w->table, intervals, n_rows, width, column, n_symbols, reduce, offsets, ids);
    lap(&mark, &counters[0]);
    if (kept < 0) {
        status = kept == -1 ? SEQ_SYMBOL : SEQ_NOMEM;
        goto done;
    }
    if (!kept) {
        status = SEQ_NO_TOKENS;
        goto done;
    }
    counters[4] = kept;
    if (w->seq) {
        reset(w->seq);
    } else if (!(w->seq = seq_new())) {
        status = SEQ_NOMEM;
        goto done;
    }
    status = seq_feed_many(w->seq, ids, kept);
    lap(&mark, &counters[1]);
    if (status) goto done;
    nodes = seq_spans(w->seq, firsts, lasts, kept);
    if (nodes >= 0) counters[5] = grammar_size(w->seq);
    lap(&mark, &counters[2]);
    if (nodes < 0) {
        status = (int)nodes;
        goto done;
    }
    status = seq_density(offsets, kept, window, firsts, lasts, nodes, 0, length, curve);
    lap(&mark, &counters[3]);
done:
    if (seq_space_bytes(w) > seq_space_keep) space_release(w);
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

/* A decay generation: the tokens whose window offsets lie in [index * g,
 * (index + 1) * g). A sealed one keeps its `nodes` spans (firsts, then
 * lasts, token indices within the generation), its live rules (R0
 * excluded) and their summed reference counts; the open one (the log's
 * last) is the log's arena, and only its index and count are kept here. */
typedef struct {
    int64_t index, count, nodes, rules, refs;
    int64_t *spans;
} Gen;

/* A streaming member's kept tokens, oldest first: ids[i] was kept from the
 * window starting at offsets[i] (ascending). Tokens before `live` slid out
 * of the horizon; they are dropped physically once they outweigh the live
 * ones. `carry` is the symbol row of the last window ingested, which the
 * next block's numerosity reduction compares its first row against.
 * Without generations, `seq` is Sequitur over exactly the live ids as of
 * the last poll, built when the prune counter read `anchor`: while no
 * token is pruned the live ids only grow at the right end, where Sequitur
 * is incremental, so a poll feeds the new suffix; once one is pruned, the
 * poll rebuilds it. With generations, `seq` is the open generation's
 * arena, fed at ingest. */
typedef struct {
    int32_t *ids;
    int64_t *offsets;
    intptr_t *carry;     /* width symbols, valid when has_carry */
    int64_t count, cap;  /* stored tokens and their capacity */
    int64_t live;        /* index of the first live token */
    int64_t kept, pruned; /* tokens ever kept and ever pruned */
    int64_t width, has_carry, anchor;
    Seq *seq;
    int64_t generation_size;  /* g > 0 routes tokens to generations; 0 does not */
    Gen *gens;                /* the live generations, oldest first; the last is open */
    int64_t n_gens, gen_cap;
    int64_t retired[4];       /* generations, tokens, rules, rule references dropped */
} SeqLog;

/* Free the oldest n generations and shift the rest down. */
static void drop_generations(SeqLog *log, int64_t n) {
    if (!n) return;
    for (int64_t i = 0; i < n; i++) free(log->gens[i].spans);
    log->n_gens -= n;
    memmove(log->gens, log->gens + n, (size_t)log->n_gens * sizeof *log->gens);
}

void seq_log_free(SeqLog *log) {
    if (!log) return;
    if (log->seq) seq_free(log->seq);
    drop_generations(log, log->n_gens);
    free(log->gens), free(log->ids), free(log->offsets), free(log->carry), free(log);
}

SeqLog *seq_log_new(int64_t width, int64_t generation_size) {
    SeqLog *log = width >= 1 && generation_size >= 0 ? calloc(1, sizeof *log) : NULL;
    if (!log) return NULL;
    log->width = width, log->generation_size = generation_size;
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

/* The first index in [low, high) whose offset is at least `key`, or high. */
static int64_t lower_bound(const int64_t *offsets, int64_t low, int64_t high, int64_t key) {
    while (low < high) {
        int64_t middle = low + (high - low) / 2;
        if (offsets[middle] < key) low = middle + 1;
        else high = middle;
    }
    return low;
}

/* The live rules of an arena (R0 excluded) and their summed reference counts. */
static void rule_stats(const Seq *s, int64_t *rules, int64_t *refs) {
    *rules = *refs = 0;
    for (int64_t r = 1; r < s->rules; r++)
        if (s->rule_count[r] > 0) ++*rules, *refs += s->rule_count[r];
}

/* Walk the open generation's spans into `spans` (room for 2 count):
 * firsts, then lasts, packed. Returns the span count or a status. */
static int64_t open_spans(SeqLog *log, int64_t *spans) {
    int64_t count = log->gens[log->n_gens - 1].count;
    int64_t nodes = seq_spans(log->seq, spans, spans + count, count);
    if (nodes > 0) memmove(spans + nodes, spans + count, (size_t)nodes * sizeof *spans);
    return nodes;
}

/* Seal the open generation: keep its spans and rule stats, then empty the
 * arena (keeping its capacities) for the next generation. */
static int seal(SeqLog *log) {
    Gen *open = &log->gens[log->n_gens - 1];
    int64_t *spans = malloc(2 * (size_t)open->count * sizeof *spans), *fit, nodes;
    if (!spans) return SEQ_NOMEM;
    if ((nodes = open_spans(log, spans)) < 0) {
        free(spans);
        return (int)nodes;
    }
    if (!nodes) free(spans), spans = NULL;
    else if ((fit = realloc(spans, 2 * (size_t)nodes * sizeof *spans))) spans = fit;
    open->spans = spans, open->nodes = nodes;
    rule_stats(log->seq, &open->rules, &open->refs);
    reset(log->seq);
    return SEQ_OK;
}

/* Route n tokens, offsets ascending, to their generations: each is fed to
 * the open generation's arena, and a token past it seals it and opens the
 * token's generation. */
static int route(SeqLog *log, const int32_t *ids, const int64_t *offsets, int64_t n) {
    int status;
    if (log->seq && log->seq->status) return (int)log->seq->status;
    for (int64_t i = 0; i < n; i++) {
        int64_t index = offsets[i] / log->generation_size;
        Gen *open = log->n_gens ? &log->gens[log->n_gens - 1] : NULL;
        if (offsets[i] < 0 || (open && index < open->index)) return SEQ_ORDER;
        if (!open || index != open->index) {
            if (log->n_gens == log->gen_cap) {
                int64_t cap = log->gen_cap ? 2 * log->gen_cap : 4;
                Gen *gens = realloc(log->gens, (size_t)cap * sizeof *gens);
                if (!gens) return SEQ_NOMEM;
                log->gens = gens, log->gen_cap = cap;
            }
            if (!log->seq && !(log->seq = seq_new())) return SEQ_NOMEM;
            if (open && (status = seal(log))) return status;
            open = &log->gens[log->n_gens++];
            memset(open, 0, sizeof *open);
            open->index = index;
        }
        if (feed(log->seq, ids[i])) return (int)log->seq->status;
        open->count++;
    }
    return SEQ_OK;
}

/* One drain block: intervals is n_rows x width (row r the window starting
 * at first + r), column the member's alphabet column. Looks the symbols
 * up, drops each row equal to the one before it when `reduce` (the row
 * before the block is the carried one), interns the kept rows into `table`
 * and appends their ids and offsets; with generations, also routes them
 * (adding the nanoseconds that takes to *feed_ns, when given). Returns the
 * kept count, SEQ_SYMBOL for a value outside the column (nothing is
 * appended, and the table forgets the words the call added), SEQ_NOMEM,
 * or the status of a failed routing. */
int64_t seq_log_ingest(SeqLog *log, void *table, const intptr_t *intervals, int64_t n_rows,
                       const int64_t *column, int64_t n_symbols, int64_t reduce, int64_t first,
                       int64_t *feed_ns) {
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
    if (log->generation_size && kept) {
        int64_t mark = clock_ns(), spent;
        int status = route(log, log->ids + log->count - kept, offsets, kept);
        lap(&mark, &spent);
        if (feed_ns) *feed_ns += spent;
        if (status) return status;
    }
    return kept;
}

/* Prune the tokens whose window starts before `start`; returns how many.
 * The dead prefix is dropped once it holds more than `slack` tokens and
 * outweighs the live part, which only a call that pruned can find true.
 * Every sealed generation that ends at or before `start` is dropped into
 * the retired counters. */
int64_t seq_log_forget(SeqLog *log, int64_t start, int64_t slack) {
    int64_t low = lower_bound(log->offsets, log->live, log->count, start), pruned, dropped = 0;
    pruned = low - log->live;
    log->pruned += pruned, log->live = low;
    if (log->live > slack && 2 * log->live > log->count) {
        log->count -= log->live;
        memmove(log->ids, log->ids + log->live, (size_t)log->count * sizeof *log->ids);
        memmove(log->offsets, log->offsets + log->live, (size_t)log->count * sizeof *log->offsets);
        log->live = 0;
    }
    for (; log->generation_size && dropped < log->n_gens - 1; dropped++) {
        const Gen *gen = &log->gens[dropped];
        if ((gen->index + 1) * log->generation_size > start) break;
        log->retired[0]++, log->retired[1] += gen->count;
        log->retired[2] += gen->rules, log->retired[3] += gen->refs;
    }
    drop_generations(log, dropped);
    return pruned;
}

/* A poll of a log with generations (see the header comment); phase_ns[0]
 * stays 0, as the generations were fed at ingest. */
static int generations_curve(SeqLog *log, int64_t window, int64_t horizon_start,
                             int64_t length, double *curve, int64_t *phase_ns) {
    const int64_t *offsets = log->offsets + log->live;
    int64_t n = log->count - log->live, size = log->generation_size, mark = clock_ns();
    int64_t total = 0, nodes, *spans;
    int status = SEQ_OK;
    if (!log->n_gens) return SEQ_GENERATIONS;
    if (!(spans = malloc(2 * (size_t)log->gens[log->n_gens - 1].count * sizeof *spans)))
        return SEQ_NOMEM;
    nodes = open_spans(log, spans);
    lap(&mark, &phase_ns[1]);
    if (nodes < 0) {
        free(spans);
        return (int)nodes;
    }
    memset(curve, 0, (size_t)length * sizeof *curve);
    for (int64_t g = 0; g < log->n_gens && !status; g++) {
        const Gen *gen = &log->gens[g];
        int is_open = g == log->n_gens - 1;
        const int64_t *firsts = is_open ? spans : gen->spans;
        int64_t spanned = is_open ? nodes : gen->nodes;
        int64_t first = lower_bound(offsets, 0, n, gen->index * size);
        int64_t stop = lower_bound(offsets, first, n, (gen->index + 1) * size);
        total += gen->count;
        status = stop - first != gen->count
                     ? SEQ_GENERATIONS
                     : density_marks(offsets + first, gen->count, window, firsts,
                                     firsts + spanned, spanned, horizon_start, length, curve);
    }
    if (!status && total != n) status = SEQ_GENERATIONS;
    if (!status) prefix_sum(curve, length);
    lap(&mark, &phase_ns[2]);
    free(spans);
    return status;
}

/* The rule density curve (`length` doubles from horizon_start) over the
 * live tokens: bring `seq` up to exactly the live ids (feed the suffix, or
 * rebuild it after a prune), walk its spans and accumulate the density; a
 * log with generations polls them instead. No live token is an all-zero
 * curve. phase_ns receives the nanoseconds spent feeding, walking the
 * spans and accumulating the density. */
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
    if (log->generation_size)
        return generations_curve(log, window, horizon_start, length, curve, phase_ns);
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
 * `pruned` tokens slid out; carry may be NULL. Ids must lie in [0, 2^31)
 * and, with generations, offsets must be non-negative and ascending
 * (checked before anything changes). Without generations the builder is
 * rebuilt at the next poll; with them, the tokens are routed again and
 * the retired counters restart at zero. */
int seq_log_load(SeqLog *log, const int64_t *ids, const int64_t *offsets, int64_t n,
                 const intptr_t *carry, int64_t pruned) {
    int64_t count = log->count;
    for (int64_t i = 0; i < n; i++) {
        if (!IN_RANGE(ids[i])) return SEQ_RANGE;
        if (log->generation_size && (offsets[i] < 0 || (i && offsets[i] < offsets[i - 1])))
            return SEQ_ORDER;
    }
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
    if (!log->generation_size) return SEQ_OK;
    drop_generations(log, log->n_gens);
    memset(log->retired, 0, sizeof log->retired);
    if (log->seq) reset(log->seq);
    return route(log, log->ids, log->offsets, n);
}

int64_t seq_log_live(const SeqLog *log) { return log->count - log->live; }

/* Copy the newest n live tokens (n at most seq_log_live) into ids and
 * offsets, oldest first. */
void seq_log_copy(const SeqLog *log, int64_t n, int64_t *ids, int64_t *offsets) {
    int64_t first = log->count - n;
    for (int64_t i = 0; i < n; i++) ids[i] = log->ids[first + i];
    if (n) memcpy(offsets, log->offsets + first, (size_t)n * sizeof *offsets);
}

/* sizes = {count, cap, live, kept, pruned, width, has_carry, the builder's
 * slot_cap, rule_cap, table_cap, pending_cap (0 without one), then
 * generation_size, the live generations, their capacity, the sealed
 * generations' span slots, the retired generations, tokens, rules and
 * rule references, and the open generation's token count}; carry receives the carried row when there is one. */
void seq_log_export(const SeqLog *log, int64_t *sizes, int64_t *carry) {
    const Seq *s = log->seq;
    sizes[0] = log->count, sizes[1] = log->cap, sizes[2] = log->live, sizes[3] = log->kept;
    sizes[4] = log->pruned, sizes[5] = log->width, sizes[6] = log->has_carry;
    sizes[7] = s ? s->slot_cap : 0, sizes[8] = s ? s->rule_cap : 0;
    sizes[9] = s ? s->table_cap : 0, sizes[10] = s ? s->pending_cap : 0;
    sizes[11] = log->generation_size, sizes[12] = log->n_gens, sizes[13] = log->gen_cap;
    sizes[14] = 0;
    for (int64_t g = 0; g + 1 < log->n_gens; g++) sizes[14] += 2 * log->gens[g].nodes;
    for (int j = 0; j < 4; j++) sizes[15 + j] = log->retired[j];
    sizes[19] = log->n_gens ? log->gens[log->n_gens - 1].count : 0;
    for (int64_t j = 0; log->has_carry && j < log->width; j++) carry[j] = log->carry[j];
}

/* The live generations, oldest first: info[5 g .. 5 g + 4] = {index,
 * count, spans, rules, rule references} of generation g, and its spans
 * (firsts, then lasts) appended to `spans`, which has room for every
 * sealed generation's and 2 count of the open one's. Returns the number of
 * generations, or a status. */
int64_t seq_log_generations(SeqLog *log, int64_t *info, int64_t *spans) {
    for (int64_t g = 0; g < log->n_gens; g++) {
        const Gen *gen = &log->gens[g];
        int64_t *row = info + 5 * g;
        row[0] = gen->index, row[1] = gen->count;
        if (g == log->n_gens - 1) {
            if ((row[2] = open_spans(log, spans)) < 0) return row[2];
            rule_stats(log->seq, &row[3], &row[4]);
        } else {
            row[2] = gen->nodes, row[3] = gen->rules, row[4] = gen->refs;
            if (gen->nodes) memcpy(spans, gen->spans, 2 * (size_t)gen->nodes * sizeof *spans);
        }
        spans += 2 * row[2];
    }
    return log->n_gens;
}
