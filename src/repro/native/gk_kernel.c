/* Native GK kernels over int64 keys: an exact port of repro.summaries.gk.
 *
 * gk_batch ports _GKBase._process_batch (the chunked insert plus the
 * variant's compress), which is documented state-identical to inserting
 * item by item, so the kernel leaves the same tuples and the same n /
 * since_compress / max_item_count trajectory as both.  gk_merge ports
 * merge_gk: merged rank bounds, the stable (value, rmin) order, the
 * duplicate fold-in and the compress at the merged n.
 *
 * The tuple columns (vals, gs, deltas) belong to the caller, which grows
 * them on demand: gk_batch stops before a chunk that would not fit and
 * reports the capacity it needs.  Scratch space lives for one call only.
 *
 * All arithmetic that could overflow int64 is either guarded Python-side
 * (n + batch_len < 2^40, eps_p/eps_q < 2^62, keys fit int64; gk_merge also
 * checks g and delta itself) or widened to __int128 (the threshold
 * product eps_p * n).
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Cap on g and delta accepted by gk_merge, as the Python guard caps n. */
#define GK_COUNT_LIMIT ((int64_t)1 << 40)
/* Chunks up to this long are sorted by insertion, longer ones by merging. */
#define GK_INSERTION_SORT_MAX 32

/* floor(2 eps n) with two_eps = eps_p / eps_q; operands are non-negative so
 * C truncation == floor == Python int(). */
static inline int64_t threshold_of(int64_t eps_p, int64_t eps_q, int64_t n) {
    return (int64_t)(((__int128)eps_p * n) / eps_q);
}

/* Band of delta against threshold p >= 1: exact port of gk._band.
 *
 * Band alpha >= 1 holds the deltas in (p - 2^alpha - p % 2^alpha,
 * p - 2^(alpha-1) - p % 2^(alpha-1)]; every width is a power of two, so
 * p % w is p & (w - 1).  The intervals tile everything below p, and with
 * x = p - delta + 1 of bit length L the one holding delta is L - 1, or L
 * when the low L - 1 bits of x exceed those of p (a carry out of them).
 * This always lies in the window {bl - 1, bl, bl + 1}, bl the bit length
 * of p - delta, that gk._band scans, so the two agree on every input.
 */
static inline int64_t band_of(int64_t delta, int64_t p) {
    if (delta >= p) {
        return 0;
    }
    uint64_t x = (uint64_t)(p - delta) + 1;
    int width = 64 - __builtin_clzll(x);
    uint64_t low = ((uint64_t)1 << (width - 1)) - 1;
    return ((uint64_t)p & low) < (x & low) ? width : width - 1;
}

/* Keep the tuples [w, size) and tuple 0 written just below them: one
 * memmove per column closes the gap left by the deleted tuples. */
static int64_t close_gap(int64_t *vals, int64_t *gs, int64_t *deltas,
                         int64_t size, int64_t w) {
    int64_t kept = size - w;
    if (w > 0) {
        size_t bytes = (size_t)kept * sizeof(int64_t);
        memmove(vals, vals + w, bytes);
        memmove(gs, gs + w, bytes);
        memmove(deltas, deltas + w, bytes);
    }
    return kept;
}

/* Band-based compress (GreenwaldKhanna._compress) in one right-to-left
 * pass.  w is the last tuple written, i.e. the successor of the tuple read
 * at r; a merged run is dropped by not writing it. */
static int64_t compress_band(int64_t *vals, int64_t *gs, int64_t *deltas,
                             int64_t size, int64_t threshold, int64_t *bands) {
    if (threshold < 1 || size < 3) {
        return size;
    }
    for (int64_t j = 0; j < size; j++) {
        bands[j] = band_of(deltas[j], threshold);
    }
    int64_t w = size - 1;
    int64_t r = size - 2;
    while (r >= 1) {
        int64_t band = bands[r];
        if (band <= bands[w]) {
            int64_t start = r;
            int64_t g_total = gs[r];
            while (start - 1 >= 1 && bands[start - 1] < band) {
                start -= 1;
                g_total += gs[start];
            }
            if (g_total + gs[w] + deltas[w] < threshold) {
                gs[w] += g_total;
                r = start - 1;
                continue;
            }
        }
        w -= 1;
        vals[w] = vals[r];
        gs[w] = gs[r];
        deltas[w] = deltas[r];
        bands[w] = band;
        r -= 1;
    }
    w -= 1;
    vals[w] = vals[0];
    gs[w] = gs[0];
    deltas[w] = deltas[0];
    return close_gap(vals, gs, deltas, size, w);
}

/* Greedy compress (GreenwaldKhannaGreedy._compress) in one right-to-left
 * pass, with the same write cursor. */
static int64_t compress_greedy(int64_t *vals, int64_t *gs, int64_t *deltas,
                               int64_t size, int64_t threshold) {
    if (threshold < 1 || size < 3) {
        return size;
    }
    int64_t w = size - 1;
    for (int64_t r = size - 2; r >= 1; r--) {
        if (gs[r] + gs[w] + deltas[w] < threshold) {
            gs[w] += gs[r];
        } else {
            w -= 1;
            vals[w] = vals[r];
            gs[w] = gs[r];
            deltas[w] = deltas[r];
        }
    }
    w -= 1;
    vals[w] = vals[0];
    gs[w] = gs[0];
    deltas[w] = deltas[0];
    return close_gap(vals, gs, deltas, size, w);
}

static int64_t compress(int64_t *vals, int64_t *gs, int64_t *deltas,
                        int64_t size, int64_t threshold, int32_t greedy,
                        int64_t *bands) {
    if (greedy) {
        return compress_greedy(vals, gs, deltas, size, threshold);
    }
    return compress_band(vals, gs, deltas, size, threshold, bands);
}

/* A fresh key and its Delta. */
typedef struct {
    int64_t value;
    int64_t delta;
} fresh_t;

/* Stable sort of fresh keys by value: insertion sort for short chunks,
 * bottom-up merge sort (through aux) above that. */
static void sort_fresh(fresh_t *keys, int64_t count, fresh_t *aux) {
    if (count <= GK_INSERTION_SORT_MAX) {
        for (int64_t i = 1; i < count; i++) {
            fresh_t key = keys[i];
            int64_t j = i;
            while (j > 0 && keys[j - 1].value > key.value) {
                keys[j] = keys[j - 1];
                j -= 1;
            }
            keys[j] = key;
        }
        return;
    }
    fresh_t *from = keys, *to = aux;
    for (int64_t width = 1; width < count; width *= 2) {
        for (int64_t low = 0; low < count; low += 2 * width) {
            int64_t mid = low + width < count ? low + width : count;
            int64_t high = low + 2 * width < count ? low + 2 * width : count;
            int64_t i = low, j = mid, k = low;
            while (i < mid && j < high) {
                /* Branch-free: which run wins is a coin flip on random keys. */
                int right = from[j].value < from[i].value;
                to[k++] = from[right ? j : i];
                j += right;
                i += 1 - right;
            }
            while (i < mid) {
                to[k++] = from[i++];
            }
            while (j < high) {
                to[k++] = from[j++];
            }
        }
        fresh_t *swap = from;
        from = to;
        to = swap;
    }
    if (from != keys) {
        memcpy(keys, from, (size_t)count * sizeof(fresh_t));
    }
}

/* Apply a batch of int64 keys to GK tuple state.
 *
 * vals/gs/deltas hold state[3] live tuples and have room for `capacity`.
 * state is [n, since_compress, max_item_count, size, needed], updated in
 * place.  Returns the number of batch keys applied: all of them, or fewer
 * when the next chunk needs more room than `capacity`, which is then
 * written to state[4].  Returns -1 (state untouched) when scratch cannot
 * be allocated.
 *
 * Each chunk ends at the next compress, as in _process_batch.  Against the
 * chunk's pre-chunk tuples a key is below them all (v < vals[0]), at or
 * above them all (v >= vals[size - 1]) or interior, which with the running
 * fresh extremes and n at the key's arrival decides its Delta exactly as
 * the per-key bisect does.  The chunk is then stably sorted by value and
 * merged into the tuples from the back, each fresh key after any old key
 * equal to it (bisect_right).
 */
int64_t gk_batch(int64_t *vals, int64_t *gs, int64_t *deltas, int64_t capacity,
                 const int64_t *batch, int64_t batch_len, int64_t *state,
                 int64_t period, int64_t eps_p, int64_t eps_q, int32_t greedy) {
    int64_t n = state[0];
    int64_t since = state[1];
    int64_t max_count = state[2];
    int64_t size = state[3];
    int64_t chunk_max = period < batch_len ? period : batch_len;
    int64_t band_room = greedy ? 0 : capacity;
    if (chunk_max < 1) {
        chunk_max = 1;
    }
    fresh_t *fresh = malloc((size_t)(2 * chunk_max) * sizeof(fresh_t)
                            + (size_t)band_room * sizeof(int64_t) + 1);
    if (fresh == NULL) {
        return -1;
    }
    fresh_t *aux = fresh + chunk_max;
    int64_t *bands = (int64_t *)(aux + chunk_max);
    int64_t done = 0;
    while (done < batch_len) {
        int64_t take = period - since;
        if (take < 1) {
            take = 1;
        }
        if (take > batch_len - done) {
            take = batch_len - done;
        }
        if (size + take > capacity) {
            state[4] = size + take;
            break;
        }
        const int64_t *chunk = batch + done;
        /* floor(2 eps n) at each key's arrival, stepped without a division:
         * eps_p < 2 eps_q, so the remainder wraps at most twice. */
        __int128 product = (__int128)eps_p * n;
        int64_t threshold = (int64_t)(product / eps_q);
        int64_t remainder = (int64_t)(product % eps_q);
        int64_t first = size ? vals[0] : 0;
        int64_t last = size ? vals[size - 1] : 0;
        int have_low = 0, have_high = 0;
        int64_t low = 0, high = 0;
        for (int64_t k = 0; k < take; k++) {
            int64_t v = chunk[k];
            int64_t interior = threshold > 0 ? threshold - 1 : 0;
            int64_t delta;
            if (size == 0) {
                if (!have_low) {
                    delta = 0;
                    low = high = v;
                    have_low = have_high = 1;
                } else if (v < low) {
                    delta = 0;
                    low = v;
                } else if (!(v < high)) {
                    delta = 0;
                    high = v;
                } else {
                    delta = interior;
                }
            } else if (v < first) {
                if (!have_low || v < low) {
                    delta = 0;
                    low = v;
                    have_low = 1;
                } else {
                    delta = interior;
                }
            } else if (v >= last) {
                if (!have_high || !(v < high)) {
                    delta = 0;
                    high = v;
                    have_high = 1;
                } else {
                    delta = interior;
                }
            } else {
                delta = interior;
            }
            fresh[k].value = v;
            fresh[k].delta = delta;
            remainder += eps_p;
            while (remainder >= eps_q) {
                remainder -= eps_q;
                threshold += 1;
            }
        }
        sort_fresh(fresh, take, aux);
        int64_t i = size - 1;
        int64_t w = size + take - 1;
        for (int64_t j = take - 1; j >= 0; w--) {
            if (i >= 0 && vals[i] > fresh[j].value) {
                vals[w] = vals[i];
                gs[w] = gs[i];
                deltas[w] = deltas[i];
                i -= 1;
            } else {
                vals[w] = fresh[j].value;
                gs[w] = 1;
                deltas[w] = fresh[j].delta;
                j -= 1;
            }
        }
        size += take;
        since += take;
        done += take;
        if (since >= period) {
            /* The trigger key's count is observed only after the compress,
             * which runs before that key's n increment. */
            if (size - 1 > max_count) {
                max_count = size - 1;
            }
            n += take - 1;
            size = compress(vals, gs, deltas, size,
                            threshold_of(eps_p, eps_q, n), greedy, bands);
            since = 0;
            n += 1;
        } else {
            n += take;
        }
        if (size > max_count) {
            max_count = size;
        }
    }
    free(fresh);
    state[0] = n;
    state[1] = since;
    state[2] = max_count;
    state[3] = size;
    return done;
}

/* One input of gk_merge: its columns and stream length. */
typedef struct {
    const int64_t *vals;
    const int64_t *gs;
    const int64_t *deltas;
    int64_t size;
    int64_t n;
} gk_view;

/* Prefix sums of g (rmin per tuple); 0 unless every value is in order and
 * every g, rmin and delta inside the guard, which the ordered two-way
 * merge and the int64 sums below rely on. */
static int rank_bounds(const gk_view *view, int64_t *rmin) {
    int64_t total = 0;
    for (int64_t i = 0; i < view->size; i++) {
        int64_t g = view->gs[i], delta = view->deltas[i];
        if (g < 1 || g >= GK_COUNT_LIMIT || delta < 0 || delta >= GK_COUNT_LIMIT
            || (i > 0 && view->vals[i] < view->vals[i - 1])) {
            return 0;
        }
        total += g;
        if (total >= GK_COUNT_LIMIT) {
            return 0;
        }
        rmin[i] = total;
    }
    return 1;
}

/* _merged_bounds: each entry of `own` with its rank bounds against the
 * union of both streams. */
static void merged_bounds(const gk_view *own, const int64_t *own_rmin,
                          const gk_view *other, const int64_t *other_rmin,
                          int64_t *rmin_out, int64_t *rmax_out) {
    int64_t j = 0;
    for (int64_t i = 0; i < own->size; i++) {
        int64_t value = own->vals[i];
        while (j < other->size && other->vals[j] < value) {
            j += 1;
        }
        int64_t rmin_other = j > 0 ? other_rmin[j - 1] : 0;
        int64_t rmax_other = j < other->size
                                 ? other_rmin[j] + other->deltas[j] - 1
                                 : other->n;
        rmin_out[i] = own_rmin[i] + rmin_other;
        rmax_out[i] = own_rmin[i] + own->deltas[i] + rmax_other;
    }
}

/* Merge two GK summaries (merge_gk) into out_vals/out_gs/out_deltas, which
 * have room for size_a + size_b tuples.  state is [n_a, n_b, max_item_count]
 * in, and [.., .., max_item_count] out (the larger of the inputs' and the
 * merged count, taken before the compress).  The compress runs at
 * n_a + n_b with two_eps = eps_p / eps_q.  Returns the merged tuple count,
 * -1 when scratch cannot be allocated, -2 when an input is outside the
 * guard (unsorted values, g < 1, or a g or delta past 2^40).
 */
int64_t gk_merge(const int64_t *vals_a, const int64_t *gs_a,
                 const int64_t *deltas_a, int64_t size_a,
                 const int64_t *vals_b, const int64_t *gs_b,
                 const int64_t *deltas_b, int64_t size_b, int64_t *state,
                 int64_t eps_p, int64_t eps_q, int32_t greedy,
                 int64_t *out_vals, int64_t *out_gs, int64_t *out_deltas) {
    gk_view a = {vals_a, gs_a, deltas_a, size_a, state[0]};
    gk_view b = {vals_b, gs_b, deltas_b, size_b, state[1]};
    int64_t total = size_a + size_b;
    /* rmin per input, then merged rmin and rmax per input, then bands. */
    int64_t *scratch = malloc((size_t)(4 * total) * sizeof(int64_t) + 1);
    if (scratch == NULL) {
        return -1;
    }
    int64_t *rmin_a = scratch, *rmin_b = scratch + size_a;
    int64_t *lo_a = scratch + total, *lo_b = lo_a + size_a;
    int64_t *hi_a = scratch + 2 * total, *hi_b = hi_a + size_a;
    int64_t *bands = scratch + 3 * total;
    if (!rank_bounds(&a, rmin_a) || !rank_bounds(&b, rmin_b)) {
        free(scratch);
        return -2;
    }
    merged_bounds(&a, rmin_a, &b, rmin_b, lo_a, hi_a);
    merged_bounds(&b, rmin_b, &a, rmin_a, lo_b, hi_b);
    /* Each side is sorted by (value, rmin), so a two-way merge that takes
     * a's entry on a tie is the stable sort of a's entries then b's. */
    int64_t i = 0, j = 0, size = 0, previous_rmin = 0;
    while (i < size_a || j < size_b) {
        int64_t value, rmin, rmax;
        int take_a = j >= size_b
                     || (i < size_a
                         && (vals_a[i] < vals_b[j]
                             || (vals_a[i] == vals_b[j] && lo_a[i] <= lo_b[j])));
        if (take_a) {
            value = vals_a[i];
            rmin = lo_a[i];
            rmax = hi_a[i];
            i += 1;
        } else {
            value = vals_b[j];
            rmin = lo_b[j];
            rmax = hi_b[j];
            j += 1;
        }
        int64_t g = rmin - previous_rmin;
        if (g <= 0) {
            /* Duplicate values across the inputs resolved to the same lower
             * rank: fold this entry into the one already kept. */
            if (size > 0) {
                int64_t widened = rmax - previous_rmin;
                if (widened > out_deltas[size - 1]) {
                    out_deltas[size - 1] = widened;
                }
                continue;
            }
            g = 1;
        }
        out_vals[size] = value;
        out_gs[size] = g;
        out_deltas[size] = rmax - rmin > 0 ? rmax - rmin : 0;
        size += 1;
        previous_rmin = rmin;
    }
    if (size > state[2]) {
        state[2] = size;
    }
    int64_t threshold = threshold_of(eps_p, eps_q, a.n + b.n);
    size = compress(out_vals, out_gs, out_deltas, size, threshold, greedy, bands);
    free(scratch);
    return size;
}
