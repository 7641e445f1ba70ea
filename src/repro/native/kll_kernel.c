/* Native KLL compactor: an exact port of repro.summaries.kll's batch
 * schedule (KLL._process_batch, with KLL._insert for the per-item branch
 * and KLL._compact for each compaction) over int64 keys.
 *
 * Every compaction draws its coin the way random.Random.randrange(2) does
 * in CPython: getrandbits(2), i.e. the top two bits of one MT19937 output
 * word, redrawn while the result is >= 2.  The generator is a port of
 * CPython's genrand_uint32 over the same 624-word state and index that
 * random.Random.getstate() exposes, so the coin stream, the compactors,
 * n, max_item_count, the draw count and the generator state all leave the
 * call exactly as the Python path leaves them.
 *
 * Counts are guarded Python-side (n + batch_len < 2^40); keys are int64,
 * and sorting and slicing only compare and copy them.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MT_N 624
#define MT_M 397
#define MT_MATRIX_A 0x9908b0dfU
#define MT_UPPER_MASK 0x80000000U
#define MT_LOWER_MASK 0x7fffffffU

typedef struct {
    uint32_t words[MT_N];
    int64_t index;
} mt_state;

/* CPython's genrand_uint32 (Modules/_randommodule.c). */
static uint32_t genrand_uint32(mt_state *mt) {
    static const uint32_t mag01[2] = {0x0U, MT_MATRIX_A};
    uint32_t *w = mt->words;
    uint32_t y;
    if (mt->index >= MT_N) {
        int kk;
        for (kk = 0; kk < MT_N - MT_M; kk++) {
            y = (w[kk] & MT_UPPER_MASK) | (w[kk + 1] & MT_LOWER_MASK);
            w[kk] = w[kk + MT_M] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        for (; kk < MT_N - 1; kk++) {
            y = (w[kk] & MT_UPPER_MASK) | (w[kk + 1] & MT_LOWER_MASK);
            w[kk] = w[kk + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        y = (w[MT_N - 1] & MT_UPPER_MASK) | (w[0] & MT_LOWER_MASK);
        w[MT_N - 1] = w[MT_M - 1] ^ (y >> 1) ^ mag01[y & 0x1U];
        mt->index = 0;
    }
    y = w[mt->index++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

/* randrange(2): getrandbits(2) == genrand_uint32() >> 30, redrawn while >= 2. */
static int64_t coin(mt_state *mt) {
    uint32_t r;
    do {
        r = genrand_uint32(mt) >> 30;
    } while (r >= 2);
    return (int64_t)r;
}

typedef struct {
    int64_t *data;
    int64_t size;
    int64_t room;
} level_t;

typedef struct {
    level_t *levels;
    int64_t height;
    int64_t room;
    const int64_t *capacities;
    int64_t capacities_len;
    mt_state mt;
    int64_t draws;
} kll_t;

static int reserve(int64_t **data, int64_t *room, int64_t need) {
    if (need <= *room) {
        return 0;
    }
    int64_t grown = *room * 2 > need ? *room * 2 : need;
    if (grown < 8) {
        grown = 8;
    }
    int64_t *moved = realloc(*data, (size_t)grown * sizeof(int64_t));
    if (moved == NULL) {
        return -1;
    }
    *data = moved;
    *room = grown;
    return 0;
}

/* KLL._capacity: the table indexed by depth below the top; deeper levels
 * share the table's last (floor) entry. */
static inline int64_t capacity(const kll_t *s, int64_t level) {
    int64_t depth = s->height - 1 - level;
    return depth < s->capacities_len ? s->capacities[depth]
                                     : s->capacities[s->capacities_len - 1];
}

static int add_level(kll_t *s) {
    if (s->height == s->room) {
        int64_t grown = s->room * 2 + 4;
        level_t *moved = realloc(s->levels, (size_t)grown * sizeof(level_t));
        if (moved == NULL) {
            return -1;
        }
        s->levels = moved;
        s->room = grown;
    }
    s->levels[s->height].data = NULL;
    s->levels[s->height].size = 0;
    s->levels[s->height].room = 0;
    s->height += 1;
    return 0;
}

static int compare_keys(const void *a, const void *b) {
    int64_t x = *(const int64_t *)a, y = *(const int64_t *)b;
    return (x > y) - (x < y);
}

/* Deep in a stream level 0 holds two or three keys and compacts about once
 * per value, so short levels sort inline: a qsort call costs more. */
static void sort_keys(int64_t *a, int64_t n) {
    if (n > 16) {
        qsort(a, (size_t)n, sizeof(int64_t), compare_keys);
        return;
    }
    for (int64_t i = 1; i < n; i++) {
        int64_t v = a[i];
        int64_t j = i;
        while (j > 0 && a[j - 1] > v) {
            a[j] = a[j - 1];
            j -= 1;
        }
        a[j] = v;
    }
}

/* KLL._compact: sort, keep the smallest item behind when the size is odd,
 * promote every other item of the rest from a coin-chosen offset. */
static int compact(kll_t *s, int64_t level) {
    int64_t size = s->levels[level].size;
    sort_keys(s->levels[level].data, size);
    int64_t first = size & 1;
    int64_t offset = coin(&s->mt);
    s->draws += 1;
    if (level + 1 == s->height && add_level(s) < 0) {
        return -1;
    }
    level_t *below = &s->levels[level];
    level_t *above = &s->levels[level + 1];
    if (reserve(&above->data, &above->room, above->size + (size - first) / 2) < 0) {
        return -1;
    }
    for (int64_t i = first + offset; i < size; i += 2) {
        above->data[above->size++] = below->data[i];
    }
    below->size = first;
    return 0;
}

static int push(level_t *level, const int64_t *values, int64_t count) {
    if (count == 0) {
        return 0;
    }
    if (reserve(&level->data, &level->room, level->size + count) < 0) {
        return -1;
    }
    memcpy(level->data + level->size, values, (size_t)count * sizeof(int64_t));
    level->size += count;
    return 0;
}

/* KLL._process_batch over the carried stored count; -1 on allocation
 * failure (state is then discarded by the caller). */
static int process_batch(kll_t *s, const int64_t *batch, int64_t batch_len,
                         int64_t *n, int64_t *max_count, int64_t *count) {
    int64_t start = 0;
    int64_t capacity0 = capacity(s, 0);
    while (start < batch_len) {
        int64_t free_slots = capacity0 - s->levels[0].size;
        if (free_slots <= 0) {
            /* KLL.process -> _insert: append, cascade, then observe. */
            if (push(&s->levels[0], batch + start, 1) < 0) {
                return -1;
            }
            *count += 1;
            int64_t level = 0;
            while (s->levels[level].size >= capacity(s, level)) {
                int64_t size = s->levels[level].size;
                if (compact(s, level) < 0) {
                    return -1;
                }
                *count -= size / 2;
                level += 1;
                if (level == s->height) {
                    break;
                }
            }
            *n += 1;
            if (*count > *max_count) {
                *max_count = *count;
            }
            start += 1;
            capacity0 = capacity(s, 0);
            continue;
        }
        int64_t take = batch_len - start < free_slots ? batch_len - start : free_slots;
        if (push(&s->levels[0], batch + start, take) < 0) {
            return -1;
        }
        *n += take;
        *count += take;
        start += take;
        if (s->levels[0].size >= capacity0) {
            /* The trigger item's size is observed after the cascade; the
             * pre-cascade peak belongs to the item before it. */
            if (*count - 1 > *max_count) {
                *max_count = *count - 1;
            }
            int64_t level = 0;
            for (;;) {
                int64_t size = s->levels[level].size;
                if (size < capacity(s, level)) {
                    break;
                }
                if (compact(s, level) < 0) {
                    return -1;
                }
                *count -= size / 2;
                level += 1;
                if (level == s->height) {
                    break;
                }
            }
            capacity0 = capacity(s, 0);
        }
        if (*count > *max_count) {
            *max_count = *count;
        }
    }
    return 0;
}

static void release(kll_t *s) {
    for (int64_t h = 0; h < s->height; h++) {
        free(s->levels[h].data);
    }
    free(s->levels);
}

/* Apply a batch of int64 keys to KLL compactor state.
 *
 * items holds the `height` levels back to back, level h with sizes[h]
 * keys; capacities is KLL's capacity-by-depth table.  state is
 * [n, max_item_count, rng_draws, stored count] and mt is the 624 MT
 * words followed by the index (random.Random.getstate()[1]); both are
 * updated in place.  On success *out receives a malloc'd block holding
 * the new level sizes followed by the levels' keys (release it with
 * kll_free) and the new height is returned; on allocation failure -1 is
 * returned and state, mt and *out are left untouched.
 */
int64_t kll_batch(const int64_t *items, const int64_t *sizes, int64_t height,
                  const int64_t *batch, int64_t batch_len,
                  const int64_t *capacities, int64_t capacities_len,
                  int64_t *state, uint32_t *mt, int64_t **out) {
    kll_t s;
    memset(&s, 0, sizeof(s));
    s.capacities = capacities;
    s.capacities_len = capacities_len;
    for (int i = 0; i < MT_N; i++) {
        s.mt.words[i] = mt[i];
    }
    s.mt.index = mt[MT_N];
    s.draws = state[2];
    int64_t n = state[0];
    int64_t max_count = state[1];
    int64_t count = 0;
    const int64_t *cursor = items;
    for (int64_t h = 0; h < height; h++) {
        if (add_level(&s) < 0 || push(&s.levels[h], cursor, sizes[h]) < 0) {
            release(&s);
            return -1;
        }
        cursor += sizes[h];
        count += sizes[h];
    }
    if (process_batch(&s, batch, batch_len, &n, &max_count, &count) < 0) {
        release(&s);
        return -1;
    }
    int64_t *block = malloc((size_t)(s.height + count + 1) * sizeof(int64_t));
    if (block == NULL) {
        release(&s);
        return -1;
    }
    int64_t *keys = block + s.height;
    for (int64_t h = 0; h < s.height; h++) {
        block[h] = s.levels[h].size;
        memcpy(keys, s.levels[h].data, (size_t)s.levels[h].size * sizeof(int64_t));
        keys += s.levels[h].size;
    }
    state[0] = n;
    state[1] = max_count;
    state[2] = s.draws;
    state[3] = count;
    for (int i = 0; i < MT_N; i++) {
        mt[i] = s.mt.words[i];
    }
    mt[MT_N] = (uint32_t)s.mt.index;
    *out = block;
    int64_t new_height = s.height;
    release(&s);
    return new_height;
}

void kll_free(int64_t *block) { free(block); }
