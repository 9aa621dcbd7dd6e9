/* Lane scan and case census of xorshift128+ for xsplanes.experiment, loaded
 * with ctypes.
 *
 * Compiled once per shift triple, given as -DSHIFT_A=a -DSHIFT_B=b
 * -DSHIFT_C=c, so every shift is by a constant.
 *
 * The lane scan, xs_scan_lanes: lane j starts at state (hi[j], lo[j]),
 * stream offset base + j*seg_len, and is advanced seg_len steps.  At step
 * t, a lane whose output s0 + s1 is at most last_in is a hit, stored as its
 * offset base + j*seg_len + t and its state s0, s1 in the rows of hits, a
 * 3 x cap array.  Returns the number of hits, which may exceed cap: only
 * the first cap are stored.  Lanes run in interleaved groups of GROUP so
 * the compiler vectorizes the step across lanes; a short last group repeats
 * its last lane, whose hits are not stored twice.  Hits come in order of
 * group, then t, then lane.
 *
 * Testing every step for a hit costs a horizontal OR over the group.  On a
 * sparse slab, where a group expects under 1/4 hit in CHUNK steps
 * (2**64 / (last_in + 1) >= 4 * GROUP * CHUNK), a group instead runs CHUNK
 * steps at a time keeping each lane's running minimum output, and reruns
 * the chunk from a saved copy of its states, testing every step, only when
 * a minimum is in the slab.  Denser slabs and a segment's last partial
 * chunk test every step.
 *
 * On x86-64 the scan is compiled for AVX-512, AVX2 and plain x86-64, and
 * the CPU picks one at each call.  The helpers are always inlined, so each
 * build compiles them for its own instruction set.  Other targets reject
 * those builds' target attributes and feature tests, so there, and on
 * x86-64 under -DPLAIN_SCAN_ONLY (which only the tests set, to check this
 * branch), xs_scan_lanes is the plain scan alone.
 *
 * The case census, xs_census, walks the stream one step at a time from a
 * state, which it leaves where the walk ends, and allocates nothing.  It is
 * scalar code, built once outside the scan's instruction-set builds.
 *
 * The lane starts, xs_lane_starts, are the states at stream offsets 0,
 * seg_len, 2*seg_len, ... from a state, reached by GF(2) jump-ahead.  The
 * step is linear in the packed pair (s0 << 64) | s1; its matrix, held as
 * the images of the 128 basis vectors, is raised to seg_len by squaring.
 * The power is then turned into 16 tables, one per byte of a state, of the
 * xors of every subset of that byte's 8 basis images, so a jump is 32
 * lookups, and each start is the jump of the one before.  Like xs_census it
 * takes its state in and out, leaving it lanes*seg_len steps on, and is
 * scalar code built once.  Its tables (64 KB) live on its stack: it keeps
 * no static state, so threads may call it at once.
 */
#include <stdint.h>
#include <string.h>

#define GROUP 32
#define CHUNK 64

static inline __attribute__((always_inline))
void step(uint64_t *s0, uint64_t *s1)
{
    for (int j = 0; j < GROUP; j++) {
        uint64_t x = s0[j] ^ (s0[j] << SHIFT_A), y = s1[j];
        s0[j] = y;
        s1[j] = x ^ (x >> SHIFT_B) ^ y ^ (y >> SHIFT_C);
    }
}

/* Steps m lanes of group g from t0 to t_end, testing every step; returns the new hit count. */
static inline __attribute__((always_inline))
int64_t record(uint64_t *s0, uint64_t *s1, int64_t g, int64_t m, int64_t t0, int64_t t_end, int64_t seg_len,
               uint64_t base, uint64_t last_in, uint64_t *hits, int64_t cap, int64_t n)
{
    for (int64_t t = t0; t < t_end; t++) {
        int any = 0;
        for (int j = 0; j < GROUP; j++)
            any |= s0[j] + s1[j] <= last_in;
        if (any) {
            for (int j = 0; j < m; j++) {
                if (s0[j] + s1[j] > last_in)
                    continue;
                if (n < cap) {
                    hits[n] = base + (uint64_t)((g + j) * seg_len + t);
                    hits[cap + n] = s0[j];
                    hits[2 * cap + n] = s1[j];
                }
                n++;
            }
        }
        step(s0, s1);
    }
    return n;
}

#define PARAMS const uint64_t *hi, const uint64_t *lo, int64_t lanes, int64_t seg_len, uint64_t base, \
               uint64_t last_in, uint64_t *hits, int64_t cap
#define ARGS hi, lo, lanes, seg_len, base, last_in, hits, cap

static inline __attribute__((always_inline))
int64_t scan(PARAMS)
{
    int sparse = last_in <= UINT64_MAX / (4 * GROUP * CHUNK);
    int64_t n = 0;
    for (int64_t g = 0; g < lanes; g += GROUP) {
        int64_t m = lanes - g < GROUP ? lanes - g : GROUP;
        uint64_t s0[GROUP], s1[GROUP];
        for (int j = 0; j < GROUP; j++) {
            s0[j] = hi[g + (j < m ? j : m - 1)];
            s1[j] = lo[g + (j < m ? j : m - 1)];
        }
        int64_t t = 0;
        if (sparse) {
            for (; t + CHUNK <= seg_len; t += CHUNK) {
                uint64_t k0[GROUP], k1[GROUP], least[GROUP];
                memcpy(k0, s0, sizeof s0);
                memcpy(k1, s1, sizeof s1);
                for (int j = 0; j < GROUP; j++)
                    least[j] = UINT64_MAX;
                for (int i = 0; i < CHUNK; i++) {
                    for (int j = 0; j < GROUP; j++) {
                        uint64_t o = s0[j] + s1[j];
                        least[j] = o < least[j] ? o : least[j];
                    }
                    step(s0, s1);
                }
                int any = 0;
                for (int j = 0; j < GROUP; j++)
                    any |= least[j] <= last_in;
                if (any)  /* steps the saved states to the same end */
                    n = record(k0, k1, g, m, t, t + CHUNK, seg_len, base, last_in, hits, cap, n);
            }
        }
        n = record(s0, s1, g, m, t, seg_len, seg_len, base, last_in, hits, cap, n);
    }
    return n;
}

#if defined(__x86_64__) && !defined(PLAIN_SCAN_ONLY)
__attribute__((target("avx512f"))) static int64_t scan_avx512f(PARAMS) { return scan(ARGS); }
__attribute__((target("avx2"))) static int64_t scan_avx2(PARAMS) { return scan(ARGS); }

int64_t xs_scan_lanes(PARAMS)
{
    if (__builtin_cpu_supports("avx512f"))
        return scan_avx512f(ARGS);
    if (__builtin_cpu_supports("avx2"))
        return scan_avx2(ARGS);
    return scan(ARGS);
}
#else
int64_t xs_scan_lanes(PARAMS) { return scan(ARGS); }
#endif

static inline uint64_t next_word(uint64_t s0, uint64_t s1)
{
    uint64_t x = s0 ^ (s0 << SHIFT_A);
    return x ^ (x >> SHIFT_B) ^ s1 ^ (s1 >> SHIFT_C);
}

/* The column conditions on the top bits x >> drop, y >> drop: bit 0 sum, bit 1 diff, bit 2 rev_diff. */
static inline int cases(uint64_t x, uint64_t y, int drop)
{
    x >>= drop;
    y >>= drop;
    return ((x & y) == 0) | ((~x & y) == 0) << 1 | ((x & ~y) == 0) << 2;
}

/* The census of n steps of the stream w[0] = s[0], w[1] = s[1], ... on the
 * top n_bits bits.  Step i sees w[i..i+3].  Its inner cases are those of
 * (w, w << a) and its outer cases those of (w_next, w ^ (w << a)), each
 * held at both w[i] and w[i+1]; cell 3*o + k, for outer case o and inner
 * case k, holds when both do.  counts[cell] counts the steps where the cell
 * holds, and *leaks those cells whose plane value cx[cell]*x + cy[cell]*y,
 * in uint64 wraparound arithmetic, differs from z in the top bits, where x,
 * y and z are the step's outputs w[i] + w[i+1], w[i+1] + w[i+2] and
 * w[i+2] + w[i+3].  counts and *leaks are added to, not set, and s is left
 * at w[n], w[n+1], so consecutive calls count one stream.  Returns the
 * number of steps where some cell holds.
 */
int64_t xs_census(uint64_t s[2], int64_t n, int64_t n_bits, const uint64_t *cx, const uint64_t *cy, int64_t *counts,
                  int64_t *leaks)
{
    int drop = 64 - (int)n_bits;
    uint64_t w0 = s[0], w1 = s[1], w2 = next_word(w0, w1), w3 = next_word(w1, w2);
    int inner = cases(w0, w0 << SHIFT_A, drop), outer = cases(w1, w0 ^ (w0 << SHIFT_A), drop);
    int64_t compound = 0;
    for (int64_t i = 0; i < n; i++) {
        uint64_t shifted = w1 << SHIFT_A;
        int inner1 = cases(w1, shifted, drop), outer1 = cases(w2, w1 ^ shifted, drop);
        int both_inner = inner & inner1, both_outer = outer & outer1;
        if (both_inner && both_outer) {
            uint64_t x = w0 + w1, y = w1 + w2, z = w2 + w3;
            for (int o = 0; o < 3; o++) {
                for (int k = 0; k < 3; k++) {
                    if (both_outer >> o & both_inner >> k & 1) {
                        counts[3 * o + k]++;
                        *leaks += ((cx[3 * o + k] * x + cy[3 * o + k] * y) ^ z) >> drop != 0;
                    }
                }
            }
            compound++;
        }
        inner = inner1;
        outer = outer1;
        w0 = w1;
        w1 = w2;
        w2 = w3;
        w3 = next_word(w1, w2);
    }
    s[0] = w0;
    s[1] = w1;
    return compound;
}

/* A linear map of packed pairs as its 128 basis images: image i, of the
 * vector with only the i-th bit from the top set, is (m[i][0], m[i][1]). */
typedef uint64_t map_t[128][2];
/* Table k of a map: entry b is the xor of images 8k + j for each bit 7 - j set in b. */
typedef uint64_t tables_t[16][256][2];

static void fill_tables(const map_t m, tables_t tab)
{
    for (int k = 0; k < 16; k++) {
        tab[k][0][0] = tab[k][0][1] = 0;
        for (int j = 0; j < 8; j++) {  /* byte values with highest set bit 1 << j */
            for (int b = 0; b < 1 << j; b++) {
                tab[k][(1 << j) + b][0] = tab[k][b][0] ^ m[8 * k + 7 - j][0];
                tab[k][(1 << j) + b][1] = tab[k][b][1] ^ m[8 * k + 7 - j][1];
            }
        }
    }
}

/* The map of tab applied to (v[0], v[1]), written to out, which may be v. */
static inline void apply(const tables_t tab, const uint64_t v[2], uint64_t out[2])
{
    uint64_t o0 = 0, o1 = 0;
    for (int k = 0; k < 8; k++) {
        const uint64_t *e0 = tab[k][v[0] >> (56 - 8 * k) & 255], *e1 = tab[8 + k][v[1] >> (56 - 8 * k) & 255];
        o0 ^= e0[0] ^ e1[0];
        o1 ^= e0[1] ^ e1[1];
    }
    out[0] = o0;
    out[1] = o1;
}

/* Writes the states at stream offsets j*seg_len from s to (hi[j], lo[j]),
 * j = 0..lanes-1 (lanes, seg_len >= 0), and leaves s at offset
 * lanes*seg_len. */
void xs_lane_starts(uint64_t s[2], int64_t lanes, int64_t seg_len, uint64_t *hi, uint64_t *lo)
{
    map_t power, base;
    tables_t tab;
    for (int i = 0; i < 128; i++) {
        uint64_t s0 = i < 64 ? (uint64_t)1 << (63 - i) : 0, s1 = i < 64 ? 0 : (uint64_t)1 << (127 - i);
        power[i][0] = s0;  /* the identity */
        power[i][1] = s1;
        base[i][0] = s1;  /* one step */
        base[i][1] = next_word(s0, s1);
    }
    for (uint64_t k = (uint64_t)seg_len; k; k >>= 1) {
        fill_tables(base, tab);
        for (int i = 0; i < 128; i++) {
            if (k & 1)
                apply(tab, power[i], power[i]);
            if (k > 1)
                apply(tab, base[i], base[i]);
        }
    }
    fill_tables(power, tab);
    uint64_t v[2] = {s[0], s[1]};
    for (int64_t j = 0; j < lanes; j++) {
        hi[j] = v[0];
        lo[j] = v[1];
        apply(tab, v, v);
    }
    s[0] = v[0];
    s[1] = v[1];
}
