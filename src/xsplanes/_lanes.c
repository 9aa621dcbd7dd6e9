/* Lane scan of xorshift128+ for xsplanes.experiment, loaded with ctypes.
 *
 * Compiled once per shift triple, given as -DSHIFT_A=a -DSHIFT_B=b
 * -DSHIFT_C=c, so every shift is by a constant.  The stages that take the
 * shifts as arguments, the lane starts and the case census among them, are
 * in _stages.c, built once per machine.
 *
 * xs_scan_lanes: lane j starts at state (hi[j], lo[j]), stream offset
 * base + j*seg_len, and is advanced seg_len steps.  At step t, a lane whose
 * output s0 + s1 is at most last_in is a hit, stored as a row of hits, a
 * cap x 3 array: its offset base + j*seg_len + t and its state s0, s1.
 * Returns the number of hits, which may exceed cap: only the first
 * cap are stored.  Lanes run in interleaved groups of GROUP so the compiler
 * vectorizes the step across lanes; a short last group repeats its last
 * lane, whose hits are not stored twice.  Hits come in order of group,
 * then t, then lane.
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
                    hits[3 * n] = base + (uint64_t)((g + j) * seg_len + t);
                    hits[3 * n + 1] = s0[j];
                    hits[3 * n + 2] = s1[j];
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
