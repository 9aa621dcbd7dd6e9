/* Lane scan of xorshift128+ for xsplanes.experiment, loaded with ctypes.
 *
 * Lane j starts at state (hi[j], lo[j]) and is advanced seg_len steps.  At
 * step t, a lane whose output s0 + s1 is at most last_in is a hit, stored
 * as (lane, t, s0, s1) in the rows of hits, a 4 x cap array.  Returns the
 * number of hits, which may exceed cap: only the first cap are stored.
 * Lanes run in interleaved groups of GROUP so the compiler vectorizes the
 * step across lanes; a short last group repeats its last lane, whose hits
 * are not stored twice.
 */
#include <stdint.h>

#define GROUP 32

__attribute__((target_clones("avx512f", "avx2", "default")))
int64_t xs_scan_lanes(const uint64_t *hi, const uint64_t *lo, int64_t lanes, int64_t seg_len,
                      int a, int b, int c, uint64_t last_in, uint64_t *hits, int64_t cap)
{
    int64_t n = 0;
    for (int64_t g = 0; g < lanes; g += GROUP) {
        int64_t m = lanes - g < GROUP ? lanes - g : GROUP;
        uint64_t s0[GROUP], s1[GROUP];
        for (int j = 0; j < GROUP; j++) {
            s0[j] = hi[g + (j < m ? j : m - 1)];
            s1[j] = lo[g + (j < m ? j : m - 1)];
        }
        for (int64_t t = 0; t < seg_len; t++) {
            int any = 0;
            for (int j = 0; j < GROUP; j++)
                any |= s0[j] + s1[j] <= last_in;
            if (any) {
                for (int j = 0; j < m; j++) {
                    if (s0[j] + s1[j] > last_in)
                        continue;
                    if (n < cap) {
                        hits[n] = g + j;
                        hits[cap + n] = t;
                        hits[2 * cap + n] = s0[j];
                        hits[3 * cap + n] = s1[j];
                    }
                    n++;
                }
            }
            for (int j = 0; j < GROUP; j++) {
                uint64_t x = s0[j] ^ (s0[j] << a), y = s1[j];
                s0[j] = y;
                s1[j] = x ^ (x >> b) ^ y ^ (y >> c);
            }
        }
    }
    return n;
}
