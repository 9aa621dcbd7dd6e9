/* Control-baseline hit count for xsplanes.experiment, loaded with ctypes.
 *
 * xs_control_hits draws numpy's Philox(key=k0 + k1 * 2**64).random_raw
 * stream on from the 256-bit counter ctr and returns how many of its next
 * n points lie within thr of one of eight planes, allocating nothing.
 * Point i is words 3i, 3i+1 and 3i+2 of the stream, each shifted right by
 * 11, the 53-bit coordinates (X, Y, Z).  It is a hit if for some plane j,
 * T = (Z - c[j]*X - sy[j]*Y) mod 2**53 in uint64 wraparound arithmetic has
 * min(T, 2**53 - T) <= thr, where c[j] is sign_x * m and sy[j] is sign_y,
 * both mod 2**64.
 *
 * The stream is Philox4x64-10 (Salmon et al., SC 2011) as numpy draws it:
 * the 256-bit counter starts at 0 and is incremented, with carry, before
 * each block of four words, and the key is bumped between the ten rounds.
 * Four points take three blocks; the words of the last block past point
 * n - 1 are dropped, as the stream stops there.  ctr is left at the last
 * block's counter, so calls of a multiple of 4 points each, from a counter
 * of 0, draw one stream.
 */
#include <stdint.h>

typedef unsigned __int128 u128;

#define ONE (1ull << 53)
#define MASK53 (ONE - 1)

static void philox(const uint64_t ctr[4], uint64_t k0, uint64_t k1, uint64_t out[4])
{
    uint64_t v0 = ctr[0], v1 = ctr[1], v2 = ctr[2], v3 = ctr[3];
    for (int r = 0; r < 10; r++) {
        if (r) {
            k0 += 0x9E3779B97F4A7C15ull;
            k1 += 0xBB67AE8584CAA73Bull;
        }
        u128 p0 = (u128)0xD2E7470EE14C6C93ull * v0, p1 = (u128)0xCA5A826395121157ull * v2;
        v0 = (uint64_t)(p1 >> 64) ^ v1 ^ k0;
        v1 = (uint64_t)p1;
        v2 = (uint64_t)(p0 >> 64) ^ v3 ^ k1;
        v3 = (uint64_t)p0;
    }
    out[0] = v0, out[1] = v1, out[2] = v2, out[3] = v3;
}

int64_t xs_control_hits(uint64_t k0, uint64_t k1, uint64_t ctr[4], int64_t n, const uint64_t *c, const uint64_t *sy,
                        uint64_t thr)
{
    uint64_t w[12];
    int64_t hits = 0;
    for (int64_t i = 0; i < n; i += 4) {
        for (int b = 0; b < 3; b++) {
            for (int j = 0; j < 4 && ++ctr[j] == 0; j++)
                ;
            philox(ctr, k0, k1, w + 4 * b);
        }
        for (int p = 0; p < 4 && i + p < n; p++) {
            uint64_t x = w[3 * p] >> 11, y = w[3 * p + 1] >> 11, z = w[3 * p + 2] >> 11;
            int hit = 0;
            for (int j = 0; j < 8; j++) {
                uint64_t t = (z - c[j] * x - sy[j] * y) & MASK53;
                hit |= (t < ONE - t ? t : ONE - t) <= thr;
            }
            hits += hit;
        }
    }
    return hits;
}
