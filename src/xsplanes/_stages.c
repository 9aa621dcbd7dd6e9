/* The compiled stages of xsplanes.experiment that need no constant shift
 * counts, loaded with ctypes: the lane starts, the finishing of the scan's
 * hits and the case census of xorshift128+, which take the shifts a, b, c
 * as arguments, the nearest-plane scoring of the slab points and of the
 * control baseline's Philox points, the plane meshes and the CSV text.  It
 * is built once per machine, with no -D flags and with -ffp-contract=off, so
 * that no fused multiply-add changes a mesh vertex; the lane scan, whose
 * shifts are constants, is _lanes.c, built once per shift triple.  Every
 * function here is scalar code and keeps no static state, so threads may
 * call it at once.
 */
#include <locale.h>
#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>

typedef unsigned __int128 u128;

static inline uint64_t next_word(uint64_t s0, uint64_t s1, int a, int b, int c)
{
    uint64_t x = s0 ^ (s0 << a);
    return x ^ (x >> b) ^ s1 ^ (s1 >> c);
}

/* ---- Lane starts --------------------------------------------------------
 *
 * xs_lane_starts gives the states at stream offsets 0, seg_len, 2*seg_len,
 * ... from a state, reached by GF(2) jump-ahead.  The step is linear in the
 * packed pair (s0 << 64) | s1; its matrix, held as the images of the 128
 * basis vectors, is raised to seg_len by squaring.  The power is then
 * turned into 16 tables, one per byte of a state, of the xors of every
 * subset of that byte's 8 basis images, so a jump is 32 lookups, and each
 * start is the jump of the one before.  It takes its state in and out,
 * leaving it lanes*seg_len steps on.  Its tables (64 KB) live on its stack.
 */

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

/* Writes the states of the shifts (a, b, c) at stream offsets j*seg_len
 * from s to (hi[j], lo[j]), j = 0..lanes-1 (lanes, seg_len >= 0), and
 * leaves s at offset lanes*seg_len. */
void xs_lane_starts(int a, int b, int c, uint64_t s[2], int64_t lanes, int64_t seg_len, uint64_t *hi, uint64_t *lo)
{
    map_t power, base;
    tables_t tab;
    for (int i = 0; i < 128; i++) {
        uint64_t s0 = i < 64 ? (uint64_t)1 << (63 - i) : 0, s1 = i < 64 ? 0 : (uint64_t)1 << (127 - i);
        power[i][0] = s0;  /* the identity */
        power[i][1] = s1;
        base[i][0] = s1;  /* one step */
        base[i][1] = next_word(s0, s1, a, b, c);
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

/* ---- Hit finishing ------------------------------------------------------
 *
 * xs_finish_hits takes the n hit rows (offset, s0, s1) that the lane scan
 * gathered, in any order, and sorts them by offset, least significant
 * 11-bit digit first, through tmp, which holds n rows as well; the offsets
 * are distinct.  The first keep rows (keep <= n) then become the words
 * (X << e, Y, Z) of the slab points, where X, Y and Z are the top 53 bits
 * of the triple's outputs s0 + s1 and the next two.  Returns the offset of
 * the last kept row, or 0 if keep is 0.
 */

static void sort_rows(uint64_t *rows, uint64_t *tmp, int64_t n)
{
    uint64_t top = 0, *src = rows, *dst = tmp;
    for (int64_t i = 0; i < n; i++)
        top |= rows[3 * i];
    for (int shift = 0; shift < 64 && top >> shift; shift += 11) {
        int64_t at[2049] = {0};
        for (int64_t i = 0; i < n; i++)
            at[(src[3 * i] >> shift & 2047) + 1]++;
        for (int d = 0; d < 2048; d++)
            at[d + 1] += at[d];
        for (int64_t i = 0; i < n; i++)
            memcpy(dst + 3 * at[src[3 * i] >> shift & 2047]++, src + 3 * i, 3 * sizeof *src);
        uint64_t *t = src;
        src = dst;
        dst = t;
    }
    if (src != rows)
        memcpy(rows, src, 3 * sizeof *src * (size_t)n);
}

uint64_t xs_finish_hits(int a, int b, int c, int e, uint64_t *rows, uint64_t *tmp, int64_t n, int64_t keep)
{
    sort_rows(rows, tmp, n);
    uint64_t last = keep ? rows[3 * (keep - 1)] : 0;
    for (int64_t i = 0; i < keep; i++) {
        uint64_t *r = rows + 3 * i, s0 = r[1], s1 = r[2], s2 = next_word(s0, s1, a, b, c);
        r[0] = (s0 + s1) >> 11 << e;
        r[1] = (s1 + s2) >> 11;
        r[2] = (s2 + next_word(s1, s2, a, b, c)) >> 11;
    }
    return last;
}

/* ---- Case census -------------------------------------------------------- */

/* The column conditions on the top bits x >> drop, y >> drop: bit 0 sum, bit 1 diff, bit 2 rev_diff. */
static inline int cases(uint64_t x, uint64_t y, int drop)
{
    x >>= drop;
    y >>= drop;
    return ((x & y) == 0) | ((~x & y) == 0) << 1 | ((x & ~y) == 0) << 2;
}

/* The census of n steps of the stream of the shifts (a, b, c), w[0] = s[0],
 * w[1] = s[1], ..., on the top n_bits bits, walked one step at a time
 * without allocating.  Step i sees w[i..i+3].  Its inner cases are those of
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
int64_t xs_census(int a, int b, int c, uint64_t s[2], int64_t n, int64_t n_bits, const uint64_t *cx,
                  const uint64_t *cy, int64_t *counts, int64_t *leaks)
{
    int drop = 64 - (int)n_bits;
    uint64_t w0 = s[0], w1 = s[1], w2 = next_word(w0, w1, a, b, c), w3 = next_word(w1, w2, a, b, c);
    int inner = cases(w0, w0 << a, drop), outer = cases(w1, w0 ^ (w0 << a), drop);
    int64_t compound = 0;
    for (int64_t i = 0; i < n; i++) {
        uint64_t shifted = w1 << a;
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
        w3 = next_word(w1, w2, a, b, c);
    }
    s[0] = w0;
    s[1] = w1;
    return compound;
}

/* ---- Plane scoring ------------------------------------------------------
 *
 * A point's distance to plane j of the eight is min(T, 2**53 - T) for
 * T = (Z - c[j]*X - sy[j]*Y) mod 2**53 in uint64 wraparound arithmetic, on
 * its 53-bit coordinates (X, Y, Z), where c[j] is sign_x * m and sy[j] is
 * sign_y, both mod 2**64.  nearest takes the arg-min over the planes in
 * order, keeping the earliest on a tie.  xs_hit_counts scores n slab
 * points, rows of words (X << e, Y, Z), and writes to counts[j] how many
 * lie within thr of plane j, their nearest; it returns their sum.
 */

#define ONE (1ull << 53)
#define MASK53 (ONE - 1)

static inline uint64_t nearest(uint64_t x, uint64_t y, uint64_t z, const uint64_t *c, const uint64_t *sy, int *which)
{
    uint64_t best = ONE;
    int k = 0;
    for (int j = 0; j < 8; j++) {
        uint64_t t = (z - c[j] * x - sy[j] * y) & MASK53, d = t < ONE - t ? t : ONE - t;
        k = d < best ? j : k;
        best = d < best ? d : best;
    }
    *which = k;
    return best;
}

int64_t xs_hit_counts(const uint64_t *p, int64_t n, int e, const uint64_t *c, const uint64_t *sy, uint64_t thr,
                      int64_t *counts)
{
    int64_t hits = 0;
    memset(counts, 0, 8 * sizeof *counts);
    for (int64_t i = 0; i < n; i++) {
        int which;
        if (nearest(p[3 * i] >> e, p[3 * i + 1], p[3 * i + 2], c, sy, &which) <= thr) {
            counts[which]++;
            hits++;
        }
    }
    return hits;
}

/* ---- Control count ------------------------------------------------------
 *
 * xs_control_hits draws numpy's Philox(key=k0 + k1 * 2**64).random_raw
 * stream on from the 256-bit counter ctr and returns how many of its next
 * n points lie within thr of their nearest plane, allocating nothing.
 * Point i is words 3i, 3i+1 and 3i+2 of the stream, each shifted right by
 * 11, the 53-bit coordinates (X, Y, Z).
 *
 * The stream is Philox4x64-10 (Salmon et al., SC 2011) as numpy draws it:
 * the 256-bit counter starts at 0 and is incremented, with carry, before
 * each block of four words, and the key is bumped between the ten rounds.
 * Four points take three blocks; the words of the last block past point
 * n - 1 are dropped, as the stream stops there.  ctr is left at the last
 * block's counter, so calls of a multiple of 4 points each, from a counter
 * of 0, draw one stream.
 */

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
            int which;
            hits += nearest(w[3 * p] >> 11, w[3 * p + 1] >> 11, w[3 * p + 2] >> 11, c, sy, &which) <= thr;
        }
    }
    return hits;
}

/* ---- Meshes -------------------------------------------------------------
 *
 * xs_mesh_stations computes the grid vertices (magnify*x, y, z) of each x
 * station j = j0..j1-1 in turn, k = 0..grid-1, with x = (j / (grid-1)) *
 * x_max, y = k / (grid-1), f = coef*x + sign_y*y and z = f - floor(f), each
 * operation rounded once.  A strip runs along y while floor(f), its branch,
 * stays the same.  The strips of at least two vertices are packed into v
 * from row at on, each directly after the one before; a shorter fragment is
 * rewound, so v holds no gap, and v must hold at + (j1 - j0) * grid rows.
 * Strip i of the call starts where the one before ends (strip 0 at row at)
 * and ends before row ends[i], counted from v; its branch goes to
 * branches[i].  Returns the number of strips, at most grid/2 a station.
 * floor is taken in integers, exact for |f| < 2**63, with the sign of f, so
 * that floor(-0.0) is -0.0 and z is 0.0 there, as in Python.
 */

int64_t xs_mesh_stations(int64_t j0, int64_t j1, int64_t grid, double x_max, double magnify, double coef,
                         double sign_y, double *v, int64_t at, int64_t *ends, int64_t *branches)
{
    double steps = (double)(grid - 1);
    int64_t n = 0;
    for (int64_t j = j0; j < j1; j++) {
        double x = (double)j / steps * x_max, x_mag = magnify * x;
        int64_t first = at, run = 0;
        for (int64_t k = 0; k <= grid; k++) {
            double y = (double)k / steps, f = coef * x + sign_y * y;
            int64_t branch = k < grid ? (int64_t)f - ((double)(int64_t)f > f) : run;
            if (k > 0 && (k == grid || branch != run)) {  /* the fragment from row first ends */
                if (at - first >= 2) {
                    ends[n] = at;
                    branches[n++] = run;
                } else {
                    at = first;
                }
                first = at;
            }
            if (k < grid) {
                v[3 * at] = x_mag;
                v[3 * at + 1] = y;
                v[3 * at + 2] = f - copysign((double)branch, f);
                at++;
            }
            run = branch;
        }
    }
    return n;
}

/* ---- CSV text -----------------------------------------------------------
 *
 * xs_format_rows writes rows first..end-1 of an array of rows of three
 * values v, each as "%.17g,%.17g,%.17g\n", byte for byte as Python's
 * '%.17g' % row, and returns the number of bytes written.  The array holds
 * float64 values, or with words set uint64 words w < 2**53, each the value
 * w * 2**-53.  Before row r it also writes one blank line "\n" for each of
 * the nbreaks row indices in breaks (ascending, may repeat, from first to
 * end) that equals r, and after the last row one for each that equals end.
 * A value takes at most 24 bytes (sign, 17 digits, point and a three-digit
 * exponent, as in -4.9406564584124654e-324), so a row takes at most 3 * 24
 * + 3 = 75 bytes, and out must hold 75 * (end - first) + nbreaks.  Returns
 * -1, with out undefined, if no C numeric locale can be made.
 *
 * A value with the same bit pattern as the one above it in its column,
 * such as a mesh's x along a strip, copies the text of that row (from row
 * first + 1 on, as the row above first is not written) instead of
 * being formatted again.  Comparing bits keeps -0.0 and 0.0 apart, and a
 * word's value is one-to-one with its bits.
 *
 * Values with 1e-4 <= |v| < 2**52, whose text has no exponent, are
 * converted exactly in integers.  With v = m * 2**q (here q < 0) and
 * E = floor(log10 |v|), the 17 digits are N = round-half-even(|v| *
 * 10**k) for k = 16 - E, the quotient of m * 10**k by 2**-q.  k runs from
 * 1 to 21, so m * 10**k < 2**53 * 10**21 < 2**123.  E is first taken as
 * floor(log10 2**e2) for the binary exponent e2, which is E or E - 1 (-5
 * just above 1e-4); an N of 10**17 or more means E + 1, whether the
 * estimate was low or rounding carried into an 18th digit, and is
 * recomputed there once.  The digits of N come two at a time from a table
 * of the pairs 00..99, for its top nine and low eight digits apart.  They
 * are laid out as %g does for -4 <= E <= 16: trailing zeros dropped.
 *
 * Zeros are written as 0 and -0.  Every other value (small, large,
 * subnormal, inf) goes through snprintf under a C LC_NUMERIC locale, so
 * the text never depends on the caller's locale; NaN of either sign
 * prints as nan, as in Python.
 */

#define TEN17 100000000000000000ull
#define TEN8 100000000u

static const char PAIRS[200] =
    "00010203040506070809101112131415161718192021222324252627282930313233343536373839"
    "40414243444546474849505152535455565758596061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

static const uint64_t P10[20] = {
    1ull, 10ull, 100ull, 1000ull, 10000ull, 100000ull, 1000000ull, 10000000ull, 100000000ull,
    1000000000ull, 10000000000ull, 100000000000ull, 1000000000000ull, 10000000000000ull,
    100000000000000ull, 1000000000000000ull, 10000000000000000ull, 100000000000000000ull,
    1000000000000000000ull, 10000000000000000000ull,
};

static u128 ten_to(int k)
{
    return k < 20 ? (u128)P10[k] : (u128)P10[19] * P10[k - 19];
}

/* round-half-even(m * 2**q * 10**k), for q < 0, 1 <= k <= 21 and results below 2**64 */
static uint64_t scaled(uint64_t m, int q, int k)
{
    u128 num = m * ten_to(k), half = (u128)1 << (-q - 1), rem = num & ((half << 1) - 1);
    uint64_t n = (uint64_t)(num >> -q);
    return n + (rem > half || (rem == half && (n & 1)));
}

/* the eight decimal digits of x < 10**8 at d */
static void digits8(uint32_t x, char *d)
{
    uint32_t hi = x / 10000, lo = x % 10000;
    memcpy(d, PAIRS + 2 * (hi / 100), 2);
    memcpy(d + 2, PAIRS + 2 * (hi % 100), 2);
    memcpy(d + 4, PAIRS + 2 * (lo / 100), 2);
    memcpy(d + 6, PAIRS + 2 * (lo % 100), 2);
}

/* The %.17g text of v at p, for 1e-4 <= |v| < 2**52; returns its length. */
static int exact(double v, char *p)
{
    uint64_t bits;
    memcpy(&bits, &v, sizeof bits);
    int e2 = (int)(bits >> 52 & 0x7ff) - 1023, q = e2 - 52;
    uint64_t m = (bits & ((1ull << 52) - 1)) | 1ull << 52;
    int e = (e2 * 78913) >> 18;  /* floor(e2 * log10 2) for |e2| < 1000 */
    uint64_t n = scaled(m, q, 16 - e);
    if (n >= TEN17)
        n = scaled(m, q, 16 - ++e);
    char d[17];
    uint32_t top = (uint32_t)(n / TEN8);  /* below 10**9 */
    d[0] = (char)('0' + top / TEN8);
    digits8(top % TEN8, d + 1);
    digits8((uint32_t)(n % TEN8), d + 9);
    int nd = 17;
    while (d[nd - 1] == '0')
        nd--;
    char *s = p;
    if (bits >> 63)
        *s++ = '-';
    if (e >= 0) {
        memcpy(s, d, e + 1);
        s += e + 1;
        if (nd > e + 1) {
            *s++ = '.';
            memcpy(s, d + e + 1, nd - e - 1);
            s += nd - e - 1;
        }
    } else {
        *s++ = '0';
        *s++ = '.';
        memset(s, '0', -e - 1);
        s += -e - 1;
        memcpy(s, d, nd);
        s += nd;
    }
    return (int)(s - p);
}

/* The %.17g text of v at p; returns its length, or -1 if no C locale can
 * be made.  *c holds the C locale once one is needed, and *old the
 * caller's, for xs_format_rows to restore. */
static int text(double v, char *p, locale_t *c, locale_t *old)
{
    double a = fabs(v);
    if (a >= 1e-4 && a < 0x1p52)
        return exact(v, p);
    if (a == 0) {
        memcpy(p, signbit(v) ? "-0" : "0", 2);
        return signbit(v) ? 2 : 1;
    }
    if (isnan(v)) {
        memcpy(p, "nan", 3);
        return 3;
    }
    if (!*c) {
        if (!(*c = newlocale(LC_NUMERIC_MASK, "C", (locale_t)0)))
            return -1;
        *old = uselocale(*c);
    }
    return snprintf(p, 25, "%.17g", v);  /* its NUL lands where the separator goes */
}

int64_t xs_format_rows(const void *v, int64_t first, int64_t end, int words, const int64_t *breaks, int64_t nbreaks,
                       char *out)
{
    const uint64_t *w = v;
    locale_t c = (locale_t)0, old = (locale_t)0;
    char *p = out, *above[3] = {0};  /* each column's text in the row above */
    int len[3] = {0};
    int64_t b = 0;
    for (int64_t r = first; r < end; r++) {
        for (; b < nbreaks && breaks[b] <= r; b++)
            *p++ = '\n';
        for (int k = 0; k < 3; k++) {
            const uint64_t *x = &w[3 * r + k];
            double value;
            if (words)
                value = (double)*x * 0x1p-53;
            else
                memcpy(&value, x, sizeof value);
            if (r > first && *x == x[-3])
                memcpy(p, above[k], len[k]);
            else if ((len[k] = text(value, p, &c, &old)) < 0)
                return -1;
            above[k] = p;
            p += len[k];
            *p++ = k == 2 ? '\n' : ',';
        }
    }
    for (; b < nbreaks; b++)
        *p++ = '\n';
    if (c) {
        uselocale(old);
        freelocale(c);
    }
    return p - out;
}
