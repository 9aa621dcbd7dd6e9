/* CSV text of float64 rows for xsplanes.experiment, loaded with ctypes.
 *
 * xs_format_rows writes each row of a (rows, 3) float64 array as
 * "%.17g,%.17g,%.17g\n", byte for byte as Python's '%.17g' % v, and
 * returns the number of bytes written.  Before row r it also writes one
 * blank line "\n" for each of the nbreaks row indices in breaks (ascending,
 * may repeat; NULL if nbreaks is 0) that equals r, and after the last row
 * one for each that equals rows.  A value takes at most 24 bytes (sign, 17
 * digits, point and a three-digit exponent, as in -4.9406564584124654e-324),
 * so a row takes at most 3 * 24 + 3 = 75 bytes, and out must hold
 * 75 * rows + nbreaks.  Returns -1, with out undefined, if no C numeric
 * locale can be made.
 *
 * A value with the same bit pattern as the one above it in its column,
 * such as a mesh's x along a strip, copies that row's text instead of
 * being formatted again.  Comparing bits keeps -0.0 and 0.0 apart.
 *
 * Finite values with 1e-5 <= |v| < 2**120 are converted exactly in
 * integers.  With v = m * 2**q and E = floor(log10 |v|), the 17 digits are
 * N = round-half-even(|v| * 10**(16 - E)), a quotient of 128-bit values:
 * for k = 16 - E >= 0 the numerator m * 10**k is below 2**53 * 10**22 <
 * 2**127, and for k < 0 it is m * 2**q < 2**120.  E is first taken as
 * floor(log10 2**e2) for the binary exponent e2, exact over this range,
 * which is E or E - 1; an N of 10**17 or more means E + 1, whether the
 * estimate was low or rounding carried into an 18th digit, and is
 * recomputed there once.  The digits of N come two at a time from a table
 * of the pairs 00..99, for its top nine and low eight digits apart.  They
 * are laid out as %g does: trailing zeros dropped, exponent form e+XX /
 * e-XX when E < -4 or E >= 17.
 *
 * Zeros are written as 0 and -0.  Every other value (tiny, huge,
 * subnormal, inf) goes through snprintf under a C LC_NUMERIC locale, so
 * the text never depends on the caller's locale; NaN of either sign
 * prints as nan, as in Python.
 */
#include <locale.h>
#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>

typedef unsigned __int128 u128;

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

/* round-half-even(m * 2**q * 10**k), for -21 <= k <= 22 and results below 2**64 */
static uint64_t scaled(uint64_t m, int q, int k)
{
    if (k < 0) {  /* here |v| >= 1e17 > 2**53, so q > 0 */
        u128 num = (u128)m << q, den = ten_to(-k);
        uint64_t n = (uint64_t)(num / den);
        u128 rem2 = 2 * (num % den);
        return n + (rem2 > den || (rem2 == den && (n & 1)));
    }
    u128 num = m * ten_to(k);
    if (q >= 0)
        return (uint64_t)(num << q);
    u128 half = (u128)1 << (-q - 1), rem = num & ((half << 1) - 1);
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

/* The %.17g text of v at p, for 1e-5 <= |v| < 2**120; returns its length. */
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
    if (e < -4 || e >= 17) {  /* here |e| <= 36, two exponent digits */
        *s++ = d[0];
        if (nd > 1) {
            *s++ = '.';
            memcpy(s, d + 1, nd - 1);
            s += nd - 1;
        }
        *s++ = 'e';
        *s++ = e < 0 ? '-' : '+';
        int a = e < 0 ? -e : e;
        *s++ = (char)('0' + a / 10);
        *s++ = (char)('0' + a % 10);
    } else if (e >= 0) {
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
    if (a >= 1e-5 && a < 0x1p120)
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

int64_t xs_format_rows(const double *v, int64_t rows, const int64_t *breaks, int64_t nbreaks, char *out)
{
    locale_t c = (locale_t)0, old = (locale_t)0;
    char *p = out, *above[3] = {0};  /* each column's text in the row above */
    int len[3] = {0};
    int64_t b = 0;
    for (int64_t r = 0; r < rows; r++) {
        for (; b < nbreaks && breaks[b] <= r; b++)
            *p++ = '\n';
        for (int k = 0; k < 3; k++) {
            const double *x = &v[3 * r + k];
            if (r && !memcmp(x, x - 3, sizeof *x))
                memcpy(p, above[k], len[k]);
            else if ((len[k] = text(*x, p, &c, &old)) < 0)
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
