/* Compiled pocket and linear-machine visit loops, the CSV-body and
 * signal-file scanners, and the CSV writer, for pairnet._kernels.
 *
 * Each loop runs the visits of one stretch of the visit order. The weights,
 * the pocket, a scratch buffer and the loop_state belong to the caller and
 * are updated in place. A loop returns the number of visits it made: the
 * whole stretch, or fewer when a visit swapped the pocket, so that the caller
 * can record the swap before it goes on.
 *
 * Every dot product is a call into numpy's own BLAS, with the arguments numpy
 * passes for the expression named beside it, so each decision is the one the
 * numpy loops make. Build with -ffp-contract=off: an update must round after
 * the product and again after the sum, as numpy's do, not once in an FMA.
 */
#define _XOPEN_SOURCE 700 /* pread, off_t */
#include <errno.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <unistd.h>

typedef int64_t blasint; /* scipy-openblas64 takes 64-bit integers */

enum { ROW_MAJOR = 101, COL_MAJOR = 102, NO_TRANS = 111, TRANS = 112 };

static double (*ddot)(blasint, const double *, blasint, const double *, blasint);
static void (*dgemv)(int, int, blasint, blasint, double, const double *, blasint,
                     const double *, blasint, double, double *, blasint);
static void (*dgemm)(int, int, int, blasint, blasint, blasint, double, const double *,
                     blasint, const double *, blasint, double, double *, blasint);

void set_blas(void *dot, void *gemv, void *gemm)
{
    ddot = dot;
    dgemv = gemv;
    dgemm = gemm;
}

/* The loop's scalars; pairnet._kernels declares the same struct. */
typedef struct {
    int64_t run;        /* correct visits since the last error */
    int64_t best_run;   /* the run that last swapped the pocket */
    double pocket_acc;
    double cached_acc;  /* the current weights' accuracy, or -1 if unknown */
} loop_state;

/* The first index of the largest of g[0..r-1], as numpy's argmax. */
static int64_t argmax(const double *g, int64_t r)
{
    int64_t best = 0;
    for (int64_t j = 1; j < r; j++)
        if (g[j] > g[best])
            best = j;
    return best;
}

/* One pocket-algorithm unit: xb is (n, d) in C order, targets holds +/-1,
 * pi and pocket hold d weights and act n scratch values. */
int64_t pocket_visits(const double *xb, const double *targets, int64_t n, int64_t d,
                      double c, double *pi, double *pocket, double *act,
                      loop_state *s, const int64_t *order, int64_t len)
{
    for (int64_t v = 0; v < len; v++) {
        const double *x = xb + order[v] * d;
        double t = targets[order[v]];
        /* x.dot(pi) */
        if ((ddot(d, x, 1, pi, 1) > 0.0 ? 1.0 : -1.0) == t) {
            if (++s->run <= s->best_run)
                continue;
            if (s->cached_acc < 0.0) {
                /* xb @ pi */
                dgemv(COL_MAJOR, TRANS, d, n, 1.0, xb, d, pi, 1, 0.0, act, 1);
                int64_t hits = 0;
                for (int64_t i = 0; i < n; i++)
                    hits += (act[i] > 0.0) == (targets[i] > 0.0);
                s->cached_acc = (double)hits / (double)n;
            }
            if (s->cached_acc > s->pocket_acc) {
                memcpy(pocket, pi, (size_t)d * sizeof(double));
                s->pocket_acc = s->cached_acc;
                s->best_run = s->run;
                return v + 1;
            }
        } else {
            double ct = c * t;
            for (int64_t k = 0; k < d; k++)
                pi[k] = pi[k] + ct * x[k];
            s->run = 0;
            s->cached_acc = -1.0;
        }
    }
    return len;
}

/* The linear machine: labels holds 0-based classes below r, W and pocket are
 * (r, d) in C order, and scores holds n * r scratch values. */
int64_t lm_visits(const double *xb, const int64_t *labels, int64_t n, int64_t d,
                  int64_t r, double c, double *W, double *pocket, double *scores,
                  loop_state *s, const int64_t *order, int64_t len)
{
    for (int64_t v = 0; v < len; v++) {
        const double *x = xb + order[v] * d;
        int64_t truth = labels[order[v]];
        /* W.dot(x) */
        dgemv(ROW_MAJOR, NO_TRANS, r, d, 1.0, W, d, x, 1, 0.0, scores, 1);
        int64_t winner = argmax(scores, r);
        if (winner == truth) {
            if (++s->run <= s->best_run)
                continue;
            if (s->cached_acc < 0.0) {
                /* xb @ W.T */
                dgemm(ROW_MAJOR, NO_TRANS, TRANS, n, r, d, 1.0, xb, d, W, d, 0.0,
                      scores, r);
                int64_t hits = 0;
                for (int64_t i = 0; i < n; i++)
                    hits += argmax(scores + i * r, r) == labels[i];
                s->cached_acc = (double)hits / (double)n;
            }
            if (s->cached_acc > s->pocket_acc) {
                memcpy(pocket, W, (size_t)(r * d) * sizeof(double));
                s->pocket_acc = s->cached_acc;
                s->best_run = s->run;
                return v + 1;
            }
        } else {
            double *up = W + truth * d, *down = W + winner * d;
            for (int64_t k = 0; k < d; k++) {
                double u = c * x[k];
                up[k] += u;
                down[k] -= u;
            }
            s->run = 0;
            s->cached_acc = -1.0;
        }
    }
    return len;
}

/* The scanners: of a CSV body, for pairnet.dataset, and of a signal file,
 * for pairnet.eeg_features. Each takes only lines on which the parsers it
 * stands in for agree, and returns -1 at the first doubt, so that they
 * decide; the caller checks every value it returns as it checks theirs.
 * Both read a file line by line through for_each_line, and convert a cell
 * with csv_cell. */

/* Read size, and the longest line carried from one block into the next: a
 * longer line is refused, so that no file is ever held whole. */
enum { READ_BLOCK = 1 << 16, MAX_LINE = 1 << 20 };

/* 10^0 .. 10^22, each exact in a double */
static const double EXACT_POW10[] = {
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
    1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};

/* gcc and clang have it on every 64-bit target, the only ones numpy's
 * scipy-openblas64 exists for; without it the build fails and falls back. */
typedef unsigned __int128 u128;

static int bit_length(u128 n)
{
    uint64_t hi = (uint64_t)(n >> 64), lo = (uint64_t)n;
    return hi ? 128 - __builtin_clzll(hi) : lo ? 64 - __builtin_clzll(lo) : 0;
}

/* (n + f) * 2^scale as the nearest double, ties to even, where n > 0 and
 * 0 <= f < 1 is a fraction that is nonzero if inexact is; the result must
 * be a normal double. */
static double round_to_double(u128 n, int scale, int inexact)
{
    int drop = bit_length(n) - 53;
    if (drop > 0) {
        u128 rest = n & (((u128)1 << drop) - 1), half = (u128)1 << (drop - 1);
        n >>= drop;
        scale += drop;
        if (rest > half || (rest == half && (inexact || (n & 1))))
            n++;  /* 2^53 at most, still exact */
    }
    /* 2^scale, exact, as the result is normal */
    uint64_t bits = (uint64_t)(scale + 1023) << 52;
    double two;
    memcpy(&two, &bits, sizeof two);
    return (double)(uint64_t)n * two;
}

/* w * 10^e exactly rounded, for w < 10^18 and -19 <= e <= 19. The product
 * fits in 128 bits. For a quotient, w is shifted up so that n / p has 63 or
 * 64 bits, one hardware division where there is one, and the remainder says
 * whether the quotient is exact. */
static double scaled_by_pow10(uint64_t w, int e)
{
    uint64_t p = 1;
    for (int k = 0; k < (e < 0 ? -e : e); k++)
        p *= 10;
    if (e >= 0)
        return round_to_double((u128)w * p, 0, 0);
    int shift = bit_length(p) + 63 - bit_length(w);
    u128 n = (u128)w << shift, q = n / p;
    return round_to_double(q, -shift, n != q * p);
}

static int is_digit(char c) { return c >= '0' && c <= '9'; }

/* The cell s[0..len) as the double nearest its value, ties to even, in
 * *out. Returns 0, or -1 unless the cell matches
 * [+-]?(d+(.d*)?|.d+)([eE][+-]?d+)? or strtod, which converts what the
 * exact tiers cannot, stops short of its end (as in a locale whose decimal
 * point is ','). The byte s[len] must be readable and not a digit. */
int csv_cell(const char *s, int64_t len, double *out)
{
    const char *p = s, *end = s + len;
    int neg = p < end && *p == '-';
    if (p < end && (*p == '+' || *p == '-'))
        p++;
    const char *mantissa = p;
    while (p < end && *p == '0')
        p++;
    /* The value is w * 10^e10, w exact while it has 19 digits or fewer. */
    uint64_t w = 0;
    const char *first = p;
    for (; p < end && is_digit(*p); p++)
        w = w * 10 + (uint64_t)(*p - '0');
    int64_t digits = p - first, e10 = 0;
    int any = p > mantissa;
    if (p < end && *p == '.') {
        const char *fraction = ++p;
        if (digits == 0)  /* zeros before the first significant digit */
            while (p < end && *p == '0')
                p++;
        first = p;
        for (; p < end && is_digit(*p); p++)
            w = w * 10 + (uint64_t)(*p - '0');
        digits += p - first;
        e10 = fraction - p;
        any |= p > fraction;
    }
    if (!any)
        return -1;
    if (p < end && (*p == 'e' || *p == 'E')) {
        p++;
        int eneg = p < end && *p == '-';
        if (p < end && (*p == '+' || *p == '-'))
            p++;
        if (p == end || !is_digit(*p))
            return -1;
        int64_t e = 0;
        for (; p < end && is_digit(*p); p++)
            if (e < 100000)  /* past any double; strtod reads the digits */
                e = e * 10 + (*p - '0');
        e10 += eneg ? -e : e;
    }
    if (p != end)
        return -1;
    double v;
    if (digits == 0) {
        v = 0.0;
    } else if (digits <= 19 && w <= (1ULL << 53) && e10 >= -22 && e10 <= 22) {
        /* Clinger's fast path: both operands are exact, so one rounding */
        v = e10 < 0 ? (double)w / EXACT_POW10[-e10] : (double)w * EXACT_POW10[e10];
    } else if (digits <= 18 && e10 >= -19 && e10 <= 19) {
        v = scaled_by_pow10(w, (int)e10);
    } else {
        char *stop;
        v = strtod(mantissa, &stop);
        if (stop != end)
            return -1;
    }
    *out = neg ? -v : v;
    return 0;
}

/* The number of '\n' bytes in the file open on fd, or -1 if it cannot be
 * read; the file offset does not move. */
int64_t csv_newlines(int fd)
{
    char *buf = malloc(READ_BLOCK);
    int64_t count = 0;
    off_t at = 0;
    ssize_t got;
    if (buf == NULL)
        return -1;
    while ((got = pread(fd, buf, READ_BLOCK, at)) != 0) {
        if (got < 0) {
            if (errno == EINTR)
                continue;
            count = -1;
            break;
        }
        for (const char *p = buf, *end = buf + got; (p = memchr(p, '\n', end - p)); p++)
            count++;
        at += got;
    }
    free(buf);
    return count;
}

/* What a scanner does with one line p[0..len), without its '\n': 0 to go
 * on, or -1 to refuse the file. */
typedef int (*line_fn)(void *ctx, const char *p, int64_t len);

/* Hand the first line of the file open on fd, after an optional UTF-8 BOM,
 * to header and every later line to body. The file is read in blocks of
 * READ_BLOCK bytes after the one partial line carried over, so that it is
 * never held whole; the last line needs no '\n', but may not end in '\r'.
 * No line may be longer than limit bytes, and the file offset does not
 * move. Returns 0, or -1 when a line is refused or the file cannot be read. */
static int for_each_line(int fd, int64_t limit, line_fn header, line_fn body, void *ctx)
{
    int64_t longest = limit < MAX_LINE ? limit : MAX_LINE;
    char *buf = malloc((size_t)(longest + READ_BLOCK + 1));
    int64_t have = 0;  /* the carried partial line, at buf[0..have) */
    off_t at = 0;
    line_fn line = header;
    int status = -1;
    if (buf == NULL)
        return -1;
    for (;;) {
        ssize_t got = pread(fd, buf + have, READ_BLOCK, at);
        if (got < 0) {
            if (errno == EINTR)
                continue;
            goto done;
        }
        char *p = buf, *end = buf + have + got;
        if (at == 0 && got >= 3 && memcmp(buf, "\xef\xbb\xbf", 3) == 0)
            p += 3;
        at += got;
        if (got == 0) {  /* the last line, which has no '\n' */
            if (have == 0)
                break;
            if (end[-1] == '\r')
                goto done;
            *end++ = '\n';
        }
        for (char *nl; (nl = memchr(p, '\n', (size_t)(end - p))); p = nl + 1) {
            if (nl + 1 - p > limit || line(ctx, p, nl - p))
                goto done;
            line = body;
        }
        if (got == 0)
            break;
        have = end - p;
        if (have > longest)
            goto done;
        memmove(buf, p, (size_t)have);
    }
    status = 0;
done:
    free(buf);
    return status;
}

/* The CSV-body scanner. Where each cell of a row goes: cell k is a float at
 * offset[k] of the row, or, when size[k] > 0, text padded with NUL to
 * size[k] bytes there. */
typedef struct {
    int64_t width;
    const int64_t *offset, *size;
    char *table;
    int64_t itemsize, capacity, rows;
} csv_layout;

/* The header may hold no '"' and no '\r' but before its '\n'. */
static int csv_header(void *ctx, const char *p, int64_t len)
{
    (void)ctx;
    for (const char *q = p; q < p + len; q++)
        if (*q == '"' || (*q == '\r' && q + 1 < p + len))
            return -1;
    return 0;
}

/* One CSV body line into the next row of the csv_layout ctx unless it is
 * blank; refused unless it is a plain row of width cells. */
static int csv_line(void *ctx, const char *p, int64_t len)
{
    csv_layout *t = ctx;
    if (len && p[len - 1] == '\r')
        len--;
    if (len == 0)
        return 0;
    if (t->rows == t->capacity)
        return -1;
    char *row = t->table + t->rows * t->itemsize;
    const char *cell = p, *end = p + len;
    int64_t k = 0;
    for (const char *q = p;; q++) {
        if (q == end || *q == ',') {
            if (k == t->width)
                return -1;
            int64_t n = q - cell, size = t->size[k];
            if (size) {
                if (n >= size)
                    return -1;
                memcpy(row + t->offset[k], cell, (size_t)n);
                memset(row + t->offset[k] + n, 0, (size_t)(size - n));
            } else {
                double v;
                if (csv_cell(cell, n, &v))
                    return -1;
                memcpy(row + t->offset[k], &v, sizeof v);
            }
            k++;
            if (q == end)
                break;
            cell = q + 1;
        } else if ((unsigned char)*q < 0x20 || (unsigned char)*q > 0x7e || *q == '"') {
            return -1;  /* control bytes (a lone '\r' too), non-ASCII, quotes */
        }
    }
    if (k != t->width)
        return -1;
    t->rows++;
    return 0;
}

/* Parse the body of the CSV file open on fd into table, capacity rows of
 * itemsize bytes laid out as offset and size say, one row per line of
 * width cells. The header, the first line, is skipped, and so are blank
 * lines; no line may be longer than limit bytes. Returns the rows filled,
 * or -1. */
int64_t csv_scan(int fd, int64_t width, const int64_t *offset, const int64_t *size,
                 int64_t limit, char *table, int64_t itemsize, int64_t capacity)
{
    csv_layout t = {width, offset, size, table, itemsize, capacity, 0};
    return for_each_line(fd, limit, csv_header, csv_line, &t) ? -1 : t.rows;
}

/* The signal-file scanner. Its two channels hold capacity samples each, of
 * which rows are filled. */
typedef struct {
    double *first, *second;
    int64_t capacity, rows;
} signal_columns;

static int is_blank(char c) { return c == ' ' || c == '\t'; }

/* The header: printable ASCII, and a '\r' only before its '\n'. */
static int signal_header(void *ctx, const char *p, int64_t len)
{
    (void)ctx;
    if (len && p[len - 1] == '\r')
        len--;
    for (const char *q = p; q < p + len; q++)
        if ((unsigned char)*q < 0x20 || (unsigned char)*q > 0x7e)
            return -1;
    return 0;
}

/* One body line into the next sample pair of the signal_columns ctx unless
 * it is blank: two finite cells that csv_cell takes, separated, and perhaps
 * surrounded, by spaces and tabs. Any other byte falls in a cell, which
 * csv_cell then refuses. */
static int signal_line(void *ctx, const char *p, int64_t len)
{
    signal_columns *s = ctx;
    const char *q = p, *end = p + len;
    double pair[2];
    int k = 0;
    if (q < end && end[-1] == '\r')
        end--;
    for (;;) {
        while (q < end && is_blank(*q))
            q++;
        if (q == end)
            break;
        const char *cell = q;
        while (q < end && !is_blank(*q))
            q++;
        if (k == 2 || csv_cell(cell, q - cell, &pair[k]) || !isfinite(pair[k]))
            return -1;
        k++;
    }
    if (k == 0)
        return 0;
    if (k != 2 || s->rows == s->capacity)
        return -1;
    s->first[s->rows] = pair[0];
    s->second[s->rows++] = pair[1];
    return 0;
}

/* Parse the body of the signal file open on fd into first and second,
 * capacity samples each, one pair per line after the header. Blank lines
 * are skipped. Returns the pairs filled, or -1, also where there are none. */
int64_t signal_scan(int fd, double *first, double *second, int64_t capacity)
{
    signal_columns s = {first, second, capacity, 0};
    if (for_each_line(fd, MAX_LINE, signal_header, signal_line, &s) || s.rows == 0)
        return -1;
    return s.rows;
}

/* The CSV writer, for pairnet.dataset.save_csv. A float cell is written as
 * Python's repr writes it: its shortest digits that read back as the same
 * double, the nearest of them to its value, found by Ryu's d2s (Ulf Adams,
 * "Ryu: fast float-to-string conversion", PLDI 2018), and laid out as repr
 * lays them out. Ryu's two tables, of 5^i and of 2^k / 5^i to 125 bits,
 * come from pairnet._kernels as {low, high} 64-bit pairs. */

enum { POW5_BITS = 125, WRITE_BLOCK = 1 << 16, CELL_MAX = 32 };

static const char DIGIT_PAIRS[] =
    "00010203040506070809101112131415161718192021222324252627282930313233343536373839"
    "40414243444546474849505152535455565758596061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* The decimal digits * 10^exponent. */
typedef struct {
    uint64_t digits;
    int32_t exponent;
} decimal;

/* bit_length(5^e), for 0 <= e <= 3528 */
static int32_t pow5_bits(int32_t e) { return ((e * 1217359) >> 19) + 1; }
/* floor(log10(2^e)), for 0 <= e <= 1650 */
static int32_t log10_pow2(int32_t e) { return (e * 78913) >> 18; }
/* floor(log10(5^e)), for 0 <= e <= 2620 */
static int32_t log10_pow5(int32_t e) { return (e * 732923) >> 20; }

/* Whether 5^p divides v, for v > 0 */
static int multiple_of_pow5(uint64_t v, int32_t p)
{
    int32_t count = 0;
    for (; v % 5 == 0; v /= 5)
        count++;
    return count >= p;
}

/* (m * mul) >> j, for the 128-bit table entry mul = {low, high} and j >= 64 */
static uint64_t mul_shift(uint64_t m, const uint64_t *mul, int32_t j)
{
    u128 low = (u128)m * mul[0], high = (u128)m * mul[1];
    return (uint64_t)(((low >> 64) + high) >> (j - 64));
}

/* The shortest decimal that reads back as the positive finite double of
 * biased exponent e and mantissa bits f, and of those the nearest to it. */
static decimal shortest(uint64_t f, int32_t e, const uint64_t *pow5,
                        const uint64_t *pow5_inv)
{
    /* The double is mv * 2^e2 with mv = 4 * m2: the two more bits hold its
     * bounds halfway to its neighbours, mp = mv + 2 above and
     * mm = mv - 1 - mm_shift below, as the gap below is half as wide at a
     * power of two. Every decimal strictly between mm and mp (times 2^e2)
     * reads back as the double, and so do the bounds when m2 is even, as
     * reading rounds ties to even. vr, vp and vm are mv, mp and mm times
     * 10^-e10, rounded down. */
    int32_t e2 = (e ? e : 1) - 1023 - 52 - 2;
    uint64_t m2 = e ? f | (1ULL << 52) : f;
    int even = (m2 & 1) == 0;
    uint64_t mv = 4 * m2;
    uint32_t mm_shift = f != 0 || e <= 1;
    uint64_t vr, vp, vm;
    int32_t e10;
    /* whether the digits of vm, and of vr, dropped so far are all 0 */
    int vm_zeros = 0, vr_zeros = 0;
    if (e2 >= 0) {
        int32_t q = log10_pow2(e2) - (e2 > 3);
        int32_t j = -e2 + q + POW5_BITS + pow5_bits(q) - 1;
        const uint64_t *mul = pow5_inv + 2 * q;
        e10 = q;
        vr = mul_shift(4 * m2, mul, j);
        vp = mul_shift(4 * m2 + 2, mul, j);
        vm = mul_shift(4 * m2 - 1 - mm_shift, mul, j);
        if (q <= 21) {
            /* At most one of mv, mp and mm is a multiple of 5. */
            if (mv % 5 == 0)
                vr_zeros = multiple_of_pow5(mv, q);
            else if (even)
                vm_zeros = multiple_of_pow5(mv - 1 - mm_shift, q);
            else
                vp -= multiple_of_pow5(mv + 2, q);
        }
    } else {
        int32_t q = log10_pow5(-e2) - (-e2 > 1);
        int32_t i = -e2 - q;
        int32_t j = q - (pow5_bits(i) - POW5_BITS);
        const uint64_t *mul = pow5 + 2 * i;
        e10 = q + e2;
        vr = mul_shift(4 * m2, mul, j);
        vp = mul_shift(4 * m2 + 2, mul, j);
        vm = mul_shift(4 * m2 - 1 - mm_shift, mul, j);
        if (q <= 1) {
            /* mv has two trailing zero bits, mm one iff mm_shift is 1. */
            vr_zeros = 1;
            if (even)
                vm_zeros = mm_shift == 1;
            else
                vp--;
        } else if (q < 63) {
            vr_zeros = (mv & ((1ULL << q) - 1)) == 0;
        }
    }
    /* Drop digits while the interval still holds a shorter decimal. */
    int32_t removed = 0;
    int last = 0;  /* the last digit dropped from vr */
    while (vp / 10 > vm / 10) {
        vm_zeros &= vm % 10 == 0;
        vr_zeros &= last == 0;
        last = (int)(vr % 10);
        vr /= 10;
        vp /= 10;
        vm /= 10;
        removed++;
    }
    if (vm_zeros) {  /* mm itself is in the interval: it may end in zeros */
        while (vm % 10 == 0) {
            vr_zeros &= last == 0;
            last = (int)(vr % 10);
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed++;
        }
    }
    if (vr_zeros && last == 5 && vr % 2 == 0)
        last = 4;  /* an exact tie rounds to even */
    /* vr + 1 if vr is out of the interval or rounds up */
    decimal d = {vr + ((vr == vm && (!even || !vm_zeros)) || last >= 5), e10 + removed};
    return d;
}

/* x as repr writes it, at p; returns the end, at most 24 bytes on. */
static char *put_double(char *p, double x, const uint64_t *pow5,
                        const uint64_t *pow5_inv)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    uint64_t f = bits & ((1ULL << 52) - 1);
    int32_t e = (int32_t)(bits >> 52) & 0x7ff;
    if (e == 0x7ff && f) {
        memcpy(p, "nan", 3);
        return p + 3;
    }
    if (bits >> 63)
        *p++ = '-';
    if (e == 0x7ff) {
        memcpy(p, "inf", 3);
        return p + 3;
    }
    if (e == 0 && f == 0) {
        memcpy(p, "0.0", 3);
        return p + 3;
    }
    decimal d = shortest(f, e, pow5, pow5_inv);
    char buf[20], *digits = buf + sizeof buf;
    uint64_t v = d.digits;
    for (; v >= 10; v /= 100)
        memcpy(digits -= 2, DIGIT_PAIRS + 2 * (v % 100), 2);
    if (v)
        *--digits = (char)('0' + v);
    int32_t n = (int32_t)(buf + sizeof buf - digits);
    int32_t point = n + d.exponent;  /* x is 0.digits * 10^point */
    if (point > -4 && point <= 16) {
        if (point <= 0) {  /* 0.000ddd */
            memcpy(p, "0.000", (size_t)(2 - point));
            p += 2 - point;
            memcpy(p, digits, (size_t)n);
            p += n;
        } else if (point < n) {  /* dd.ddd */
            memcpy(p, digits, (size_t)point);
            p += point;
            *p++ = '.';
            memcpy(p, digits + point, (size_t)(n - point));
            p += n - point;
        } else {  /* ddd00.0 */
            memcpy(p, digits, (size_t)n);
            p += n;
            memset(p, '0', (size_t)(point - n));
            p += point - n;
            memcpy(p, ".0", 2);
            p += 2;
        }
        return p;
    }
    *p++ = digits[0];
    if (n > 1) {
        *p++ = '.';
        memcpy(p, digits + 1, (size_t)(n - 1));
        p += n - 1;
    }
    int32_t exp10 = point - 1;
    *p++ = 'e';
    *p++ = exp10 < 0 ? '-' : '+';
    if (exp10 < 0)
        exp10 = -exp10;
    if (exp10 >= 100)
        *p++ = (char)('0' + exp10 / 100);
    *p++ = (char)('0' + exp10 / 10 % 10);
    *p++ = (char)('0' + exp10 % 10);
    return p;
}

/* repr(x) at out, which has room for CELL_MAX bytes; returns its length.
 * The tests call it; csv_write formats each cell the same way. */
int64_t double_repr(double x, char *out, const uint64_t *pow5, const uint64_t *pow5_inv)
{
    return put_double(out, x, pow5, pow5_inv) - out;
}

/* A block of output on its way to fd. */
typedef struct {
    int fd;
    char *buf;
    size_t used;
} writer;

/* Write the block out whole, looping on partial writes. Returns 0, or -1
 * with errno set. */
static int flush_block(writer *w)
{
    for (size_t done = 0; done < w->used;) {
        ssize_t put = write(w->fd, w->buf + done, w->used - done);
        if (put < 0) {
            if (errno == EINTR)
                continue;
            return -1;
        }
        done += (size_t)put;
    }
    w->used = 0;
    return 0;
}

/* Room for CELL_MAX bytes in the block: 0, or -1 with errno set. */
static int make_room(writer *w)
{
    return w->used > WRITE_BLOCK - CELL_MAX ? flush_block(w) : 0;
}

/* Write the n rows of a dataset to fd: row i is the m features X[i * m ..]
 * as repr writes them, then the class label of y[i] (1-based) and the
 * record id records[i], separated by ',' and ended by "\r\n". Label k is
 * labels[ends[k - 1] .. ends[k]), with ends[0] == 0, already quoted as
 * csv.writer quotes it. The file is written in blocks of WRITE_BLOCK bytes.
 * Returns 0, or -1 with errno set. */
int64_t csv_write(int fd, const double *X, int64_t n, int64_t m, const int64_t *y,
                  const int64_t *records, const char *labels, const int64_t *ends,
                  const uint64_t *pow5, const uint64_t *pow5_inv)
{
    writer w = {fd, malloc(WRITE_BLOCK), 0};
    int status = -1;
    if (w.buf == NULL)
        return -1;
    for (int64_t i = 0; i < n; i++) {
        for (const double *x = X + i * m, *end = x + m; x < end; x++) {
            if (make_room(&w))
                goto done;
            char *p = put_double(w.buf + w.used, *x, pow5, pow5_inv);
            *p++ = ',';
            w.used = (size_t)(p - w.buf);
        }
        const char *label = labels + ends[y[i] - 1], *stop = labels + ends[y[i]];
        while (label < stop) {
            if (w.used == WRITE_BLOCK && flush_block(&w))
                goto done;
            size_t part = WRITE_BLOCK - w.used;
            if (part > (size_t)(stop - label))
                part = (size_t)(stop - label);
            memcpy(w.buf + w.used, label, part);
            w.used += part;
            label += part;
        }
        if (make_room(&w))
            goto done;
        /* ',', the record id and "\r\n": at most 23 bytes */
        char digits[20], *d = digits + sizeof digits;
        uint64_t rec = records[i] < 0 ? -(uint64_t)records[i] : (uint64_t)records[i];
        do
            *--d = (char)('0' + rec % 10);
        while (rec /= 10);
        if (records[i] < 0)
            *--d = '-';
        char *p = w.buf + w.used;
        *p++ = ',';
        memcpy(p, d, (size_t)(digits + sizeof digits - d));
        p += digits + sizeof digits - d;
        memcpy(p, "\r\n", 2);
        w.used = (size_t)(p + 2 - w.buf);
    }
    status = flush_block(&w);
done:
    free(w.buf);
    return status;
}
