/* Compiled pocket and linear-machine visit loops for pairnet._kernels.
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
#include <stdint.h>
#include <string.h>

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
