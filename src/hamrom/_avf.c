/* The reduced AVF integration of `ReducedModel.make_step` under
 * `integrate_steps`, with g_avg = `wave.sin_average`, as one C loop.
 *
 * It does the arithmetic of the numpy path operation by operation, so
 * every state comes out bit for bit the same:
 *  - each matrix-vector product calls numpy's own cblas dgemv with the
 *    arguments np.dot passes for that operand's memory layout (see
 *    `struct matrix`);
 *  - elementwise steps round in sin_average's order, and sin is the libm
 *    function that np.sin calls;
 *  - every solve stops by the rule of `integrator.picard_converged`.
 * Compile without -ffast-math and with -ffp-contract=off, so that no
 * product and sum is fused.
 */
#include <math.h>
#include <stdint.h>

enum { ROW_MAJOR = 101, NO_TRANS = 111, TRANS = 112 };

typedef void (*gemv_fn)(int order, int trans, int64_t m, int64_t n, double alpha,
                        const double *a, int64_t lda, const double *x, int64_t incx,
                        double beta, double *y, int64_t incy);

/* A matrix of at least two rows and two columns, stored C-contiguous
 * (order ROW_MAJOR) or F-contiguous (COL_MAJOR = 102). */
struct matrix {
    const double *data;
    int64_t rows, cols, order;
};

/* y = A x as np.dot(A, x, y) computes it */
static void product(gemv_fn gemv, const struct matrix *a, const double *x, double *y)
{
    int64_t lda = a->order == ROW_MAJOR ? a->cols : a->rows;
    gemv((int)a->order, NO_TRANS, a->rows, a->cols, 1.0, a->data, lda, x, 1, 0.0, y, 1);
}

/* max|a_i| as np.abs, argmax and item find it: the first NaN if any */
static double max_abs(int64_t n, const double *a)
{
    double best = 0.0;
    for (int64_t i = 0; i < n; i++) {
        double v = fabs(a[i]);
        if (isnan(v))
            return v;
        if (v > best)
            best = v;
    }
    return best;
}

/* wave.sin_average: sin((x0 + x1)/2) * sinc(max(|x1 - x0|/2, tiny)) */
static void sin_average(int64_t n, const double *x0, const double *x1, double *q)
{
    for (int64_t i = 0; i < n; i++) {
        double m = (x0[i] + x1[i]) * 0.5;
        double h = fabs((x1[i] - x0[i]) * 0.5);
        if (h < 0x1p-1022) /* np.maximum(h, tiny), which keeps a NaN */
            h = 0x1p-1022;
        double sinc = sin(h) / h;
        q[i] = sin(m) * sinc;
    }
}

/* Integrate `steps` AVF steps from states[0] into states[1..steps]
 * (rows of dim = k->rows values) and the Picard iterations of each step
 * into iterations[].  work holds 9 dim + 3 m doubles, m = p->rows.
 * Returns -1, or the index of the step whose solve failed: then
 * iterations[step] and *residual hold the failing update's count and
 * max-norm, as in PicardDivergenceError. */
int64_t avf_integrate(gemv_fn gemv, const struct matrix *k_plus, const struct matrix *k_inv,
                      const struct matrix *k, const struct matrix *b,
                      const struct matrix *dt_m, const struct matrix *p,
                      const double *dt_c, const double *x_ref, const double *extrapolation,
                      double tol, int64_t max_iter, int64_t steps, double *states,
                      int64_t *iterations, double *work, double *residual)
{
    int64_t dim = k->rows, ru = p->cols, m = p->rows;
    double *y = work, *w = y + dim, *start = w + dim, *r = start + dim;
    double *correction = r + dim, *iterates[2] = {correction + dim, correction + 2 * dim};
    double *update = correction + 3 * dim, *m_q = update + dim;
    double *x0 = m_q + dim, *x1 = x0 + m, *q = x1 + m;

    for (int64_t step = 0; step < steps; step++) {
        const double *z = states + step * dim, *z1 = z;
        if (step >= 7) { /* np.dot(_EXTRAPOLATION, states[k - 7 : k + 1]) */
            gemv(ROW_MAJOR, TRANS, 8, dim, 1.0, z - 7 * dim, dim, extrapolation, 1, 0.0,
                 start, 1);
            z1 = start;
        }
        product(gemv, k_plus, z, y);
        for (int64_t i = 0; i < dim; i++)
            y[i] += dt_c[i];
        product(gemv, k_inv, y, w);
        product(gemv, p, z, x0);
        for (int64_t i = 0; i < m; i++)
            x0[i] += x_ref[i];
        int64_t it = 1;
        for (;; it++) {
            product(gemv, p, z1, x1);
            for (int64_t i = 0; i < m; i++)
                x1[i] += x_ref[i];
            sin_average(m, x0, x1, q);
            double *z_next = iterates[it & 1];
            product(gemv, b, q, z_next);
            for (int64_t i = 0; i < dim; i++) {
                z_next[i] += w[i];
                update[i] = z_next[i] - z1[i];
            }
            z1 = z_next;
            double res = max_abs(dim, update);
            int finite = res < INFINITY;
            if (finite && (res <= tol || res <= tol * max_abs(dim, z1)))
                break;
            if (!finite || it >= max_iter) {
                iterations[step] = it;
                *residual = res;
                return step;
            }
        }
        iterations[step] = it;
        product(gemv, k, z1, r);
        for (int64_t i = 0; i < dim; i++)
            r[i] -= y[i];
        product(gemv, dt_m, q, m_q);
        for (int64_t i = ru; i < dim; i++)
            r[i] -= m_q[i - ru];
        product(gemv, k_inv, r, correction);
        double *z_out = states + (step + 1) * dim;
        for (int64_t i = 0; i < dim; i++)
            z_out[i] = z1[i] - correction[i];
    }
    return -1;
}
