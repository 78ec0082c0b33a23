/* The integrations of `_native.blocks` for the wave's nonlinearity, each
 * as one C loop.  With g_avg = `wave.sin_average`, `avf_integrate` runs
 * `ReducedModel.make_step`, `avf_integrate_full` runs
 * `TwoBlockSystem.make_step`, whose linear solve `avf_periodic_solve` is
 * exported as well; with g = sin, `midpoint_integrate` runs the implicit
 * midpoint rule of `integrator.integrate` over `ReducedModel.make_rhs`.
 * Each loop resumes an integration in a new window of states, as
 * advance_steps does.  `avf_max_mismatch` is the elementwise pass of
 * `metrics.e_inf`.
 *
 * They do the arithmetic of the numpy path operation by operation, so
 * every state comes out bit for bit the same:
 *  - each matrix-vector product calls numpy's own cblas dgemv with the
 *    arguments np.dot passes for a C-contiguous matrix (the rhs's matmul
 *    passes the column-major transpose, which OpenBLAS turns into the
 *    same kernel call): every operand is C-ordered, which
 *    `ReducedModel`'s constructor and `PeriodicFactor.of` guarantee;
 *  - the full-order linear solve is `core.PeriodicFactor.solve`: the
 *    LAPACK dpttrs of the OpenBLAS that scipy bundles (the one
 *    scipy.linalg.lapack calls), with the arguments its wrapper passes,
 *    then the corner correction through dgemv;
 *  - elementwise steps round in the order of sin_average and of the
 *    rhs, and sin is the libm function that np.sin calls;
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

/* y = A x as np.dot(A, x, y) computes it for the C-ordered rows x cols
 * matrix A, of at least two rows and two columns */
static void product(gemv_fn gemv, int64_t rows, int64_t cols, const double *a, const double *x,
                    double *y)
{
    gemv(ROW_MAJOR, NO_TRANS, rows, cols, 1.0, a, cols, x, 1, 0.0, y, 1);
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

/* integrator.picard_converged after update `it` of an n-vector solve,
 * with x the new iterate: 1 when converged, 0 to iterate on, -1 when the
 * solve has failed (a non-finite update, or the cap reached).  *residual
 * is the update's max-norm. */
static int picard_converged(int64_t n, const double *update, const double *x, int64_t it,
                            double tol, int64_t max_iter, double *residual)
{
    double res = max_abs(n, update);
    *residual = res;
    if (!(res < INFINITY))
        return -1;
    if (res <= tol || res <= tol * max_abs(n, x))
        return 1;
    return it >= max_iter ? -1 : 0;
}

/* the degree-7 start, np.dot(_EXTRAPOLATION, states[k - 7 : k + 1]),
 * from the state z = states[k] of dim values */
static void extrapolate(gemv_fn gemv, const double *extrapolation, int64_t dim, const double *z,
                        double *start)
{
    gemv(ROW_MAJOR, TRANS, 8, dim, 1.0, z - 7 * dim, dim, extrapolation, 1, 0.0, start, 1);
}

/* Integrate `steps` AVF steps from states[history] into
 * states[history + 1 .. history + steps] (rows of dim values) and the
 * Picard iterations of each step into iterations[].  The `history` <= 7
 * rows before the first state are the states that preceded it, the last
 * seven or all of them, so that a run resumed in a new window makes the
 * degree-7 start from the rows that one run would.  k_plus, k_inv and k
 * are dim x dim, b is dim x m, dt_m (dim - ru) x m and p m x ru; work
 * holds 9 dim + 3 m doubles.  Returns -1, or the index of the step whose
 * solve failed: then iterations[step] and *residual hold the failing
 * update's count and max-norm, as in PicardDivergenceError. */
int64_t avf_integrate(gemv_fn gemv, int64_t dim, int64_t ru, int64_t m, const double *k_plus,
                      const double *k_inv, const double *k, const double *b,
                      const double *dt_m, const double *p, const double *dt_c,
                      const double *x_ref, const double *extrapolation, double tol,
                      int64_t max_iter, int64_t history, int64_t steps, double *states,
                      int64_t *iterations, double *work, double *residual)
{
    double *y = work, *w = y + dim, *start = w + dim, *r = start + dim;
    double *correction = r + dim, *iterates[2] = {correction + dim, correction + 2 * dim};
    double *update = correction + 3 * dim, *m_q = update + dim;
    double *x0 = m_q + dim, *x1 = x0 + m, *q = x1 + m;

    for (int64_t step = 0; step < steps; step++) {
        int64_t row = history + step;
        const double *z = states + row * dim, *z1 = z;
        if (row >= 7) {
            extrapolate(gemv, extrapolation, dim, z, start);
            z1 = start;
        }
        product(gemv, dim, dim, k_plus, z, y);
        for (int64_t i = 0; i < dim; i++)
            y[i] += dt_c[i];
        product(gemv, dim, dim, k_inv, y, w);
        product(gemv, m, ru, p, z, x0);
        for (int64_t i = 0; i < m; i++)
            x0[i] += x_ref[i];
        int64_t it = 1;
        for (;; it++) {
            product(gemv, m, ru, p, z1, x1);
            for (int64_t i = 0; i < m; i++)
                x1[i] += x_ref[i];
            sin_average(m, x0, x1, q);
            double *z_next = iterates[it & 1];
            product(gemv, dim, m, b, q, z_next);
            for (int64_t i = 0; i < dim; i++) {
                z_next[i] += w[i];
                update[i] = z_next[i] - z1[i];
            }
            z1 = z_next;
            int state = picard_converged(dim, update, z1, it, tol, max_iter, residual);
            if (state > 0)
                break;
            if (state < 0) {
                iterations[step] = it;
                return step;
            }
        }
        iterations[step] = it;
        product(gemv, dim, dim, k, z1, r);
        for (int64_t i = 0; i < dim; i++)
            r[i] -= y[i];
        product(gemv, dim - ru, m, dt_m, q, m_q);
        for (int64_t i = ru; i < dim; i++)
            r[i] -= m_q[i - ru];
        product(gemv, dim, dim, k_inv, r, correction);
        double *z_out = states + (row + 1) * dim;
        for (int64_t i = 0; i < dim; i++)
            z_out[i] = z1[i] - correction[i];
    }
    return -1;
}

/* Integrate `steps` implicit midpoint steps of the reduced form
 *     z' = L z + c + [0; m_b sin(P z[:ru] + x_ref)]
 * from states[history], after `history` earlier states, as avf_integrate
 * does: `integrator._midpoint_step_map` over the rhs of
 * `ReducedModel.make_rhs`.  Each step iterates
 *     z1 <- z + dt f(0.5 z + 0.5 z1).
 * L is dim x dim, m_b (dim - ru) x m and P m x ru; work holds 8 dim + 2 m
 * doubles.  Returns as avf_integrate does. */
int64_t midpoint_integrate(gemv_fn gemv, int64_t dim, int64_t ru, int64_t m, const double *l,
                           const double *c, const double *m_b, const double *p,
                           const double *x_ref, double dt, const double *extrapolation,
                           double tol, int64_t max_iter, int64_t history, int64_t steps,
                           double *states, int64_t *iterations, double *work, double *residual)
{
    double *start = work, *half = start + dim, *zm = half + dim, *out = zm + dim;
    double *update = out + dim, *iterates[2] = {update + dim, update + 2 * dim};
    double *m_g = update + 3 * dim, *x = m_g + dim, *g = x + m;

    for (int64_t step = 0; step < steps; step++) {
        int64_t row = history + step;
        const double *z = states + row * dim, *z1 = z;
        if (row >= 7) {
            extrapolate(gemv, extrapolation, dim, z, start);
            z1 = start;
        }
        for (int64_t i = 0; i < dim; i++)
            half[i] = 0.5 * z[i];
        int64_t it = 1;
        for (;; it++) {
            for (int64_t i = 0; i < dim; i++)
                zm[i] = half[i] + 0.5 * z1[i];
            product(gemv, dim, dim, l, zm, out);
            for (int64_t i = 0; i < dim; i++)
                out[i] += c[i];
            product(gemv, m, ru, p, zm, x);
            for (int64_t i = 0; i < m; i++)
                g[i] = sin(x[i] + x_ref[i]);
            product(gemv, dim - ru, m, m_b, g, m_g);
            for (int64_t i = ru; i < dim; i++)
                out[i] += m_g[i - ru];
            double *z_next = iterates[it & 1];
            for (int64_t i = 0; i < dim; i++) {
                z_next[i] = z[i] + dt * out[i];
                update[i] = z_next[i] - z1[i];
            }
            z1 = z_next;
            int state = picard_converged(dim, update, z1, it, tol, max_iter, residual);
            if (state > 0)
                break;
            if (state < 0) {
                iterations[step] = it;
                return step;
            }
        }
        iterations[step] = it;
        double *z_out = states + (row + 1) * dim;
        for (int64_t i = 0; i < dim; i++)
            z_out[i] = z1[i];
    }
    return -1;
}

/* ---------------------------------------------------------------------
 * The full-order step: the periodic tridiagonal solve and the loop around it. */

typedef void (*pttrs_fn)(const int *n, const int *nrhs, const double *d, const double *e,
                         double *b, const int *ldb, int *info);

/* b = M^-1 b in place, as `core.PeriodicFactor.solve` computes it from
 * T's factor (d, e) and the C-ordered n x 2 W C (wc): y = dpttrs(d, e, b),
 * then y - np.dot(wc, y[[0, -1]]); b / d where M is diagonal (e and wc
 * NULL).  work holds n + 2 doubles.  Exported, so that the solve can be
 * checked on its own. */
void avf_periodic_solve(pttrs_fn pttrs, gemv_fn gemv, int n, const double *d, const double *e,
                        const double *wc, double *b, double *work)
{
    if (!e) {
        for (int i = 0; i < n; i++)
            b[i] /= d[i];
        return;
    }
    int one = 1, info;
    pttrs(&n, &one, d, e, b, &n, &info);
    double *corners = work, *correction = work + 2;
    corners[0] = b[0];
    corners[1] = b[n - 1];
    product(gemv, n, 2, wc, corners, correction);
    for (int i = 0; i < n; i++)
        b[i] -= correction[i];
}

/* Integrate `steps` full-order AVF steps of u' = v, v' = A u - c_u g(u)
 * from states[history], after `history` earlier states, as avf_integrate
 * does (rows of 2 n values), where d, e and wc are the `PeriodicFactor` of
 * I - dt^2/4 A and qc = dt^2/4 c_u;
 * each step iterates
 *     u_m <- (I - dt^2/4 A)^-1 (u0 + dt/2 v0 - qc sin_average(u0, 2 u_m - u0)).
 * work holds 9 n + 2 doubles.  Returns as avf_integrate does. */
int64_t avf_integrate_full(gemv_fn gemv, pttrs_fn pttrs, int64_t n, const double *d,
                           const double *e, const double *wc, const double *qc, double dt,
                           const double *extrapolation, double tol, int64_t max_iter,
                           int64_t history, int64_t steps, double *states, int64_t *iterations,
                           double *work, double *residual)
{
    int64_t dim = 2 * n;
    double half_dt = 0.5 * dt, rate = 4.0 / dt;
    double *start = work, *base = start + dim, *x1 = base + n, *g = x1 + n;
    double *update = g + n, *iterates[2] = {update + n, update + 2 * n};
    double *solve_work = update + 3 * n;

    for (int64_t step = 0; step < steps; step++) {
        int64_t row = history + step;
        const double *u0 = states + row * dim, *v0 = u0 + n, *first = u0;
        if (row >= 7) {
            extrapolate(gemv, extrapolation, dim, u0, start);
            first = start;
        }
        double *um = iterates[0];
        for (int64_t i = 0; i < n; i++) {
            base[i] = u0[i] + half_dt * v0[i];
            um[i] = 0.5 * (u0[i] + first[i]);
        }
        int64_t it = 1;
        for (;; it++) {
            for (int64_t i = 0; i < n; i++)
                x1[i] = 2.0 * um[i] - u0[i];
            sin_average(n, u0, x1, g);
            double *next = iterates[it & 1];
            for (int64_t i = 0; i < n; i++)
                next[i] = base[i] - qc[i] * g[i];
            avf_periodic_solve(pttrs, gemv, (int)n, d, e, wc, next, solve_work);
            for (int64_t i = 0; i < n; i++)
                update[i] = next[i] - um[i];
            um = next;
            int state = picard_converged(n, update, um, it, tol, max_iter, residual);
            if (state > 0)
                break;
            if (state < 0) {
                iterations[step] = it;
                return step;
            }
        }
        iterations[step] = it;
        double *u1 = states + (row + 1) * dim, *v1 = u1 + n;
        for (int64_t i = 0; i < n; i++) {
            u1[i] = 2.0 * um[i] - u0[i];
            v1[i] = rate * (um[i] - u0[i]) - v0[i];
        }
    }
    return -1;
}

/* ---------------------------------------------------------------------
 * The error check of `metrics.e_inf`. */

/* ((gu + u_ref) - u)^2 + ((gv + v_ref) - v)^2 at entry i, rounded as
 * e_inf's numpy sweeps round it */
static double square(const double *gu, const double *gv, const double *u_ref,
                     const double *v_ref, const double *u, const double *v, int64_t i)
{
    double du = (gu[i] + u_ref[i]) - u[i], dv = (gv[i] + v_ref[i]) - v[i];
    return du * du + dv * dv;
}

/* The largest `square` over a block of `rows` states (rows of 2 n values,
 * u then v) and their reconstructions gu and gv (rows x n), or NaN where
 * any is NaN, as np.max gives it.  Four running maxima keep the compares
 * off one chain; a NaN shows in the sum of four squares, which cannot
 * make one otherwise, since each is >= 0. */
double avf_max_mismatch(int64_t rows, int64_t n, const double *gu, const double *gv,
                        const double *u_ref, const double *v_ref, const double *states)
{
    double b0 = 0.0, b1 = 0.0, b2 = 0.0, b3 = 0.0;
    for (int64_t k = 0; k < rows; k++) {
        const double *a = gu + k * n, *b = gv + k * n, *u = states + 2 * k * n, *v = u + n;
        int64_t i = 0;
        for (; i + 4 <= n; i += 4) {
            double s0 = square(a, b, u_ref, v_ref, u, v, i);
            double s1 = square(a, b, u_ref, v_ref, u, v, i + 1);
            double s2 = square(a, b, u_ref, v_ref, u, v, i + 2);
            double s3 = square(a, b, u_ref, v_ref, u, v, i + 3);
            if (isnan(s0 + s1 + s2 + s3))
                return NAN;
            b0 = s0 > b0 ? s0 : b0;
            b1 = s1 > b1 ? s1 : b1;
            b2 = s2 > b2 ? s2 : b2;
            b3 = s3 > b3 ? s3 : b3;
        }
        for (; i < n; i++) {
            double s = square(a, b, u_ref, v_ref, u, v, i);
            if (isnan(s))
                return NAN;
            b0 = s > b0 ? s : b0;
        }
    }
    b0 = b1 > b0 ? b1 : b0;
    b2 = b3 > b2 ? b3 : b2;
    return b2 > b0 ? b2 : b0;
}
