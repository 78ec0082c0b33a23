/* The AVF integrations of `integrate_steps` with g_avg = `wave.sin_average`,
 * each as one C loop: `avf_integrate` runs `ReducedModel.make_step`,
 * `avf_integrate_full` runs `TwoBlockSystem.make_step`.
 *
 * They do the arithmetic of the numpy path operation by operation, so
 * every state comes out bit for bit the same:
 *  - each matrix-vector product calls numpy's own cblas dgemv with the
 *    arguments np.dot passes for that operand's memory layout (see
 *    `struct matrix`);
 *  - the full-order linear solve repeats SuperLU's dgstrs on its
 *    supernodal factor (see `struct factor`), with the dtrsm and dgemm of
 *    the OpenBLAS that scipy bundles, which SuperLU calls;
 *  - elementwise steps round in sin_average's order, and sin is the libm
 *    function that np.sin calls;
 *  - every solve stops by the rule of `integrator.picard_converged`.
 * Compile without -ffast-math and with -ffp-contract=off, so that no
 * product and sum is fused.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

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
        if (step >= 7) {
            extrapolate(gemv, extrapolation, dim, z, start);
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
            int state = picard_converged(dim, update, z1, it, tol, max_iter, residual);
            if (state > 0)
                break;
            if (state < 0) {
                iterations[step] = it;
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

/* ---------------------------------------------------------------------
 * The full-order step: SuperLU's solve and the loop around it. */

typedef void (*trsm_fn)(const char *side, const char *uplo, const char *trans, const char *diag,
                        const int *m, const int *n, const double *alpha, const double *a,
                        const int *lda, double *b, const int *ldb);
typedef void (*gemm_fn)(const char *trans_a, const char *trans_b, const int *m, const int *n,
                        const int *k, const double *alpha, const double *a, const int *lda,
                        const double *b, const int *ldb, const double *beta, double *c,
                        const int *ldc);

/* SuperLU's factor Pr A Pc = L U of an n x n matrix, as dgstrs reads it.
 * Supernode s holds the columns xsup[s] .. xsup[s+1]-1 and the rows
 * lsub[xlsub[s] .. xlsub[s+1]-1], ascending, the first nsupc of them its
 * own columns; its values lusup[xlusup[s] ..] are a column-major
 * nsupr x nsupc block: the diagonal block (unit L below, U on and above
 * the diagonal) over the rows of L below it.  The U entries above the
 * supernodes are column j's urow/uval[ucolptr[j] .. ucolptr[j+1]-1].
 * Rows and columns are pivoted positions: b enters as y[perm_r[k]] and
 * x leaves as y[perm_c[k]]. */
struct factor {
    trsm_fn trsm;
    gemm_fn gemm;
    int64_t n, nsuper;
    const int64_t *perm_r, *perm_c, *xsup, *xlsub, *lsub, *xlusup, *ucolptr, *urow;
    const double *lusup, *uval;
};

static int ascending(const void *a, const void *b)
{
    int64_t x = *(const int64_t *)a, y = *(const int64_t *)b;
    return (x > y) - (x < y);
}

/* SuperLU's supernodes of the L of b = Pr A Pc, as dgstrf finds them
 * with relaxed supernodes of up to `relax` columns and others of up to
 * `maxsuper`: column j of b holds the pivoted rows
 * rowind[colptr[j] .. colptr[j+1]-1].
 *  - Relaxed supernodes are the subtrees of at most `relax` nodes of the
 *    column elimination tree (relax_snode); their rows are the union of
 *    their columns' rows.
 *  - Every other column's L rows are those reached from its own rows
 *    through the supernodes already found; it joins the supernode of
 *    column j - 1 when j - 1 is not in a relaxed one and its rows are
 *    those of j - 1 but the pivot of j - 1 (dcolumn_dfs).
 * Writes xsup[0 .. nsuper] and xlsub[0 .. nsuper] and the rows to lsub;
 * work holds 10 n values.  Returns nsuper, -1 when lsub would need more
 * than `capacity` entries, or -2 for a pattern that this emulation does
 * not cover (a supernode whose rows do not start with its columns). */
int64_t lu_supernodes(int64_t n, const int64_t *colptr, const int64_t *rowind, int64_t relax,
                      int64_t maxsuper, int64_t capacity, int64_t *xsup, int64_t *xlsub,
                      int64_t *lsub, int64_t *work)
{
    int64_t *first = work, *parent = first + n, *ancestor = parent + n,
            *descendants = ancestor + n, *relax_end = descendants + n, *supno = relax_end + n,
            *mark = supno + n, *mark_prev = mark + n, *mark_super = mark_prev + n,
            *stack = mark_super + n;

    /* the column elimination tree (sp_coletree): Liu's algorithm on the
     * star that joins each row's columns to its first one */
    for (int64_t i = 0; i < n; i++)
        first[i] = n;
    for (int64_t j = 0; j < n; j++)
        for (int64_t p = colptr[j]; p < colptr[j + 1]; p++)
            if (j < first[rowind[p]])
                first[rowind[p]] = j;
    for (int64_t j = 0; j < n; j++) {
        parent[j] = n;
        ancestor[j] = -1;
        for (int64_t p = colptr[j]; p < colptr[j + 1]; p++)
            for (int64_t i = first[rowind[p]]; i != -1 && i < j;) {
                int64_t next = ancestor[i];
                ancestor[i] = j;
                if (next == -1)
                    parent[i] = j;
                i = next;
            }
    }
    /* relax_snode */
    for (int64_t j = 0; j < n; j++)
        descendants[j] = 0;
    for (int64_t j = 0; j < n; j++)
        if (parent[j] != n)
            descendants[parent[j]] += descendants[j] + 1;
    for (int64_t j = 0; j < n; j++)
        relax_end[j] = mark[j] = mark_prev[j] = mark_super[j] = -1;
    for (int64_t j = 0; j < n;) {
        int64_t start = j;
        while (parent[j] != n && descendants[parent[j]] < relax)
            j = parent[j];
        relax_end[start] = j++;
        while (j < n && descendants[j] != 0)
            j++;
    }

    int64_t nsuper = 0, used = 0, previous = -1; /* L rows of column j - 1, if counted */
    for (int64_t j = 0; j < n;) {
        int64_t begin = used;
        xlsub[nsuper] = begin;
        if (relax_end[j] != -1) {
            int64_t last = relax_end[j];
            for (int64_t c = j; c <= last; c++) {
                supno[c] = nsuper;
                for (int64_t p = colptr[c]; p < colptr[c + 1]; p++)
                    if (mark[rowind[p]] != j) {
                        if (used == capacity)
                            return -1;
                        mark[rowind[p]] = j;
                        lsub[used++] = rowind[p];
                    }
            }
            xsup[nsuper++] = j;
            previous = -1;
            j = last + 1;
        } else {
            int64_t top = 0;
            for (int64_t p = colptr[j]; p < colptr[j + 1]; p++)
                if (mark[rowind[p]] != j) {
                    mark[rowind[p]] = j;
                    stack[top++] = rowind[p];
                }
            while (top > 0) {
                int64_t r = stack[--top];
                if (r >= j) {
                    if (used == capacity)
                        return -1;
                    lsub[used++] = r;
                } else if (mark_super[supno[r]] != j) {
                    int64_t s = supno[r];
                    mark_super[s] = j;
                    int64_t end = s + 1 < nsuper ? xlsub[s + 1] : begin;
                    for (int64_t q = xlsub[s]; q < end; q++)
                        if (mark[lsub[q]] != j) {
                            mark[lsub[q]] = j;
                            stack[top++] = lsub[q];
                        }
                }
            }
            int64_t count = used - begin;
            int join = previous == count + 1 && j - xsup[nsuper - 1] < maxsuper;
            for (int64_t q = begin; q < used; q++) {
                join = join && mark_prev[lsub[q]] == j - 1;
                mark_prev[lsub[q]] = j;
            }
            previous = count;
            if (join) { /* the supernode keeps the rows of its first column */
                supno[j] = nsuper - 1;
                used = begin;
            } else {
                supno[j] = nsuper;
                xsup[nsuper++] = j;
            }
            j++;
        }
    }
    xsup[nsuper] = n;
    xlsub[nsuper] = used;
    for (int64_t s = 0; s < nsuper; s++) {
        int64_t *rows = lsub + xlsub[s], nsupc = xsup[s + 1] - xsup[s];
        qsort(rows, (size_t)(xlsub[s + 1] - xlsub[s]), sizeof *rows, ascending);
        if (xlsub[s + 1] - xlsub[s] < nsupc)
            return -2;
        for (int64_t k = 0; k < nsupc; k++)
            if (rows[k] != xsup[s] + k)
                return -2;
    }
    return nsuper;
}

/* x = A^-1 b as SuperLU's dgstrs computes it (one right-hand side,
 * vendor BLAS); work holds 2 n values, the last n of them zero, and
 * keeps them zero. */
void lu_solve(const struct factor *f, const double *b, double *x, double *work)
{
    int64_t n = f->n;
    double *y = work, *product = work + n, one = 1.0;
    int ldy = (int)n, columns = 1;

    for (int64_t k = 0; k < n; k++)
        y[f->perm_r[k]] = b[k];
    for (int64_t s = 0; s < f->nsuper; s++) { /* L y = y, supernode by supernode */
        int64_t j = f->xsup[s];
        int nsupc = (int)(f->xsup[s + 1] - j), nsupr = (int)(f->xlsub[s + 1] - f->xlsub[s]);
        int below = nsupr - nsupc;
        const int64_t *rows = f->lsub + f->xlsub[s];
        const double *l = f->lusup + f->xlusup[s];
        if (nsupc == 1) {
            for (int i = 1; i < nsupr; i++)
                y[rows[i]] -= y[j] * l[i];
        } else {
            f->trsm("L", "L", "N", "U", &nsupc, &columns, &one, l, &nsupr, y + j, &ldy);
            f->gemm("N", "N", &below, &columns, &nsupc, &one, l + nsupc, &nsupr, y + j, &ldy,
                    &one, product, &ldy);
            for (int i = 0; i < below; i++) {
                y[rows[nsupc + i]] -= product[i];
                product[i] = 0.0;
            }
        }
    }
    for (int64_t s = f->nsuper - 1; s >= 0; s--) { /* U y = y, from the last supernode */
        int64_t j = f->xsup[s];
        int nsupc = (int)(f->xsup[s + 1] - j), nsupr = (int)(f->xlsub[s + 1] - f->xlsub[s]);
        const double *u = f->lusup + f->xlusup[s];
        if (nsupc == 1)
            y[j] /= u[0];
        else
            f->trsm("L", "U", "N", "N", &nsupc, &columns, &one, u, &nsupr, y + j, &ldy);
        for (int64_t c = j; c < j + nsupc; c++)
            for (int64_t p = f->ucolptr[c]; p < f->ucolptr[c + 1]; p++)
                y[f->urow[p]] -= y[c] * f->uval[p];
    }
    for (int64_t k = 0; k < n; k++)
        x[k] = y[f->perm_c[k]];
}

/* Integrate `steps` full-order AVF steps of u' = v, v' = A u - c_u g(u)
 * from states[0] into states[1..steps] (rows of 2 n values, n = f->n),
 * where f factors I - dt^2/4 A and qc = dt^2/4 c_u; each step iterates
 *     u_m <- (I - dt^2/4 A)^-1 (u0 + dt/2 v0 - qc sin_average(u0, 2 u_m - u0)).
 * work holds 11 n doubles, the last n of them zero.  Returns as
 * avf_integrate does. */
int64_t avf_integrate_full(gemv_fn gemv, const struct factor *f, const double *qc, double dt,
                           const double *extrapolation, double tol, int64_t max_iter,
                           int64_t steps, double *states, int64_t *iterations, double *work,
                           double *residual)
{
    int64_t n = f->n, dim = 2 * n;
    double half_dt = 0.5 * dt, rate = 4.0 / dt;
    double *start = work, *base = start + dim, *x1 = base + n, *g = x1 + n, *rhs = g + n;
    double *update = rhs + n, *iterates[2] = {update + n, update + 2 * n};
    double *solve_work = update + 3 * n;

    for (int64_t step = 0; step < steps; step++) {
        const double *u0 = states + step * dim, *v0 = u0 + n, *first = u0;
        if (step >= 7) {
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
            for (int64_t i = 0; i < n; i++)
                rhs[i] = base[i] - qc[i] * g[i];
            double *next = iterates[it & 1];
            lu_solve(f, rhs, next, solve_work);
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
        double *u1 = states + (step + 1) * dim, *v1 = u1 + n;
        for (int64_t i = 0; i < n; i++) {
            u1[i] = 2.0 * um[i] - u0[i];
            v1[i] = rate * (um[i] - u0[i]) - v0[i];
        }
    }
    return -1;
}
