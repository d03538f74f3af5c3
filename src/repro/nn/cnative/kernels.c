/* kernels.c — self-compiled C kernels for the `cnative` ops backend.
 *
 * Compiled on first use by build.py with the system C compiler into a
 * shared object keyed by the hash of this source (see build.py), then
 * loaded through ctypes (loader.py).  Every entry point takes raw
 * C-contiguous float64 / int64 buffers — the Python wrappers own all
 * shape/dtype validation and fall back to the NumPy implementations
 * for anything this file does not handle.
 *
 * Determinism contract: for a given input, every output element is
 * accumulated in ascending edge/row order by exactly one thread, so
 * results are bitwise identical for any thread count.  The parallel
 * reduction kernels partition by OUTPUT COLUMN (each thread owns a
 * column range and sweeps all edges in order) rather than by edge,
 * which keeps duplicate row indices race-free without atomics and
 * preserves the serial accumulation order per element.
 *
 * Built with -fopenmp when the compiler supports it; without OpenMP
 * the pragmas are ignored and everything runs serially.  ctypes
 * releases the GIL for the duration of each call, so threaded callers
 * (the serve tier's worker threads) overlap for real.
 */

#include <math.h>
#include <string.h>

typedef long long i64;

/* Matches the numerically-stable branch numpy-side sigmoid uses, so
 * the fused-activation path agrees with Tensor.sigmoid to 1 ulp. */
static double stable_sigmoid(double x)
{
    if (x >= 0.0)
        return 1.0 / (1.0 + exp(-x));
    {
        double e = exp(x);
        return e / (1.0 + e);
    }
}

/* Activation epilogues, span at a time.
 *
 * When the build probe succeeds (see build.py), this file is compiled
 * with -ffast-math and REPRO_VECMATH defined: the loops below then
 * vectorize through glibc's libmvec (_ZGVbN2v_exp/_ZGVbN2v_tanh,
 * ~2x faster, <=4 ulp vs scalar libm — three orders of magnitude
 * inside the backend's 1e-8 equivalence bar).  The branch-free
 * sigmoid form is required for vectorization; for x << 0 its exp(-x)
 * overflows to +inf and the quotient is exactly the 0.0 limit, so it
 * is safe across the full double range.  Reductions elsewhere in
 * this file carry loop dependencies through memory, so -ffast-math
 * cannot reassociate them: accumulation order — and with it the
 * bitwise thread-count determinism contract — is unchanged.
 *
 * Without the probe (no libmvec to link), the scalar stable-branch
 * fallbacks below keep the exact historical values. */
#ifdef REPRO_VECMATH
static void sigmoid_span(double *p, i64 n)
{
    for (i64 j = 0; j < n; ++j)
        p[j] = 1.0 / (1.0 + exp(-p[j]));
}
#else
static void sigmoid_span(double *p, i64 n)
{
    for (i64 j = 0; j < n; ++j)
        p[j] = stable_sigmoid(p[j]);
}
#endif

static void tanh_span(double *p, i64 n)
{
    for (i64 j = 0; j < n; ++j)
        p[j] = tanh(p[j]);
}

static void tanh_span_to(double *dst, const double *src, i64 n)
{
    for (i64 j = 0; j < n; ++j)
        dst[j] = tanh(src[j]);
}

/* out[rows[e], :] += values[e, :] for e in ascending order.  Duplicate
 * row ids are the common case (scatter-add of gradients); the parallel
 * path is race-free because threads split columns, not edges. */
void repro_scatter_add_rows(double *out, const i64 *rows,
                            const double *values, i64 n, i64 w, int nt)
{
    if (nt <= 1) {
        for (i64 e = 0; e < n; ++e) {
            double *dst = out + rows[e] * w;
            const double *src = values + e * w;
            for (i64 j = 0; j < w; ++j)
                dst[j] += src[j];
        }
        return;
    }
#pragma omp parallel for schedule(static) num_threads(nt)
    for (i64 j = 0; j < w; ++j)
        for (i64 e = 0; e < n; ++e)
            out[rows[e] * w + j] += values[e * w + j];
}

/* Fused two-operand bucket sum: out[seg[e], 0:w] += a[e], and
 * out[seg[e], w:2w] += b[e] — the tree-LSTM's h~ and sum(f*c) share one
 * edge list, so one sweep covers both. */
void repro_segment_sum_pair(const double *a, const double *b,
                            const i64 *seg, i64 n, i64 w,
                            double *out, int nt)
{
    if (nt <= 1) {
        for (i64 e = 0; e < n; ++e) {
            double *dst = out + seg[e] * 2 * w;
            const double *ra = a + e * w;
            const double *rb = b + e * w;
            for (i64 j = 0; j < w; ++j)
                dst[j] += ra[j];
            for (i64 j = 0; j < w; ++j)
                dst[w + j] += rb[j];
        }
        return;
    }
#pragma omp parallel for schedule(static) num_threads(nt)
    for (i64 j = 0; j < 2 * w; ++j) {
        const double *src = (j < w) ? a : b;
        i64 col = (j < w) ? j : j - w;
        for (i64 e = 0; e < n; ++e)
            out[seg[e] * 2 * w + j] += src[e * w + col];
    }
}

/* repro_segment_sum_pair with the second operand's forget-gate
 * product computed per edge inside the sweep: out[seg[e], w:2w] +=
 * f[e] * c[e].  Skips the full-size f*c temporary the composed graph
 * allocated; the multiply happens in the same order per element, so
 * results stay bitwise identical. */
void repro_segment_sum_pair_gated(const double *a, const double *f,
                                  const double *c, const i64 *seg,
                                  i64 n, i64 w, double *out, int nt)
{
    if (nt <= 1) {
        for (i64 e = 0; e < n; ++e) {
            double *dst = out + seg[e] * 2 * w;
            const double *ra = a + e * w;
            const double *rf = f + e * w;
            const double *rc = c + e * w;
            for (i64 j = 0; j < w; ++j)
                dst[j] += ra[j];
            for (i64 j = 0; j < w; ++j)
                dst[w + j] += rf[j] * rc[j];
        }
        return;
    }
#pragma omp parallel for schedule(static) num_threads(nt)
    for (i64 j = 0; j < 2 * w; ++j) {
        if (j < w) {
            for (i64 e = 0; e < n; ++e)
                out[seg[e] * 2 * w + j] += a[e * w + j];
        } else {
            i64 col = j - w;
            for (i64 e = 0; e < n; ++e)
                out[seg[e] * 2 * w + j] += f[e * w + col] * c[e * w + col];
        }
    }
}

/* out[e, :] = data[rows[e], :] — plain row gather. */
void repro_take_rows(const double *data, const i64 *rows, i64 n, i64 w,
                     double *out, int nt)
{
#pragma omp parallel for schedule(static) num_threads(nt) if (nt > 1)
    for (i64 e = 0; e < n; ++e)
        memcpy(out + e * w, data + rows[e] * w, (size_t)w * sizeof(double));
}

/* out = base + mat @ weight^T with an optionally fused activation.
 *
 *   base_mode 0: base is a bias row of length n (broadcast over rows)
 *   base_mode 1: base is a full (m, n) matrix
 *   act 0: none   act 1: sigmoid   act 2: tanh
 *   act 3: "iou" — sigmoid on the first two thirds of the columns,
 *          tanh on the last third (the tree-LSTM's packed i|o|u gate
 *          block; n must be divisible by 3, the wrapper checks)
 *
 * mat is (m, k), weight is (n, k) — the row-major layout every gate
 * projection already uses, so the inner product runs over two
 * contiguous rows.  Each output row is produced by one thread with a
 * sequential k-loop: deterministic for any thread count. */
void repro_gemm_gates(const double *base, int base_mode,
                      const double *mat, const double *weight,
                      i64 m, i64 n, i64 k, double *out, int act, int nt)
{
#pragma omp parallel for schedule(static) num_threads(nt) if (nt > 1)
    for (i64 i = 0; i < m; ++i) {
        const double *mrow = mat + i * k;
        const double *brow = base_mode ? base + i * n : base;
        double *orow = out + i * n;
        for (i64 j = 0; j < n; ++j) {
            const double *wrow = weight + j * k;
            double acc = 0.0;
            for (i64 t = 0; t < k; ++t)
                acc += mrow[t] * wrow[t];
            orow[j] = brow[j] + acc;
        }
        if (act == 1)
            sigmoid_span(orow, n);
        else if (act == 2)
            tanh_span(orow, n);
        else if (act == 3) {
            i64 two = 2 * (n / 3);
            sigmoid_span(orow, two);
            tanh_span(orow + two, n - two);
        }
    }
}

/* Backward of the fused activation epilogue: g = grad ⊙ dact(out),
 * where out holds the *post*-activation values (so the derivative is
 * out*(1-out) for sigmoid, 1-out² for tanh).  `two` is only read for
 * act 3 (iou): columns below it take the sigmoid derivative, the rest
 * the tanh derivative.  One pass instead of the several elementwise
 * temporaries the NumPy formulation allocates. */
void repro_act_backward(const double *grad, const double *out,
                        i64 m, i64 n, i64 two, int act, double *g, int nt)
{
#pragma omp parallel for schedule(static) num_threads(nt) if (nt > 1)
    for (i64 i = 0; i < m; ++i) {
        const double *gr = grad + i * n;
        const double *o = out + i * n;
        double *dst = g + i * n;
        if (act == 1)
            for (i64 j = 0; j < n; ++j)
                dst[j] = gr[j] * o[j] * (1.0 - o[j]);
        else if (act == 2)
            for (i64 j = 0; j < n; ++j)
                dst[j] = gr[j] * (1.0 - o[j] * o[j]);
        else {
            for (i64 j = 0; j < two; ++j)
                dst[j] = gr[j] * o[j] * (1.0 - o[j]);
            for (i64 j = two; j < n; ++j)
                dst[j] = gr[j] * (1.0 - o[j] * o[j]);
        }
    }
}

/* Fused pointwise (tree-)LSTM cell on the POST-activation packed gate
 * block iou = [sigma(i) | sigma(o) | tanh(u)] (m, 3h) and the
 * forget-gated cell sum fc (m, h):
 *
 *     c = i*u + fc        h = o * tanh(c)
 *
 * out is (m, 2h) packed [h | c]; th (m, h) receives tanh(c), which the
 * caller hands back to the backward so the transcendental is computed
 * exactly once.  Same elementwise op order as the composed graph, so
 * float64 results match it bitwise. */
void repro_lstm_cell(const double *iou, const double *fc, i64 m, i64 hs,
                     double *out, double *th, int nt)
{
#pragma omp parallel for schedule(static) num_threads(nt) if (nt > 1)
    for (i64 r = 0; r < m; ++r) {
        const double *g = iou + r * 3 * hs;
        const double *f = fc + r * hs;
        double *orow = out + r * 2 * hs;
        double *trow = th + r * hs;
        for (i64 j = 0; j < hs; ++j)
            orow[hs + j] = g[j] * g[2 * hs + j] + f[j];
        tanh_span_to(trow, orow + hs, hs);
        for (i64 j = 0; j < hs; ++j)
            orow[j] = g[hs + j] * trow[j];
    }
}

/* Backward of repro_lstm_cell.  grad is the packed incoming gradient
 * [gh | gc_external]; th is the tanh(c) the forward stored.  The
 * tanh-path contribution is added to the external c gradient last —
 * the order the composed graph accumulated it. */
void repro_lstm_cell_backward(const double *grad, const double *iou,
                              const double *th, i64 m, i64 hs,
                              double *giou, double *gfc, int nt)
{
#pragma omp parallel for schedule(static) num_threads(nt) if (nt > 1)
    for (i64 r = 0; r < m; ++r) {
        const double *gr = grad + r * 2 * hs;
        const double *g = iou + r * 3 * hs;
        const double *trow = th + r * hs;
        double *gg = giou + r * 3 * hs;
        double *gf = gfc + r * hs;
        for (i64 j = 0; j < hs; ++j) {
            double gh = gr[j];
            double o = g[hs + j];
            double t = trow[j];
            double gc = gr[hs + j] + (gh * o) * (1.0 - t * t);
            gg[j] = gc * g[2 * hs + j];
            gg[hs + j] = gh * t;
            gg[2 * hs + j] = gc * g[j];
            gf[j] = gc;
        }
    }
}

/* Self-check used by the loader to verify the shared object answers;
 * also a canary that the calling convention (i64 width) round-trips. */
i64 repro_abi_probe(i64 x)
{
    return x * 2 + 1;
}
