/* Per-bin kernels of both adaptive filters, loaded by convbeam.engine.

Each entry point runs every bin through nf frames, one bin at a time, so a
bin's filter and frame history stay in cache for the whole call; bin k has
its own order L_k = orders[k] and all share the delay D.  The arithmetic is
that of the scalar oracle in convbeam.apa and convbeam.sdmvdr, step for
step; only the order of the sums in a dot product or norm differs.  Each
such sum runs in 8 lanes, 4 complex entries a step, which are added in a
fixed tree at the end, so a build that maps the lanes onto SSE2 or AVX2
registers rounds as a scalar one: every clone and every vector width gives
the same bits.  Complex arrays are interleaved (re, im) doubles in C order,
with rows ws and fs complex entries apart:

  w       (bins, ws)         filters, bin k's Q_k taps first; updated in place
  frames  (bins, fs / M, M)  slot l <= L_k holds y(n-l); pushed after every frame
  ys      (bins, nf, M)      the input, one row of frames per bin
  gsq     (bins, nf)         squared gains that scale the PSD estimate
  a       (bins, M)          steering (apa) or fixed heads (rc)
  out     (R, bins, nf)      output rows, written only when keep is nonzero
  p       phi_b, phi_r, phi_a, eta, alpha_r

apa_run returns 0, or 1 + k*nf + n for the first singular 2x2 solve, at
bin k and frame n, where the call stops; rc_run, which solves none, 0. */

#include <math.h>
#include <string.h>

/* apa_run and rc_run also get an AVX2 clone on x86-64; not one with FMA */
#if !defined(CLONES) && defined(__x86_64__) && defined(__GNUC__)
#define CLONES __attribute__((target_clones("avx2", "default")))
#elif !defined(CLONES)
#define CLONES
#endif

/* the sum of 8 lanes, in a fixed tree */
static double tree(const double l[8])
{
    return ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]));
}

/* s += x^H y over n complex entries; im's odd lanes sum Im(x) Re(y), negated at the end */
static void dotc(double s[2], const double *x, const double *y, long n)
{
    double re[8] = {0.0}, im[8] = {0.0};
    long i = 0;
    for (; i + 8 <= 2 * n; i += 8)
        for (int j = 0; j < 8; j++) {
            re[j] += x[i + j] * y[i + j];
            im[j] += x[i + j] * y[i + (j ^ 1)];
        }
    for (; i < 2 * n; i++) {
        re[i & 1] += x[i] * y[i];
        im[i & 1] += x[i] * y[i ^ 1];
    }
    for (int j = 1; j < 8; j += 2)
        im[j] = -im[j];
    s[0] += tree(re);
    s[1] += tree(im);
}

/* ||x||^2 over n complex entries */
static double norm2(const double *x, long n)
{
    double r[8] = {0.0};
    long i = 0;
    for (; i + 8 <= 2 * n; i += 8)
        for (int j = 0; j < 8; j++)
            r[j] += x[i + j] * x[i + j];
    for (; i < 2 * n; i++)
        r[i & 1] += x[i] * x[i];
    return tree(r);
}

/* w += (c x) g over n complex entries */
static void axpy(double *w, const double *x, double c, const double g[2], long n)
{
    for (long i = 0; i < 2 * n; i += 2) {
        const double xr = c * x[i], xi = c * x[i + 1];
        w[i] += xr * g[0] - xi * g[1];
        w[i + 1] += xr * g[1] + xi * g[0];
    }
}

/* Copy a frame into slot 0; returns its ||y||^2, which sets the PSD floor eta ||y||^2 / M. */
static double load(double *frames, const double *y, long m)
{
    memcpy(frames, y, 2 * m * sizeof(double));
    return norm2(y, m);
}

/* apa.limited_output: x_b less alpha * min(|x_r|, |x_b|) along x_r. */
static void limited(double *x, const double xb[2], const double xr[2], double alpha)
{
    const double mag_r = hypot(xr[0], xr[1]);
    const double step = alpha * fmin(mag_r, hypot(xb[0], xb[1]));
    for (int i = 0; i < 2; i++)
        x[i] = mag_r == 0.0 ? xb[i] : xb[i] - step * (xr[i] / mag_r);
}

/* apa.apa_update with its PSD estimate, floor and outputs (x_hat, x_b, x_r). */
CLONES long apa_run(long bins, long nf, long m, long d, long ws, long fs, long keep,
                    const long *orders, const double *p, const double *gsq, double *w,
                    double *frames, const double *ys, const double *a, double *out)
{
    const double phi_b = p[0], phi_r = p[1], phi_a = p[2], eta = p[3], alpha = p[4];
    const long row = 2 * bins * nf;
    for (long k = 0; k < bins; k++, w += 2 * ws, frames += 2 * fs) {
        const long l = orders[k], tail = l ? (l - d + 1) * m : 0;
        const double *ak = a + 2 * k * m, *t = frames + (tail ? 2 * d * m : 0);
        const double s11 = phi_b * norm2(ak, m) + phi_a;
        for (long n = 0; n < nf; n++) {
            const double ny = load(frames, ys + 2 * (k * nf + n) * m, m), floor = eta * (ny / m);
            double wy[2] = {0.0, 0.0}, ya[2] = {0.0, 0.0}, aw[2] = {0.0, 0.0};
            dotc(wy, w, frames, m);
            dotc(wy, w + 2 * m, t, tail);
            dotc(ya, frames, ak, m);
            dotc(aw, ak, w, m);
            const double phi_x = gsq[k * nf + n] * (wy[0] * wy[0] + wy[1] * wy[1]);
            const double s00 = phi_b * ny + phi_r * norm2(t, tail)
                               + (phi_x > floor ? phi_x : floor);
            /* e0 = -ytilde^H w = -conj(w^H ytilde), e1 = 1 - a^H w_head */
            const double s01r = phi_b * ya[0], s01i = phi_b * ya[1];
            const double e0r = -wy[0], e0i = wy[1], e1r = 1.0 - aw[0], e1i = 0.0 - aw[1];
            const double det = s00 * s11 - (s01r * s01r + s01i * s01i);
            double g0[2] = {0.0, 0.0}, g1[2];
            if (det > 0.0) {
                g0[0] = (s11 * e0r - (s01r * e1r - s01i * e1i)) / det;
                g0[1] = (s11 * e0i - (s01r * e1i + s01i * e1r)) / det;
                g1[0] = (s00 * e1r - (s01r * e0r + s01i * e0i)) / det;
                g1[1] = (s00 * e1i - (s01r * e0i - s01i * e0r)) / det;
            } else if (s00 == 0.0 && s11 > 0.0) { /* the constraint row alone */
                g1[0] = e1r / s11;
                g1[1] = e1i / s11;
            } else {
                return 1 + k * nf + n;
            }
            const double b[2] = {phi_b * g1[0], phi_b * g1[1]};
            axpy(w, frames, phi_b, g0, m);
            axpy(w, ak, 1.0, b, m);
            axpy(w + 2 * m, t, phi_r, g0, tail);
            if (keep) { /* x_b = w_head^H y, x_r = x_b - w^H ytilde */
                double xb[2] = {0.0, 0.0}, *o = out + 2 * (k * nf + n);
                dotc(xb, w, frames, m);
                double xr[2] = {xb[0], xb[1]};
                dotc(xr, w + 2 * m, t, tail);
                xr[0] = xb[0] - xr[0];
                xr[1] = xb[1] - xr[1];
                limited(o, xb, xr, alpha);
                memcpy(o + row, xb, sizeof xb);
                memcpy(o + 2 * row, xr, sizeof xr);
            }
            memmove(frames + 2 * m, frames, 2 * l * m * sizeof(double));
        }
    }
    return 0;
}

/* sdmvdr.rc_speech_psd and sdmvdr.rc_update, with the output x_hat. */
CLONES long rc_run(long bins, long nf, long m, long d, long ws, long fs, long keep,
                   const long *orders, const double *p, const double *gsq, double *w,
                   double *frames, const double *ys, const double *a, double *out)
{
    const double phi_r = p[1], eta = p[3], alpha = p[4];
    for (long k = 0; k < bins; k++, w += 2 * ws, frames += 2 * fs) {
        const long l = orders[k], q = (l - d + 1) * m;
        const double *head = a + 2 * k * m, *f = frames + 2 * d * m;
        for (long n = 0; n < nf; n++) {
            const double floor = eta * (load(frames, ys + 2 * (k * nf + n) * m, m) / m);
            double x_d[2] = {0.0, 0.0}, wf[2] = {0.0, 0.0};
            dotc(x_d, head, frames, m);
            dotc(wf, w, f, q);
            const double e[2] = {x_d[0] - wf[0], x_d[1] - wf[1]};
            const double phi_x = gsq[k * nf + n] * (e[0] * e[0] + e[1] * e[1]);
            /* a zero denominator (zero regressor, zero floor) means no update */
            const double denom = phi_r * norm2(f, q) + (phi_x > floor ? phi_x : floor);
            if (denom > 0.0) {
                const double c = phi_r / denom, step[2] = {c * e[0], c * -e[1]};
                axpy(w, f, 1.0, step, q);
            }
            if (keep) {
                double xr[2] = {0.0, 0.0};
                dotc(xr, w, f, q);
                limited(out + 2 * (k * nf + n), x_d, xr, alpha);
            }
            memmove(frames + 2 * m, frames, 2 * l * m * sizeof(double));
        }
    }
    return 0;
}
