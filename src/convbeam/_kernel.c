/* The per-bin kernel of both adaptive filters, loaded by convbeam.engine.

Its one entry point, run, runs bins k0 <= k < k1 of the arrays' bins through nf
frames, one bin at a time, so a bin's filter and frame history stay in cache
for the whole call; bin k has its own order L_k = orders[k] and all share
the delay D.  Bins share no value, so calls on disjoint ranges may run at
once.  The arithmetic is that of the scalar oracle in convbeam.apa and
convbeam.sdmvdr, step for step; only the order of the sums in a dot product
or norm differs.  Each such sum runs over the (re, im) doubles in 8 lanes
added in a fixed tree, so it rounds as a scalar build would: every clone and
vector width gives the same bits.  The lanes are written out as vectors of 4
doubles (v4), two per 8 lanes, with a complex entry's (re, im) swap as the
one shuffle: left to the compiler, the 8-lane scalar loops' AVX2 build spent
158 shuffles on 70 vector multiplies, and the v4 form 46 on 80.  The
helpers (HELPER) are inlined into each clone, so the AVX2 clone runs the v4
lanes in AVX2 registers and the default clone in SSE2 pairs; no v4 is passed
to or returned from a function, whose ABI would differ between the clones.
The params come by value; arrays are C99 double complex (g double), in C
order with rows ws and hs entries apart; w and hist are the calling run's
own, which it builds and keeps between calls:

  w       (bins, ws)         filters, bin k's Q_k taps first; updated in place
  hist    (bins, hs / M, M)  slot l-1 holds y(n-l), l <= L_k, as the scalar states' history
  data    (M, bins, nf)      the input, a Spectrogram's layout; y(n) is gathered per frame
  g       (bins, nf)         gains whose squares scale the PSD estimate, or NULL for none
  a       (bins, M)          steering (head 1) or fixed heads (head 0)
  out     (R, bins, nf)      output rows, R = 3 (head 1) or 1 (head 0)

With prior nonzero, each bin runs its nf frames with no outputs, zeroes its
history (not its filter) and runs them again.  run returns 0, or
1 + k*nf + n for the first singular 2x2 solve, at bin k and frame n of
either pass, where the call stops; only the head branch solves one. */

#include <complex.h>
#include <math.h>
#include <string.h>

/* run also gets an AVX2 clone on x86-64; not one with FMA */
#if !defined(CLONES) && defined(__x86_64__) && defined(__GNUC__)
#define CLONES __attribute__((target_clones("avx2", "default")))
#elif !defined(CLONES)
#define CLONES
#endif
#define HELPER static inline __attribute__((always_inline))

/* 4 lanes of doubles, the (re, im) of 2 complex entries; SWAP(v) has v's lane j ^ 1 in lane j */
typedef double v4 __attribute__((vector_size(32)));
#define SWAP(v) ((v4){(v)[1], (v)[0], (v)[3], (v)[2]})

/* the sum of 8 lanes, in a fixed tree */
HELPER double tree(const double l[8])
{
    return ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]));
}

/* s + a^H b over n complex entries; im's odd lanes sum Im(a) Re(b), negated at last */
HELPER double complex dotc(double complex s, const double complex *a, const double complex *b,
                           long n)
{
    const double *x = (const double *)a, *y = (const double *)b;
    v4 r0 = {0.0}, r1 = {0.0}, i0 = {0.0}, i1 = {0.0}, x0, x1, y0, y1;
    double re[8], im[8];
    long i = 0;
    for (; i + 8 <= 2 * n; i += 8) {
        memcpy(&x0, x + i, sizeof x0), memcpy(&x1, x + i + 4, sizeof x1);
        memcpy(&y0, y + i, sizeof y0), memcpy(&y1, y + i + 4, sizeof y1);
        r0 += x0 * y0, r1 += x1 * y1;
        i0 += x0 * SWAP(y0), i1 += x1 * SWAP(y1);
    }
    memcpy(re, &r0, sizeof r0), memcpy(re + 4, &r1, sizeof r1);
    memcpy(im, &i0, sizeof i0), memcpy(im + 4, &i1, sizeof i1);
    for (; i < 2 * n; i++) {
        re[i & 1] += x[i] * y[i];
        im[i & 1] += x[i] * y[i ^ 1];
    }
    for (int j = 1; j < 8; j += 2)
        im[j] = -im[j];
    return s + CMPLX(tree(re), tree(im));
}

/* ||a||^2 over n complex entries, the real part of a^H a: the imaginary lanes go unused */
HELPER double norm2(const double complex *a, long n) { return creal(dotc(0.0, a, a, n)); }

/* w += (c x) g over n complex entries, 2 a step as w + (cx gr + SWAP(cx) (-gi, gi)): the tail's
   bits, since a - b is a + (-b) and swapping the operands of a sum does not change its rounding */
HELPER void axpy(double complex *cw, const double complex *cx, double c, double complex g, long n)
{
    double *w = (double *)cw;
    const double *x = (const double *)cx, gr = creal(g), gi = cimag(g);
    const v4 re = {gr, gr, gr, gr}, im = {-gi, gi, -gi, gi};
    v4 t, u;
    long i = 0;
    for (; i + 4 <= 2 * n; i += 4) {
        memcpy(&t, x + i, sizeof t), memcpy(&u, w + i, sizeof u);
        t *= c;
        u += t * re + SWAP(t) * im;
        memcpy(w + i, &u, sizeof u);
    }
    for (; i < 2 * n; i += 2) {
        const double xr = c * x[i], xi = c * x[i + 1];
        w[i] += xr * gr - xi * gi;
        w[i + 1] += xr * gi + xi * gr;
    }
}

/* apa.limited_output: x_b less alpha * min(|x_r|, |x_b|) along x_r. */
static double complex limited(double complex xb, double complex xr, double alpha)
{
    const double mag_r = cabs(xr);
    return mag_r == 0.0 ? xb : xb - alpha * fmin(mag_r, cabs(xb)) * (xr / mag_r);
}

/* head 1, the full filter: apa.apa_update with its PSD estimate, floor and outputs (x_hat, x_b,
   x_r); head 0, the canceller: sdmvdr.rc_speech_psd and sdmvdr.rc_update, with the output x_hat. */
CLONES long run(long bins, long k0, long k1, long nf, long m, long d, long ws, long hs,
                long prior, long head, double phi_b, double phi_r, double phi_a, double eta,
                double alpha_r, const long *orders, const double *g, double complex *w,
                double complex *hist, const double complex *data, const double complex *a,
                double complex *out)
{
    double complex y[m];
    w += k0 * ws, hist += k0 * hs;
    for (long k = k0; k < k1; k++, w += ws, hist += hs) {
        const long l = orders[k], tail = l ? (l - d + 1) * m : 0;
        const double complex *ak = a + k * m, *t = hist + (tail ? (d - 1) * m : 0);
        const double s11 = phi_b * norm2(ak, m) + phi_a;
        for (long pass = !prior; pass < 2; pass++) { /* pass 0: the prior pass */
            if (pass && prior) /* it has run: zero the history, not the filter */
                memset(hist, 0, hs * sizeof *hist);
            for (long n = 0; n < nf; n++) {
                for (long c = 0; c < m; c++)
                    y[c] = data[(c * bins + k) * nf + n];
                const double gn = g ? g[k * nf + n] : 1.0, ny = norm2(y, m), floor = eta * (ny / m);
                if (head) {
                    const double complex wy = dotc(dotc(0.0, w, y, m), w + m, t, tail);
                    const double phi_x = gn * gn * norm2(&wy, 1);
                    const double s00 = phi_b * ny + phi_r * norm2(t, tail)
                                       + (phi_x > floor ? phi_x : floor);
                    const double complex s01 = phi_b * dotc(0.0, y, ak, m);
                    /* e0 = -ytilde^H w = -conj(w^H ytilde), e1 = 1 - a^H w_head */
                    const double complex e0 = -conj(wy), e1 = CMPLX(1.0, 0.0) - dotc(0.0, ak, w, m);
                    const double det = s00 * s11 - norm2(&s01, 1);
                    double complex g0 = 0.0, g1;
                    if (det > 0.0) {
                        g0 = (s11 * e0 - s01 * e1) / det;
                        g1 = (s00 * e1 - conj(s01) * e0) / det;
                    } else if (s00 == 0.0 && s11 > 0.0) { /* the constraint row alone */
                        g1 = e1 / s11;
                    } else {
                        return 1 + k * nf + n;
                    }
                    axpy(w, y, phi_b, g0, m);
                    axpy(w, ak, 1.0, phi_b * g1, m);
                    axpy(w + m, t, phi_r, g0, tail);
                    if (pass) { /* x_b = w_head^H y, x_r = x_b - w^H ytilde */
                        const double complex xb = dotc(0.0, w, y, m);
                        const double complex xr = xb - dotc(xb, w + m, t, tail);
                        out[k * nf + n] = limited(xb, xr, alpha_r);
                        out[(bins + k) * nf + n] = xb;
                        out[(2 * bins + k) * nf + n] = xr;
                    }
                } else {
                    const double complex x_d = dotc(0.0, ak, y, m), e = x_d - dotc(0.0, w, t, tail);
                    const double phi_x = gn * gn * norm2(&e, 1);
                    /* a zero denominator (zero regressor, zero floor) means no update */
                    const double denom = phi_r * norm2(t, tail) + (phi_x > floor ? phi_x : floor);
                    if (denom > 0.0)
                        axpy(w, t, 1.0, phi_r / denom * conj(e), tail);
                    if (pass)
                        out[k * nf + n] = limited(x_d, dotc(0.0, w, t, tail), alpha_r);
                }
                if (l) { /* apa.ApaState.push, sdmvdr.RcState.push */
                    memmove(hist + m, hist, (l - 1) * m * sizeof *hist);
                    memcpy(hist, y, m * sizeof *y);
                }
            }
        }
    }
    return 0;
}
