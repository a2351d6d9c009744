/* The RK4 step loop of recoilsim.propagate._rk4 for one chunk of steps.

   Every element is computed with the operations, operand order and
   rounding of the numpy loop it replaces, so the two agree bit for bit:
   numpy multiplies complex numbers as (a.re b.re - a.im b.im) +
   (a.re b.im + a.im b.re) i, with both terms rounded, on its baseline SIMD
   kernels, and with each real part fused into one multiply-add on its FMA
   kernels; build with -ffp-contract=off, and with -mfma -DUSE_FMA to match
   the latter.  rk4_probe lets the loader check which one a build matches.

   The states come in and go out as complex128, in runs that each family
   couples to a whole partner run of the same length.  In between, they,
   the diagonal and the pattern rows (F, size) are split (real parts, then
   imaginary parts), so every loop, partner runs included, is a straight
   run over contiguous doubles that the compiler vectorizes.
   Each lane computes its element with the scalar formula (cmul, cadd),
   the products with a real envelope {e, 0} and with the RK4 factors kept
   whole, x * 0.0 terms included, so the layout is not in the bits, nor
   in the sign of a zero or an infinity, and a NaN stays a NaN.  The three
   phase tables, one (F, size) row per step laid out as the pattern, stay
   complex128, or are NULL when no family has a rate; the envelope table
   (F, 3, m) holds real values at each step's start, middle and end, which
   rk4_envelopes fills. */

#include <math.h>
#include <stddef.h>
#include <stdint.h>

typedef struct { double re, im; } cplx;

static inline cplx cmul(cplx a, cplx b)
{
#ifdef USE_FMA
    cplx r = {fma(a.re, b.re, -(a.im * b.im)), fma(a.re, b.im, a.im * b.re)};
#else
    cplx r = {a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re};
#endif
    return r;
}

static inline cplx cadd(cplx a, cplx b)
{
    cplx r = {a.re + b.re, a.im + b.im};
    return r;
}

typedef struct {
    int64_t size, families, runs, m;
    const double *diag, *pattern;       /* split */
    const int64_t *starts, *partner;
} op_t;

/* out = diag * psi over ``count`` elements of split arrays whose
   imaginary parts lie ``count`` further on. */
static void diagonal(int64_t count, const double *restrict diag,
                     const double *restrict psi, double *restrict out)
{
    for (int64_t i = 0; i < count; i++) {
        const cplx d = {diag[i], diag[count + i]},
                   p = {psi[i], psi[count + i]};
        const cplx r = cmul(d, p);
        out[i] = r.re;
        out[count + i] = r.im;
    }
}

/* out += psi * pattern [* phase] * e over a run of ``count`` elements;
   imaginary parts lie ``size`` further on, of the pattern ``table``. */
static void couple(int64_t count, int64_t size, int64_t table,
                   const double *restrict psi,
                   const double *restrict pattern,
                   const cplx *restrict phase, cplx e, double *restrict out)
{
    if (phase) {
        for (int64_t i = 0; i < count; i++) {
            const cplx a = {psi[i], psi[size + i]},
                       p = {pattern[i], pattern[table + i]},
                       o = {out[i], out[size + i]};
            const cplx r = cadd(o, cmul(cmul(cmul(a, p), phase[i]), e));
            out[i] = r.re;
            out[size + i] = r.im;
        }
    } else {
        for (int64_t i = 0; i < count; i++) {
            const cplx a = {psi[i], psi[size + i]},
                       p = {pattern[i], pattern[table + i]},
                       o = {out[i], out[size + i]};
            const cplx r = cadd(o, cmul(cmul(a, p), e));
            out[i] = r.re;
            out[size + i] = r.im;
        }
    }
}

/* out = H psi (split): the diagonal term, then each family's partner *
   pattern * phase * envelope added in family order, run by run.  ``env``
   is the family-0 value of a substage column; families lie 3 m apart. */
static void apply(const op_t *op, const double *psi, double *out,
                  const double *env, const cplx *phase)
{
    const int64_t size = op->size, table = op->families * size;
    diagonal(size, op->diag, psi, out);
    for (int64_t f = 0; f < op->families; f++) {
        const cplx e = {env[f * 3 * op->m], 0.0};
        const int64_t *partner = op->partner + f * op->runs;
        for (int64_t r = 0; r < op->runs; r++) {
            const int64_t at = op->starts[r], row = f * size + at;
            couple(op->starts[r + 1] - at, size, table,
                   psi + op->starts[partner[r]], op->pattern + row,
                   phase ? phase + row : NULL, e, out + at);
        }
    }
}

/* y = k * c + w over split arrays of ``count``; with ``acc``, also
   acc += k. */
static void stage(int64_t count, const double *restrict k, cplx c,
                  const double *restrict w, double *restrict y,
                  double *restrict acc)
{
    for (int64_t i = 0; i < count; i++) {
        const cplx a = {k[i], k[count + i]}, b = {w[i], w[count + i]};
        const cplx r = cadd(cmul(a, c), b);
        y[i] = r.re;
        y[count + i] = r.im;
    }
    if (acc)
        for (int64_t i = 0; i < count; i++) {
            const cplx a = {acc[i], acc[count + i]}, b = {k[i], k[count + i]};
            const cplx r = cadd(a, b);
            acc[i] = r.re;
            acc[count + i] = r.im;
        }
}

/* w += ((k2 * two + k1) + k4) * sixth over split arrays of ``count``. */
static void finish(int64_t count, const double *restrict k1,
                   const double *restrict k2, const double *restrict k4,
                   cplx two, cplx sixth, double *restrict w)
{
    for (int64_t i = 0; i < count; i++) {
        const cplx a = {k1[i], k1[count + i]}, b = {k2[i], k2[count + i]},
                   d = {k4[i], k4[count + i]}, o = {w[i], w[count + i]};
        const cplx r = cadd(o, cmul(cadd(cadd(cmul(b, two), a), d), sixth));
        w[i] = r.re;
        w[count + i] = r.im;
    }
}

/* Steps lo..hi-1 of a chunk of m tabulated steps, in place on the
   ``size`` complex ``states``: run r, from starts[r] up to starts[r + 1],
   is coupled by family f to run partner[f runs + r].  ``coef`` holds the
   complex factors -i dt/2, -i dt, -i dt/6 and 2; ``stages`` room for k1,
   k2, k3 and y, and ``split`` for the states, 2 size doubles each. */
void rk4_steps(int64_t size, int64_t families, int64_t runs, cplx *states,
               const double *diag, const int64_t *starts,
               const int64_t *partner, const double *pattern,
               const cplx *phase_start, const cplx *phase_mid,
               const cplx *phase_end, const cplx *coef, double *stages,
               double *split, const double *envelopes, int64_t m,
               int64_t lo, int64_t hi)
{
    const int64_t table = families * size;
    double *k1 = stages, *k2 = k1 + 2 * size, *k3 = k2 + 2 * size,
           *y = k3 + 2 * size, *w = split;
    const op_t op = {size, families, runs, m, diag, pattern, starts,
                     partner};
    const cplx half = coef[0], full = coef[1], sixth = coef[2], two = coef[3];
    for (int64_t i = 0; i < size; i++) {
        w[i] = states[i].re;
        w[size + i] = states[i].im;
    }
    for (int64_t j = lo; j < hi; j++) {
        const double *env = envelopes + j;
        const cplx *ps = NULL, *pm = NULL, *pe = NULL;
        if (phase_start) {
            ps = phase_start + j * table;
            pm = phase_mid + j * table;
            pe = phase_end + j * table;
        }
        apply(&op, w, k1, env, ps);
        stage(size, k1, half, w, y, NULL);
        apply(&op, y, k2, env + m, pm);
        stage(size, k2, half, w, y, NULL);
        apply(&op, y, k3, env + m, pm);
        stage(size, k3, full, w, y, k2);
        apply(&op, y, k3, env + 2 * m, pe);         /* k4 */
        finish(size, k1, k2, k3, two, sixth, w);
    }
    for (int64_t i = 0; i < size; i++) {
        states[i].re = w[i];
        states[i].im = w[size + i];
    }
}

/* out = a * b elementwise, for the loader's check against numpy. */
void rk4_probe(const cplx *a, const cplx *b, cplx *out, int64_t count)
{
    for (int64_t i = 0; i < count; i++)
        out[i] = cmul(a[i], b[i]);
}

/* The envelope of each of F families at ``count`` times, out (F, count):
   0 outside the closed window [start, end], the peak inside a square one
   and peak sin^2(pi (t - start) / duration) inside a sine^2 one.  These
   are the operations, in the order, of recoilsim.pulses.PulseEnvelope.value,
   and libm's sin is the function math.sin calls, so the two agree bit for
   bit.  ``windows`` (F, 5): sine^2 flag (0 or 1), peak, start, end,
   duration. */
void rk4_envelopes(int64_t families, const double *windows,
                   const double *times, int64_t count, double *out)
{
    for (int64_t f = 0; f < families; f++) {
        const double *w = windows + 5 * f;
        const int sine = w[0] != 0.0;
        const double peak = w[1], start = w[2], end = w[3], duration = w[4];
        double *row = out + f * count;
        for (int64_t i = 0; i < count; i++) {
            const double t = times[i];
            if (!(t >= start && t <= end)) {
                row[i] = 0.0;
            } else if (sine) {
                const double s = sin(M_PI * ((t - start) / duration));
                row[i] = peak * s * s;
            } else {
                row[i] = peak;
            }
        }
    }
}
