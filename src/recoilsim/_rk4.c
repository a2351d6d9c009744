/* The RK4 step loop of recoilsim.propagate._rk4 for one chunk of steps,
   and the fringe field of recoilsim.fringes.synthesize for one block of
   grid rows (rk4_fringes, below): a sum of plane waves, each the product
   of a row wave and a column wave, so one sincos per arm and grid line
   and one complex multiply-add per arm and sample.

   Every element is computed with the operations, operand order and
   rounding of the numpy loop it replaces, so the two agree bit for bit:
   numpy multiplies complex numbers as (a.re b.re - a.im b.im) +
   (a.re b.im + a.im b.re) i, with both terms rounded, on its baseline SIMD
   kernels, and with each real part fused into one multiply-add on its FMA
   kernels; build with -ffp-contract=off, and with -mfma -DUSE_FMA to match
   the latter.  The loader's step probes tell which one a build matches.

   The states come in and go out as complex128, in runs that each family
   couples to a whole partner run of the same length.  In between, they,
   ``diag`` and the pattern rows (F, size) are split (real parts, then
   imaginary parts).  Each RK4 substage is one pass per run: an element
   gets its term diag * y, then each family's partner * pattern [* phase]
   * envelope in family order, and then its RK4 update, while it is still
   in registers: four passes per run and step.  The four scratch rows
   hold k1, k2 (to which k3 is added) and y twice over: each substage
   reads y from one row and writes the next y into the other, as its later
   runs still read partner runs of its input, and the last substage adds
   ((k2 * 2 + k1) + k4) * -i dt/6 straight into the states, so no k4 is
   kept.  Every operand of a pass, partner runs included, is a straight
   run of contiguous doubles, so the compiler vectorizes it.
   Each lane computes its element with the scalar formula (cmul, cadd),
   the products with a real envelope {e, 0} and with the RK4 factors kept
   whole, x * 0.0 terms included, so the layout is not in the bits, nor
   in the sign of a zero or an infinity, and a NaN stays a NaN.  The
   envelope table (F, 3, m) holds real values at each step's start, middle
   and end, which rk4_envelopes fills.

   The phase ramps e^{i rate t} are made here, before the first, second
   (which the third shares) and last substage of each step, at the times
   of the step's start, middle and end, into a split (F, size) row (a
   step that starts at its predecessor's end time, bit for bit, keeps the
   ramps of that end): each
   is numpy's exp(1j * t * rate), the two products by cmul and then
   sincos of the imaginary part, as glibc's cexp takes it (the real
   part is a zero, whose exp is 1).  The rates are antisymmetric over
   every family's runs, which pair up, and glibc's sin is odd and its cos
   even bit for bit, so a run whose partner run comes later writes the
   conjugates of its own ramps into the partner run: one sincos per
   coupled pair.  An element whose phase is an exact zero leaves its
   partner its own sincos, as the conjugate would flip the sign of that
   zero, and a run coupled to itself makes its own ramps. */

#define _GNU_SOURCE     /* sincos */
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

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

/* Inlined wherever it is called, so that each call with constant
   arguments is a loop of its own. */
#define INLINE static inline __attribute__((always_inline))

typedef struct {
    int64_t size, table, runs, m;       /* table: F size, the pattern's */
    const double *diag, *pattern;       /* split */
    const int64_t *starts, *partner;
    cplx half, full, sixth, two;        /* -i dt/2, -i dt, -i dt/6, 2 */
} op_t;

/* The imaginary part of it * (rate + 0i), it = 1j * t: the angle of the
   ramp e^{i rate t}, in the operand order of numpy's 1j * t * rate (the
   other order fuses the other product, which shows in the sign of an
   angle that underflows to zero). */
static inline double angle(double rate, cplx it)
{
    const cplx x = {rate, 0.0};
    return cmul(it, x).im;
}

/* The ramps of every family at time t into the split rows ``phase``
   (F, size), from the ``rate`` rows laid out as the pattern: cos and sin
   of each angle, a run coupled to a later run writing the conjugates of
   its own into that run, unless an angle is an exact zero. */
static void ramps(const op_t *op, int64_t families, const double *rate,
                  double t, double *phase)
{
    const int64_t size = op->size, table = op->table, runs = op->runs;
    const cplx i = {0.0, 1.0}, time = {t, 0.0}, it = cmul(i, time);
    double s, c;
    for (int64_t f = 0; f < families; f++) {
        for (int64_t r = 0; r < runs; r++) {
            const int64_t p = op->partner[f * runs + r];
            if (p < r)
                continue;       /* run p has written these */
            const int64_t at = f * size + op->starts[r],
                          end = f * size + op->starts[r + 1],
                          shift = op->starts[p] - op->starts[r];
            for (int64_t q = at; q < end; q++) {
                const double x = angle(rate[q], it);
                sincos(x, &s, &c);
                phase[q] = c;
                phase[table + q] = s;
                if (p == r)
                    continue;
                const int64_t k = q + shift;
                if (x == 0.0)
                    sincos(angle(rate[k], it), &s, &c);
                else
                    s = -s;
                phase[k] = c;
                phase[table + k] = s;
            }
        }
    }
}

/* What a substage does with each element h of H y, once it has it. */
enum { K1, K2, K3, K4 };

/* One RK4 substage, one pass per run: h = H in (split), diag * in and
   then each family's partner * pattern [* phase] * envelope added in
   family order, and then, by ``mode``,
       K1: k1 = h, out = h * half + w
       K2: k2 = h, out = h * half + w
       K3: out = h * full + w, k2 += h
       K4: w += ((k2 * two + k1) + h) * sixth.
   ``env`` is the family-0 value of a substage column; families lie 3 m
   apart.  K1's ``in`` is w, and its ``w`` is NULL.  ``out`` is never
   ``in``, as later runs still read partner runs of ``in``, and an
   element's real and imaginary parts lie ``size`` apart, so no iteration
   reads what another writes (ivdep).  With ``families``, ``rated`` and
   ``mode`` constant, the family loop unrolls and the element loop
   vectorizes. */
INLINE void sweep(const op_t *op, int64_t families, int rated, int mode,
                  const double *restrict in, const double *restrict phase,
                  const double *restrict env, double *restrict k1,
                  double *restrict k2, double *restrict out,
                  double *restrict w)
{
    const int64_t size = op->size, table = op->table, runs = op->runs;
    const double *restrict diag = op->diag, *restrict pattern = op->pattern;
    const double *restrict y0 = mode == K1 ? in : w;
    for (int64_t r = 0; r < runs; r++) {
        const int64_t at = op->starts[r], end = op->starts[r + 1];
#pragma GCC ivdep
        for (int64_t i = at; i < end; i++) {
            const cplx d = {diag[i], diag[size + i]},
                       p = {in[i], in[size + i]};
            cplx h = cmul(d, p);
#pragma GCC unroll 3
            for (int64_t f = 0; f < families; f++) {
                const int64_t s = op->starts[op->partner[f * runs + r]] +
                                  (i - at), q = f * size + i;
                const cplx a = {in[s], in[size + s]},
                           t = {pattern[q], pattern[table + q]},
                           e = {env[f * 3 * op->m], 0.0};
                if (rated) {
                    const cplx ph = {phase[q], phase[table + q]};
                    h = cadd(h, cmul(cmul(cmul(a, t), ph), e));
                } else {
                    h = cadd(h, cmul(cmul(a, t), e));
                }
            }
            const cplx o = {y0[i], y0[size + i]};
            cplx y;
            switch (mode) {
            case K1:
                k1[i] = h.re;
                k1[size + i] = h.im;
                y = cadd(cmul(h, op->half), o);
                break;
            case K2:
                k2[i] = h.re;
                k2[size + i] = h.im;
                y = cadd(cmul(h, op->half), o);
                break;
            case K3: {
                const cplx b = {k2[i], k2[size + i]}, c = cadd(b, h);
                k2[i] = c.re;
                k2[size + i] = c.im;
                y = cadd(cmul(h, op->full), o);
                break;
            }
            default: {
                const cplx a = {k1[i], k1[size + i]},
                           b = {k2[i], k2[size + i]};
                const cplx r = cadd(o, cmul(cadd(cadd(cmul(b, op->two), a),
                                                 h), op->sixth));
                w[i] = r.re;
                w[size + i] = r.im;
                continue;
            }
            }
            out[i] = y.re;
            out[size + i] = y.im;
        }
    }
}

/* Whether two times are one double, bit for bit (+0.0 and -0.0 are not:
   the sign of a zero angle is in the ramps). */
static inline int same_time(double a, double b)
{
    uint64_t x, y;
    memcpy(&x, &a, sizeof x);
    memcpy(&y, &b, sizeof y);
    return x == y;
}

/* Steps lo..hi-1 on the split states ``w``, a sweep per substage: y goes
   from w to ya, yb and ya again, each substage reading it from one buffer
   and writing the next into the other.  With a rate, the ramps are made
   at each step's start, middle and end (``times`` (3, m)) into ``phase``
   before the substages that use them; a step that starts at the very
   time the last step of this call ended keeps the ramps made for that
   end, as a ramp is a function of the rate and the time alone. */
INLINE void steps(const op_t *op, int64_t families, const double *rate,
                  const double *envelopes, const double *times,
                  double *stages, double *phase, double *w, int64_t lo,
                  int64_t hi)
{
    const int64_t m = op->m, size = op->size;
    const int rated = rate != NULL;
    double *k1 = stages, *k2 = k1 + 2 * size, *ya = k2 + 2 * size,
           *yb = ya + 2 * size;
    int kept = 0;       /* whether ``phase`` holds this step's start ramps */
    for (int64_t j = lo; j < hi; j++) {
        const double *env = envelopes + j;
        if (rated && !kept)
            ramps(op, families, rate, times[j], phase);
        sweep(op, families, rated, K1, w, phase, env, k1, k2, ya, NULL);
        if (rated)
            ramps(op, families, rate, times[m + j], phase);
        sweep(op, families, rated, K2, ya, phase, env + m, k1, k2, yb, w);
        sweep(op, families, rated, K3, yb, phase, env + m, k1, k2, ya, w);
        if (rated)
            ramps(op, families, rate, times[2 * m + j], phase);
        sweep(op, families, rated, K4, ya, phase, env + 2 * m, k1, k2,
              NULL, w);
        /* set here, not tested against j > lo at the top, which has the
           compiler peel a first step and so grow the loop by half */
        kept = j + 1 < hi && same_time(times[2 * m + j], times[j + 1]);
    }
}

/* Steps lo..hi-1 of a chunk of m tabulated steps, in place on the
   ``size`` complex ``states``: run r, from starts[r] up to starts[r + 1],
   is coupled by family f to run partner[f runs + r].  ``rate`` holds the
   (F, size) rate rows, laid out as the pattern, or is NULL when no family
   has a rate; then every partner run's partner must be the run itself.
   ``block`` holds, one after the other, the complex factors -i dt/2,
   -i dt, -i dt/6 and 2 (8 doubles), and split: the diagonal (2 size),
   the pattern (2 F size), room for the states (2 size), for k1, k2 (to
   which k3 is added) and two y buffers (8 size) and, with a rate, for the
   ramps (2 F size).  ``envelopes`` (F, 3 m) and ``times`` (3, m) hold
   each step's start, middle and end.  1 and 2 families, the counts the
   plans bind, get a loop of their own, with and without a rate; every
   other count shares one with a family count. */
void rk4_steps(int64_t size, int64_t families, int64_t runs, cplx *states,
               const int64_t *starts, const int64_t *partner,
               const double *rate, double *block, const double *envelopes,
               const double *times, int64_t m, int64_t lo, int64_t hi)
{
    double *diag = block + 8, *pattern = diag + 2 * size,
           *w = pattern + 2 * families * size, *stages = w + 2 * size,
           *phase = rate != NULL ? stages + 8 * size : NULL;
    const op_t op = {size, families * size, runs, m, diag, pattern, starts,
                     partner, {block[0], block[1]}, {block[2], block[3]},
                     {block[4], block[5]}, {block[6], block[7]}};
    for (int64_t i = 0; i < size; i++) {
        w[i] = states[i].re;
        w[size + i] = states[i].im;
    }
#define STEPS(F, RATE) steps(&op, F, RATE, envelopes, times, stages, phase, \
                             w, lo, hi)
    switch (families) {
    case 1:
        if (rate) STEPS(1, rate); else STEPS(1, NULL);
        break;
    case 2:
        if (rate) STEPS(2, rate); else STEPS(2, NULL);
        break;
    default:
        if (rate) STEPS(families, rate); else STEPS(families, NULL);
    }
#undef STEPS
    for (int64_t i = 0; i < size; i++) {
        states[i].re = w[i];
        states[i].im = w[size + i];
    }
}

/* The wave e^{ip} at phase p, as glibc's cexp makes numpy's exp(1j * p):
   sincos of p.  numpy's angle, the imaginary part of 1j * (p + 0i), is p
   itself but for p = -0.0, which it makes +0.0; rk4_fringes states why no
   field sum sees that zero's sign. */
static inline cplx wave(double p)
{
    cplx w;
    sincos(p, &w.im, &w.re);
    return w;
}

/* The field of ``arms`` plane waves amp e^{i (kz z + kx x)} on ``rows``
   grid rows at z (rows) into ``field`` (rows, n_x), in the separable form
   of recoilsim.fringes._numpy_fields: each sample is the sum, in arm
   order from +0.0, of the terms u w, u = amp e^{i kz z} the arm's row
   wave, made once per row and arm, and w = e^{i kx x} its column wave,
   made once per column and arm into ``columns`` (split: the arm's real
   parts, then its imaginary parts, (arms, 2, n_x)) when ``x`` (n_x) is
   given, and taken from an earlier call when it is NULL.  Each phase is
   numpy's kz z or kx x, each u cmul(amp, wave) as numpy's amp * e^{ip},
   and each term cmul(u, w) as numpy's u * w.  Where p is a zero, the
   wave, and so a u or a term, may differ from numpy's, but only in the
   sign of a zero part: a product or a sum takes its value, but for the
   sign of a zero, from its operands' values alone, and the sums cannot
   differ even there: each starts at +0.0, a round-to-nearest sum that
   starts at +0.0 never becomes -0.0 (x + y is -0.0 only when both are),
   and adding +0.0 or -0.0 to it gives the same value. */
void rk4_fringes(int64_t arms, const cplx *amp, const double *kz,
                 const double *kx, const double *z, int64_t rows,
                 const double *x, int64_t n_x, double *columns, cplx *field)
{
    const cplx zero = {0.0, 0.0};
    for (int64_t a = 0; x != NULL && a < arms; a++) {
        double *re = columns + 2 * a * n_x, *im = re + n_x;
        for (int64_t c = 0; c < n_x; c++) {
            const cplx w = wave(kx[a] * x[c]);
            re[c] = w.re;
            im[c] = w.im;
        }
    }
    for (int64_t i = 0; i < rows; i++) {
        cplx *f = field + i * n_x;
        for (int64_t c = 0; c < n_x; c++)
            f[c] = zero;
        for (int64_t a = 0; a < arms; a++) {
            const cplx u = cmul(amp[a], wave(kz[a] * z[i]));
            const double *restrict re = columns + 2 * a * n_x,
                         *restrict im = re + n_x;
            for (int64_t c = 0; c < n_x; c++) {
                const cplx w = {re[c], im[c]};
                f[c] = cadd(f[c], cmul(u, w));
            }
        }
    }
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
