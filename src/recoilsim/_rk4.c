/* The RK4 step loop of recoilsim.propagate._rk4 for one chunk of steps.

   Every element is computed with the operations, operand order and
   rounding of the numpy loop it replaces, so the two agree bit for bit:
   numpy multiplies complex numbers as (a.re b.re - a.im b.im) +
   (a.re b.im + a.im b.re) i, with both terms rounded, on its baseline SIMD
   kernels, and with each real part fused into one multiply-add on its FMA
   kernels; build with -ffp-contract=off, and with -mfma -DUSE_FMA to match
   the latter.  rk4_probe lets the loader check which one a build matches.

   Arrays are complex128 (pairs of doubles): states (B, n) and partner
   indices perm (F, n), C-contiguous; pattern rows (F, B, n) with the
   given family and member strides, a member stride of 0 for rows shared
   by the members; the three phase tables, one (F, B, n) row per step laid
   out as the pattern, or NULL when no family has a rate; the envelope
   table (F, 3, m) of real values at each step's start, middle and end. */

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
    int64_t members, n, families, family_stride, member_stride, m;
    const cplx *diag, *pattern;
    const int64_t *perm;
    const double *envelopes;
} op_t;

/* out = H psi: the diagonal term, then each family's partner * pattern *
   phase * envelope added in family order.  ``env`` points at the family-0
   value of one substage column; families lie 3 m apart. */
static void apply(const op_t *op, const cplx *psi, cplx *out,
                  const double *env, const cplx *phase)
{
    const int64_t n = op->n, rows = op->members * n;
    for (int64_t i = 0; i < rows; i++)
        out[i] = cmul(op->diag[i], psi[i]);
    for (int64_t f = 0; f < op->families; f++) {
        const cplx e = {env[f * 3 * op->m], 0.0};
        const int64_t *perm = op->perm + f * n;
        for (int64_t b = 0; b < op->members; b++) {
            const int64_t at = f * op->family_stride + b * op->member_stride;
            const cplx *pattern = op->pattern + at;
            const cplx *src = psi + b * n;
            cplx *dst = out + b * n;
            for (int64_t i = 0; i < n; i++) {
                cplx g = cmul(src[perm[i]], pattern[i]);
                if (phase)
                    g = cmul(g, phase[at + i]);
                dst[i] = cadd(dst[i], cmul(g, e));
            }
        }
    }
}

/* Steps lo..hi-1 of a chunk of m tabulated steps, in place on ``work``.
   ``coef`` holds the complex factors -i dt/2, -i dt, -i dt/6 and 2;
   ``scratch`` room for 4 B n states. */
void rk4_steps(int64_t members, int64_t n, int64_t families,
               cplx *work, const cplx *diag, const int64_t *perm,
               const cplx *pattern, int64_t family_stride,
               int64_t member_stride,
               const cplx *phase_start, const cplx *phase_mid,
               const cplx *phase_end, const cplx *coef, cplx *scratch,
               const double *envelopes, int64_t m, int64_t lo, int64_t hi)
{
    const op_t op = {members, n, families, family_stride, member_stride, m,
                     diag, pattern, perm, envelopes};
    const int64_t size = members * n, table = families * family_stride;
    const cplx half = coef[0], full = coef[1], sixth = coef[2], two = coef[3];
    cplx *k1 = scratch, *k2 = k1 + size, *k3 = k2 + size, *y = k3 + size;
    for (int64_t j = lo; j < hi; j++) {
        const double *env = envelopes + j;
        const cplx *ps = NULL, *pm = NULL, *pe = NULL;
        if (phase_start) {
            ps = phase_start + j * table;
            pm = phase_mid + j * table;
            pe = phase_end + j * table;
        }
        apply(&op, work, k1, env, ps);
        for (int64_t i = 0; i < size; i++)
            y[i] = cadd(cmul(k1[i], half), work[i]);
        apply(&op, y, k2, env + m, pm);
        for (int64_t i = 0; i < size; i++)
            y[i] = cadd(cmul(k2[i], half), work[i]);
        apply(&op, y, k3, env + m, pm);
        for (int64_t i = 0; i < size; i++) {
            y[i] = cadd(cmul(k3[i], full), work[i]);
            k2[i] = cadd(k2[i], k3[i]);
        }
        apply(&op, y, k3, env + 2 * m, pe);         /* k4 */
        for (int64_t i = 0; i < size; i++) {
            cplx s = cadd(cadd(cmul(k2[i], two), k1[i]), k3[i]);
            work[i] = cadd(work[i], cmul(s, sixth));
        }
    }
}

/* out = a * b elementwise, for the loader's check against numpy. */
void rk4_probe(const cplx *a, const cplx *b, cplx *out, int64_t count)
{
    for (int64_t i = 0; i < count; i++)
        out[i] = cmul(a[i], b[i]);
}
