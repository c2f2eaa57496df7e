/* Native element loops of the fused kernel, and the contiguous plane
   transfers.

   Every entry point is bound as a [@@noalloc] external with untagged
   integer arguments (see native.ml): it neither allocates nor raises, and
   it checks no bounds.  The callers guarantee every range lies inside its
   buffer: Kernel.compile_body checks each operand window once per
   compile, Memory and Cache check each transfer before it starts.

   Build with -O3 -ffp-contract=off and without -ffast-math or restrict.
   A self-feedback unit reads its own output a few elements back, so the
   destination and an operand may overlap; GCC's runtime alias check (and
   its scalar fallback) keeps those loops correct, and only -O3's cost
   model emits it.  -ffp-contract=off keeps a*b+c from fusing into an FMA,
   so each operation rounds exactly as OCaml's float operators do. */

#include <math.h>
#include <stdint.h>
#include <string.h>
#include <caml/mlvalues.h>
#include <caml/bigarray.h>

/* Step codes: Native.op_code in native.ml lists the same numbers. */
enum {
  OP_PASS, OP_FADD, OP_FSUB, OP_FMUL, OP_FDIV, OP_FNEG, OP_FABS,
  OP_LT, OP_LE, OP_EQ, OP_NE, OP_GE, OP_GT,
  OP_IADD, OP_ISUB, OP_IMUL, OP_IAND, OP_IOR, OP_IXOR, OP_ISHL, OP_ISHR,
  OP_MAX, OP_MIN, OP_SCAN
};

#define DATA(v) ((double *) Caml_ba_data_val(v))

static inline int64_t bits_of(double v)
{
  int64_t b;
  memcpy(&b, &v, sizeof b);
  return b;
}

/* v - v is +0.0 (all bits clear) for a finite v and NaN otherwise.  OR-ing
   the bit patterns keeps the scan branch-free, which is what lets GCC
   vectorize it; a compare-and-flag form does not vectorize. */
#define FLOAT_STEP(name, expr)                                              \
  static int name(double *d, const double *a, const double *b, intnat n)   \
  {                                                                         \
    int64_t bad = 0;                                                        \
    (void) b;                                                               \
    for (intnat i = 0; i < n; i++) {                                        \
      double x = a[i];                                                      \
      double v = (expr);                                                    \
      d[i] = v;                                                             \
      bad |= bits_of(v - v);                                                \
    }                                                                       \
    return bad != 0;                                                        \
  }

/* Float.max and Float.min of OCaml's Stdlib, case for case: a NaN operand
   wins (the first one tested), and -0.0 orders below +0.0. */
static inline int sign_of(double x) { return bits_of(x) < 0; }

static inline double ocaml_max(double x, double y)
{
  if (y > x || (!sign_of(y) && sign_of(x))) return x != x ? x : y;
  return y != y ? y : x;
}

static inline double ocaml_min(double x, double y)
{
  if (y > x || (!sign_of(y) && sign_of(x))) return y != y ? y : x;
  return x != x ? x : y;
}

FLOAT_STEP(step_pass, x)
FLOAT_STEP(step_fadd, x + b[i])
FLOAT_STEP(step_fsub, x - b[i])
FLOAT_STEP(step_fmul, x * b[i])
FLOAT_STEP(step_fdiv, x / b[i])
FLOAT_STEP(step_fneg, -x)
FLOAT_STEP(step_fabs, fabs(x))
FLOAT_STEP(step_max, ocaml_max(x, b[i]))
FLOAT_STEP(step_min, ocaml_min(x, b[i]))

/* Compares produce 1.0 or 0.0: finite by construction, no scan. */
#define CMP_STEP(name, rel)                                                 \
  static int name(double *d, const double *a, const double *b, intnat n)   \
  {                                                                         \
    for (intnat i = 0; i < n; i++) d[i] = (a[i] rel b[i]) ? 1.0 : 0.0;      \
    return 0;                                                               \
  }

CMP_STEP(step_lt, <)
CMP_STEP(step_le, <=)
CMP_STEP(step_eq, ==)
CMP_STEP(step_ne, !=)
CMP_STEP(step_ge, >=)
CMP_STEP(step_gt, >)

/* Int64.of_float as OCaml's native code computes it (cvttsd2si): NaN and
   values outside [-2^63, 2^63) give INT64_MIN.  The plain C cast is
   undefined there. */
static inline int64_t to_i64(double x)
{
  return (x >= -0x1p63 && x < 0x1p63) ? (int64_t) x : INT64_MIN;
}

/* Integer results come back through Int64.to_float: always finite.
   Arithmetic wraps, so it runs on unsigned words. */
#define INT_STEP(name, expr)                                                \
  static int name(double *d, const double *a, const double *b, intnat n)   \
  {                                                                         \
    for (intnat i = 0; i < n; i++) {                                        \
      int64_t x = to_i64(a[i]), y = to_i64(b[i]);                           \
      d[i] = (double) (int64_t) (expr);                                     \
    }                                                                       \
    return 0;                                                               \
  }

INT_STEP(step_iadd, (uint64_t) x + (uint64_t) y)
INT_STEP(step_isub, (uint64_t) x - (uint64_t) y)
INT_STEP(step_imul, (uint64_t) x * (uint64_t) y)
INT_STEP(step_iand, x & y)
INT_STEP(step_ior, x | y)
INT_STEP(step_ixor, x ^ y)
INT_STEP(step_ishl, (uint64_t) x << (y & 63))
INT_STEP(step_ishr, x >> (y & 63))

/* The store-free scan of an elided pass-through unit's source. */
static int step_scan(const double *a, intnat n)
{
  int64_t bad = 0;
  for (intnat i = 0; i < n; i++) bad |= bits_of(a[i] - a[i]);
  return bad != 0;
}

/* Apply step [op] over [n] elements: dst[di + i] = op(a[ai + i], b[bi + i]).
   Returns true when a produced value was not finite. */
value nsc_native_step(intnat op, value dst, intnat di, value a, intnat ai,
                      value b, intnat bi, intnat n)
{
  double *d = DATA(dst) + di;
  const double *x = DATA(a) + ai, *y = DATA(b) + bi;
  int bad;
  switch (op) {
  case OP_PASS: bad = step_pass(d, x, y, n); break;
  case OP_FADD: bad = step_fadd(d, x, y, n); break;
  case OP_FSUB: bad = step_fsub(d, x, y, n); break;
  case OP_FMUL: bad = step_fmul(d, x, y, n); break;
  case OP_FDIV: bad = step_fdiv(d, x, y, n); break;
  case OP_FNEG: bad = step_fneg(d, x, y, n); break;
  case OP_FABS: bad = step_fabs(d, x, y, n); break;
  case OP_LT: bad = step_lt(d, x, y, n); break;
  case OP_LE: bad = step_le(d, x, y, n); break;
  case OP_EQ: bad = step_eq(d, x, y, n); break;
  case OP_NE: bad = step_ne(d, x, y, n); break;
  case OP_GE: bad = step_ge(d, x, y, n); break;
  case OP_GT: bad = step_gt(d, x, y, n); break;
  case OP_IADD: bad = step_iadd(d, x, y, n); break;
  case OP_ISUB: bad = step_isub(d, x, y, n); break;
  case OP_IMUL: bad = step_imul(d, x, y, n); break;
  case OP_IAND: bad = step_iand(d, x, y, n); break;
  case OP_IOR: bad = step_ior(d, x, y, n); break;
  case OP_IXOR: bad = step_ixor(d, x, y, n); break;
  case OP_ISHL: bad = step_ishl(d, x, y, n); break;
  case OP_ISHR: bad = step_ishr(d, x, y, n); break;
  case OP_MAX: bad = step_max(d, x, y, n); break;
  case OP_MIN: bad = step_min(d, x, y, n); break;
  default: bad = step_scan(x, n); break;
  }
  return Val_bool(bad);
}

value nsc_native_step_byte(value *argv, int argn)
{
  (void) argn;
  return nsc_native_step(Long_val(argv[0]), argv[1], Long_val(argv[2]),
                         argv[3], Long_val(argv[4]), argv[5],
                         Long_val(argv[6]), Long_val(argv[7]));
}

/* dst[dpos .. dpos + n) <- src[spos .. spos + n); the ranges may overlap. */
value nsc_native_blit(value src, intnat spos, value dst, intnat dpos, intnat n)
{
  if (n > 0) memmove(DATA(dst) + dpos, DATA(src) + spos, (size_t) n * sizeof(double));
  return Val_unit;
}

value nsc_native_blit_byte(value src, value spos, value dst, value dpos, value n)
{
  return nsc_native_blit(src, Long_val(spos), dst, Long_val(dpos), Long_val(n));
}

/* dst[pos .. pos + n) <- +0.0 (all bits clear). */
value nsc_native_zero(value dst, intnat pos, intnat n)
{
  if (n > 0) memset(DATA(dst) + pos, 0, (size_t) n * sizeof(double));
  return Val_unit;
}

value nsc_native_zero_byte(value dst, value pos, value n)
{
  return nsc_native_zero(dst, Long_val(pos), Long_val(n));
}
