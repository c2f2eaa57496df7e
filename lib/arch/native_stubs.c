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
   so each operation rounds exactly as OCaml's float operators do.  No
   -march: the step dispatcher is built once per target (WIDE_CLONES
   below) and the CPU picks one when the program loads.

   Every step stores every element of its range, but one family: the
   folded running Max and Min (FOLD_STEP), for a unit whose elements only
   its own next element reads, store just the range's last element, the
   running extreme, from one branch-free pass over order-preserving
   integer keys.  Bit for bit it is the last element the running step
   would store; the kernel runs the running step over the whole vector
   whenever something else needs the other elements. */

#include <math.h>
#include <stdint.h>
#include <string.h>
#include <caml/mlvalues.h>
#include <caml/bigarray.h>

/* Step codes: Native.op_code and Native.feedback_code in native.ml list
   the same numbers.  The _SA and _SB steps are the delay-1 feedback
   steps: operand a (SA) or b (SB) is the unit's own output one element
   back. */
enum {
  OP_PASS, OP_FADD, OP_FSUB, OP_FMUL, OP_FDIV, OP_FNEG, OP_FABS,
  OP_LT, OP_LE, OP_EQ, OP_NE, OP_GE, OP_GT,
  OP_IADD, OP_ISUB, OP_IMUL, OP_IAND, OP_IOR, OP_IXOR, OP_ISHL, OP_ISHR,
  OP_MAX, OP_MIN, OP_SCAN,
  OP_PASS_SA, OP_FADD_SA, OP_FSUB_SA, OP_FMUL_SA, OP_FDIV_SA, OP_FNEG_SA,
  OP_FABS_SA, OP_MAX_SA, OP_MIN_SA,
  OP_FADD_SB, OP_FSUB_SB, OP_FMUL_SB, OP_FDIV_SB, OP_MAX_SB, OP_MIN_SB,
  OP_MAX_SA_FOLD, OP_MIN_SA_FOLD, OP_MAX_SB_FOLD, OP_MIN_SB_FOLD
};

#define DATA(v) ((double *) Caml_ba_data_val(v))

static inline int64_t bits_of(double v)
{
  int64_t b;
  memcpy(&b, &v, sizeof b);
  return b;
}

/* Every step is inlined into run_step, and run_step into step_narrow,
   both clones of step_wide and nsc_native_step, so each of them compiles
   every loop for its own target. */
#define STEP static inline __attribute__((always_inline)) int

/* v - v is +0.0 (all bits clear) for a finite v and NaN otherwise.  OR-ing
   the bit patterns keeps the scan branch-free, which is what lets GCC
   vectorize it; a compare-and-flag form does not vectorize. */
#define FLOAT_STEP(name, expr)                                              \
  STEP name(double *d, const double *a, const double *b, intnat n)         \
  {                                                                         \
    int64_t bad = 0;                                                        \
    for (intnat i = 0; i < n; i++) {                                        \
      double x = a[i], y = b[i];                                            \
      double v = (expr);                                                    \
      (void) y;                                                             \
      d[i] = v;                                                             \
      bad |= bits_of(v - v);                                                \
    }                                                                       \
    return bad != 0;                                                        \
  }

static inline double float_of(int64_t b)
{
  double v;
  memcpy(&v, &b, sizeof v);
  return v;
}

/* Float.max and Float.min of OCaml's Stdlib, case for case: a NaN operand
   wins (the first one tested), and -0.0 orders below +0.0.  Both test
   [y > x || (y's sign bit clear && x's set)], then pick y or x by which
   one is a NaN.  There are two forms of each.  The running Max and Min
   (CARRY_BOUND_STEP below) branch: each result feeds the next element,
   and predictable branches keep that dependency chain short. */
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

/* The element-wise steps use all-ones/all-zeros masks on the bit
   patterns instead, so the baseline (SSE2) target vectorizes them too:
   it has no blend, no 64-bit integer compare and no way to turn a
   double compare into an integer mask, but it selects between two
   doubles with and/andnot/or.  MASK(c) selects -0.0 or +0.0 by the
   double compare c and spreads the sign bit (a logical shift, then a
   negation); the sign-bit test shifts the same way. */
static inline int64_t sign_mask(int64_t b) { return -(int64_t) ((uint64_t) b >> 63); }
#define MASK(c) sign_mask(bits_of((c) ? -0.0 : 0.0))

static inline int64_t ordered_after(double x, double y)
{
  return MASK(y > x) | sign_mask(bits_of(x) & ~bits_of(y));
}

static inline double masked_max(double x, double y)
{
  int64_t c = ordered_after(x, y), xn = MASK(x != x), yn = MASK(y != y);
  int64_t m = (c & ~xn) | (~c & yn); /* all ones: the result is y */
  return float_of((bits_of(y) & m) | (bits_of(x) & ~m));
}

static inline double masked_min(double x, double y)
{
  int64_t c = ordered_after(x, y), xn = MASK(x != x), yn = MASK(y != y);
  int64_t m = (c & yn) | (~c & ~xn); /* all ones: the result is y */
  return float_of((bits_of(y) & m) | (bits_of(x) & ~m));
}

#define OP_PASS_(x, y) (x)
#define OP_FADD_(x, y) ((x) + (y))
#define OP_FSUB_(x, y) ((x) - (y))
#define OP_FMUL_(x, y) ((x) * (y))
#define OP_FDIV_(x, y) ((x) / (y))
#define OP_FNEG_(x, y) (-(x))
#define OP_FABS_(x, y) fabs(x)
#define OP_MAX_(x, y) ocaml_max(x, y)
#define OP_MIN_(x, y) ocaml_min(x, y)

/* With two NaN operands x86 returns the first one, quieted, and so does
   OCaml's [a +. b]; but C lets the compiler swap the operands of a
   commutative + or *, and GCC does when it suits its registers.  Paired
   with itself, a NaN x gives x quieted in either order, so ADD_ and MUL_
   pin the NaN operand at the cost of a select per element.  The Fadd and
   Fmul steps pay it only when it can matter: they run the plain loop,
   and rerun the range with the pinned form only if the plain loop
   produced a non-finite value.  The rerun reads what the plain loop read:
   an operand overlaps the destination only a few elements back
   (self-feedback), and the rerun rewrites those elements in order before
   it reads them. */
#define ADD_(x, y) ((x) + ((x) == (x) ? (y) : (x)))
#define MUL_(x, y) ((x) * ((x) == (x) ? (y) : (x)))
#define PINNED_STEP(name, plain, pinned)                                    \
  STEP name(double *d, const double *a, const double *b, intnat n)         \
  {                                                                         \
    return plain(d, a, b, n) && pinned(d, a, b, n);                         \
  }

FLOAT_STEP(step_pass, OP_PASS_(x, y))
FLOAT_STEP(step_fadd_plain, OP_FADD_(x, y))
FLOAT_STEP(step_fadd_pinned, ADD_(x, y))
PINNED_STEP(step_fadd, step_fadd_plain, step_fadd_pinned)
FLOAT_STEP(step_fsub, OP_FSUB_(x, y))
FLOAT_STEP(step_fmul_plain, OP_FMUL_(x, y))
FLOAT_STEP(step_fmul_pinned, MUL_(x, y))
PINNED_STEP(step_fmul, step_fmul_plain, step_fmul_pinned)
FLOAT_STEP(step_fdiv, OP_FDIV_(x, y))
FLOAT_STEP(step_fneg, OP_FNEG_(x, y))
FLOAT_STEP(step_fabs, OP_FABS_(x, y))
FLOAT_STEP(step_max, masked_max(x, y))
FLOAT_STEP(step_min, masked_min(x, y))

/* Delay-1 feedback: the self operand's first element is d[-1], the value
   carried in [v]; each result is the next element's self operand.
   Keeping it in a register spares the reload of the element just stored,
   a store-to-load forward on the loop's critical path. */
#define CARRY_STEP(name, self, expr)                                        \
  STEP name(double *d, const double *a, const double *b, intnat n)         \
  {                                                                         \
    int64_t bad = 0;                                                        \
    if (n <= 0) return 0;                                                   \
    double v = self[0];                                                     \
    for (intnat i = 0; i < n; i++) {                                        \
      double x = a[i], y = b[i];                                            \
      (void) x, (void) y;                                                   \
      v = (expr);                                                           \
      d[i] = v;                                                             \
      bad |= bits_of(v - v);                                                \
    }                                                                       \
    return bad != 0;                                                        \
  }

CARRY_STEP(carry_pass_a, a, OP_PASS_(v, y))
CARRY_STEP(carry_fadd_a_plain, a, OP_FADD_(v, y))
CARRY_STEP(carry_fadd_a_pinned, a, ADD_(v, y))
PINNED_STEP(carry_fadd_a, carry_fadd_a_plain, carry_fadd_a_pinned)
CARRY_STEP(carry_fsub_a, a, OP_FSUB_(v, y))
CARRY_STEP(carry_fmul_a_plain, a, OP_FMUL_(v, y))
CARRY_STEP(carry_fmul_a_pinned, a, MUL_(v, y))
PINNED_STEP(carry_fmul_a, carry_fmul_a_plain, carry_fmul_a_pinned)
CARRY_STEP(carry_fdiv_a, a, OP_FDIV_(v, y))
CARRY_STEP(carry_fneg_a, a, OP_FNEG_(v, y))
CARRY_STEP(carry_fabs_a, a, OP_FABS_(v, y))
CARRY_STEP(carry_fadd_b_plain, b, OP_FADD_(x, v))
CARRY_STEP(carry_fadd_b_pinned, b, ADD_(x, v))
PINNED_STEP(carry_fadd_b, carry_fadd_b_plain, carry_fadd_b_pinned)
CARRY_STEP(carry_fsub_b, b, OP_FSUB_(x, v))
CARRY_STEP(carry_fmul_b_plain, b, OP_FMUL_(x, v))
CARRY_STEP(carry_fmul_b_pinned, b, MUL_(x, v))
PINNED_STEP(carry_fmul_b, carry_fmul_b_plain, carry_fmul_b_pinned)
CARRY_STEP(carry_fdiv_b, b, OP_FDIV_(x, v))

/* A running Max (Min) over blocks of 8.  When every other operand of a
   block is strictly below (above) the carried value, Float.max (min)
   returns the carried value at each element, so the block stores it
   unchanged; that test and the stores vectorize.  The shortcut is exact:
   a strict compare is false for a NaN on either side and for -0.0
   against +0.0, the only cases where Float.max (min) looks past the
   order.  Any other block runs element by element. */
#define CARRY_BOUND_STEP(name, self, other, rel, expr)                      \
  STEP name(double *d, const double *a, const double *b, intnat n)         \
  {                                                                         \
    int64_t bad = 0;                                                        \
    intnat i = 0;                                                           \
    if (n <= 0) return 0;                                                   \
    double v = self[0];                                                     \
    for (; i + 8 <= n; i += 8) {                                            \
      int64_t held = -1;                                                    \
      for (int j = 0; j < 8; j++) held &= -(int64_t) (other[i + j] rel v);  \
      if (held) {                                                           \
        for (int j = 0; j < 8; j++) d[i + j] = v;                           \
        bad |= bits_of(v - v);                                              \
      } else {                                                              \
        for (int j = 0; j < 8; j++) {                                       \
          double x = a[i + j], y = b[i + j];                                \
          (void) x, (void) y;                                               \
          v = (expr);                                                       \
          d[i + j] = v;                                                     \
          bad |= bits_of(v - v);                                            \
        }                                                                   \
      }                                                                     \
    }                                                                       \
    for (; i < n; i++) {                                                    \
      double x = a[i], y = b[i];                                            \
      (void) x, (void) y;                                                   \
      v = (expr);                                                           \
      d[i] = v;                                                             \
      bad |= bits_of(v - v);                                                \
    }                                                                       \
    return bad != 0;                                                        \
  }

CARRY_BOUND_STEP(carry_max_a, a, b, <, OP_MAX_(v, y))
CARRY_BOUND_STEP(carry_min_a, a, b, >, OP_MIN_(v, y))
CARRY_BOUND_STEP(carry_max_b, b, a, <, OP_MAX_(x, v))
CARRY_BOUND_STEP(carry_min_b, b, a, >, OP_MIN_(x, v))

/* A running Max (Min) whose elements no one reads but the next block:
   only its last element, the carry, is stored.  When the carry and every
   other operand are finite, Float.max (min) is the largest (smallest)
   value in the order where -0.0 sits below +0.0, and that order is the
   signed order of ORDER_KEY's integers: a negative double's bits, its
   magnitude bits flipped, count down as the value does, and every
   negative key lies below every non-negative one.  The key is its own
   inverse.  The pass keeps no branch and walks the four quarters of the
   range side by side, so where the target has a 64-bit compare (AVX2) it
   vectorizes into four independent chains rather than one that waits on
   each compare.  A NaN or an infinity anywhere, carry included, reruns
   the range through the running step above, which stores every element
   and reports the non-finite result. */
static inline int64_t order_key(int64_t b) { return b < 0 ? b ^ INT64_MAX : b; }

/* One element into the extreme [acc]; [bad] gathers the finite test. */
#define FOLD_KEY(acc, y, rel)                                               \
  do {                                                                      \
    int64_t k_ = order_key(bits_of(y));                                     \
    bad |= bits_of((y) - (y));                                              \
    acc = (k_ rel acc) ? k_ : acc;                                          \
  } while (0)

#define FOLD_STEP(name, self, other, rel, serial)                           \
  STEP name(double *d, const double *a, const double *b, intnat n)         \
  {                                                                         \
    if (n <= 0) return 0;                                                   \
    double c = self[0];                                                     \
    int64_t bad = bits_of(c - c), m = order_key(bits_of(c));                \
    int64_t m1 = m, m2 = m, m3 = m;                                         \
    intnat q = n / 4;                                                       \
    const double *o0 = other, *o1 = o0 + q, *o2 = o1 + q, *o3 = o2 + q;     \
    for (intnat i = 0; i < q; i++) {                                        \
      FOLD_KEY(m, o0[i], rel);                                              \
      FOLD_KEY(m1, o1[i], rel);                                             \
      FOLD_KEY(m2, o2[i], rel);                                             \
      FOLD_KEY(m3, o3[i], rel);                                             \
    }                                                                       \
    for (intnat i = 4 * q; i < n; i++) FOLD_KEY(m, other[i], rel);          \
    m = (m1 rel m) ? m1 : m;                                                \
    m = (m2 rel m) ? m2 : m;                                                \
    m = (m3 rel m) ? m3 : m;                                                \
    if (bad) return serial(d, a, b, n);                                     \
    d[n - 1] = float_of(order_key(m));                                      \
    return 0;                                                               \
  }

FOLD_STEP(fold_max_a, a, b, >, carry_max_a)
FOLD_STEP(fold_min_a, a, b, <, carry_min_a)
FOLD_STEP(fold_max_b, b, a, >, carry_max_b)
FOLD_STEP(fold_min_b, b, a, <, carry_min_b)

/* Compares produce 1.0 or 0.0: finite by construction, no scan. */
#define CMP_STEP(name, rel)                                                 \
  STEP name(double *d, const double *a, const double *b, intnat n)         \
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
  STEP name(double *d, const double *a, const double *b, intnat n)         \
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
STEP step_scan(const double *a, intnat n)
{
  int64_t bad = 0;
  for (intnat i = 0; i < n; i++) bad |= bits_of(a[i] - a[i]);
  return bad != 0;
}

STEP run_step(intnat op, double *d, const double *x, const double *y, intnat n)
{
  switch (op) {
  case OP_PASS: return step_pass(d, x, y, n);
  case OP_FADD: return step_fadd(d, x, y, n);
  case OP_FSUB: return step_fsub(d, x, y, n);
  case OP_FMUL: return step_fmul(d, x, y, n);
  case OP_FDIV: return step_fdiv(d, x, y, n);
  case OP_FNEG: return step_fneg(d, x, y, n);
  case OP_FABS: return step_fabs(d, x, y, n);
  case OP_LT: return step_lt(d, x, y, n);
  case OP_LE: return step_le(d, x, y, n);
  case OP_EQ: return step_eq(d, x, y, n);
  case OP_NE: return step_ne(d, x, y, n);
  case OP_GE: return step_ge(d, x, y, n);
  case OP_GT: return step_gt(d, x, y, n);
  case OP_IADD: return step_iadd(d, x, y, n);
  case OP_ISUB: return step_isub(d, x, y, n);
  case OP_IMUL: return step_imul(d, x, y, n);
  case OP_IAND: return step_iand(d, x, y, n);
  case OP_IOR: return step_ior(d, x, y, n);
  case OP_IXOR: return step_ixor(d, x, y, n);
  case OP_ISHL: return step_ishl(d, x, y, n);
  case OP_ISHR: return step_ishr(d, x, y, n);
  case OP_MAX: return step_max(d, x, y, n);
  case OP_MIN: return step_min(d, x, y, n);
  case OP_PASS_SA: return carry_pass_a(d, x, y, n);
  case OP_FADD_SA: return carry_fadd_a(d, x, y, n);
  case OP_FSUB_SA: return carry_fsub_a(d, x, y, n);
  case OP_FMUL_SA: return carry_fmul_a(d, x, y, n);
  case OP_FDIV_SA: return carry_fdiv_a(d, x, y, n);
  case OP_FNEG_SA: return carry_fneg_a(d, x, y, n);
  case OP_FABS_SA: return carry_fabs_a(d, x, y, n);
  case OP_MAX_SA: return carry_max_a(d, x, y, n);
  case OP_MIN_SA: return carry_min_a(d, x, y, n);
  case OP_FADD_SB: return carry_fadd_b(d, x, y, n);
  case OP_FSUB_SB: return carry_fsub_b(d, x, y, n);
  case OP_FMUL_SB: return carry_fmul_b(d, x, y, n);
  case OP_FDIV_SB: return carry_fdiv_b(d, x, y, n);
  case OP_MAX_SB: return carry_max_b(d, x, y, n);
  case OP_MIN_SB: return carry_min_b(d, x, y, n);
  case OP_MAX_SA_FOLD: return fold_max_a(d, x, y, n);
  case OP_MIN_SA_FOLD: return fold_min_a(d, x, y, n);
  case OP_MAX_SB_FOLD: return fold_max_b(d, x, y, n);
  case OP_MIN_SB_FOLD: return fold_min_b(d, x, y, n);
  default: return step_scan(x, n);
  }
}

/* The dispatcher built for the baseline target alone, for the tests:
   nsc_native_step_baseline below. */
static __attribute__((noinline)) int
step_narrow(intnat op, double *d, const double *x, const double *y, intnat n)
{
  return run_step(op, d, x, y, n);
}

/* The dispatcher once per target: the loader's ifunc resolver picks the
   AVX2 clone on a CPU that has AVX2 and the baseline one elsewhere, once,
   when the program loads.  Where the toolchain has no ifunc (no
   target_clones, or a libc without IRELATIVE), there is one baseline
   copy. */
#if defined(__x86_64__) && defined(__GLIBC__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define WIDE_CLONES __attribute__((target_clones("avx2", "default")))
#endif
#endif
#ifndef WIDE_CLONES
#define WIDE_CLONES
#endif

WIDE_CLONES static int
step_wide(intnat op, double *d, const double *x, const double *y, intnat n)
{
  return run_step(op, d, x, y, n);
}

/* Below this many elements a step runs the baseline loops on every CPU,
   inlined here rather than called.  Warm, the AVX2 loops are ahead from
   about 65 elements.  But a program of short vectors calls its steps
   between long stretches of other work, where the step code starts cold:
   after 300 us of scalar work, an Fmul step on the AVX2 clone was behind
   the baseline loops up to 384 elements and ahead at 729.  A
   compile-heavy mix of programs on vectors of at most 72 elements ran 3%
   slower with every step on the clone, and still 2% slower when its
   short steps went through one more call into step_narrow. */
#define WIDE_MIN_ELEMENTS 256

/* Apply step [op] over [n] elements: dst[di + i] = op(a[ai + i], b[bi + i]).
   Returns true when a produced value was not finite. */
value nsc_native_step(intnat op, value dst, intnat di, value a, intnat ai,
                      value b, intnat bi, intnat n)
{
  double *d = DATA(dst) + di;
  const double *x = DATA(a) + ai, *y = DATA(b) + bi;
  if (n >= WIDE_MIN_ELEMENTS) return Val_bool(step_wide(op, d, x, y, n));
  return Val_bool(run_step(op, d, x, y, n));
}

value nsc_native_step_byte(value *argv, int argn)
{
  (void) argn;
  return nsc_native_step(Long_val(argv[0]), argv[1], Long_val(argv[2]),
                         argv[3], Long_val(argv[4]), argv[5],
                         Long_val(argv[6]), Long_val(argv[7]));
}

/* Tests run every check through the baseline dispatcher as well, so its
   loops stay tested at every length on a CPU that picks the AVX2 clone. */
value nsc_native_step_baseline(intnat op, value dst, intnat di, value a,
                               intnat ai, value b, intnat bi, intnat n)
{
  return Val_bool(step_narrow(op, DATA(dst) + di, DATA(a) + ai, DATA(b) + bi, n));
}

value nsc_native_step_baseline_byte(value *argv, int argn)
{
  (void) argn;
  return nsc_native_step_baseline(Long_val(argv[0]), argv[1], Long_val(argv[2]),
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
