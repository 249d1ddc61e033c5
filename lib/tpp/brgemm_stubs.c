/* Native BRGEMM microkernel.

   C[m x n] = beta * C + sum_i A_i[m x k] x B_i[k x n] over the float32
   buffers of Tensor.View.t, bit for bit equal to the OCaml reference
   (Brgemm.Reference):

   - each output has one FP64 accumulator, loaded from C (beta = 1) or
     set to +0.0 (beta = 0);
   - it accumulates batch by batch, with p in order within each batch,
     as acc = a * b + acc;
   - a(i,p) = +-0 is skipped, so 0 * inf never makes a NaN and
     -0 + +0 never flips the sign of an empty sum;
   - the value is rounded once, at the store: to float, then to BF16
     (round to nearest even) when C is a BF16 view; a NaN is stored as
     the canonical quiet NaN.

   The product of two floats is exact in FP64, so a fused multiply-add
   rounds once, exactly as the product followed by a rounded add does:
   the build uses -ffp-contract=fast, and the clones with FMA use it.

   The skip changes a result only when B holds +-inf or NaN or an
   accumulator is -0, and an accumulator can be -0 only where beta = 1
   loaded a -0 from C. The depth runs in chunks, with each register
   tile's accumulators parked exactly between them. So B is screened once
   per chunk, as it is widened, C once per register tile, as it is
   loaded, and the parked partial sums of a call whose C held a -0 once
   per tile and chunk; only what fails a screen runs the loop with the
   skip branch. A call too small to widen reads its operands in place and
   always takes the skip branch.

   Only N is vectorised, so every SIMD lane is an independent output and
   the per-output order above is untouched. The loop itself is in
   brgemm_panel.h, compiled once per instruction set with its own vector
   width and register tile; CPUID picks the clone when the library is
   loaded. No fast-math.

   The entry points are [@@noalloc]: they never allocate, raise or
   release the runtime lock, and they trust the OCaml caller to have
   checked every element they reach against its buffer. */

#include <stdint.h>
#include <string.h>

#include <caml/bigarray.h>
#include <caml/mlvalues.h>

#define INLINE static inline __attribute__((always_inline))
#define NOINLINE static __attribute__((noinline))
#define UNROLL _Pragma("GCC unroll 8")
#define CAT2(a, b) a##_##b
#define CAT(a, b) CAT2(a, b)
#define FN(name) CAT(name, ISA)

/* Tensor.View.t = { data; off; rows; cols; ld; dtype }, and
   Datatype.t = F32 | BF16. */
#define VIEW_PTR(v)                                                    \
  ((float *)Caml_ba_data_val(Field(v, 0)) + Long_val(Field(v, 1)))
#define VIEW_LD(v) Long_val(Field(v, 4))
#define VIEW_BF16(v) (Long_val(Field(v, 5)) == 1)

/* Kernel geometry: v = 1 for flat B, 2 for VNNI pairs; beta is 0 or 1. */
struct geom {
  intnat m, n, k, v;
  int beta;
};

enum form { STRIDE, OFFSETS, LIST };

/* The batch list of one call: A_i and B_i by fixed strides, by explicit
   offsets (OCaml int arrays) or as an OCaml list of (A_i, B_i) views. */
struct batches {
  enum form form;
  intnat count;
  const float *a, *b;
  intnat lda, ldb, stride_a, stride_b;
  value offs_a, offs_b, list;
};

struct cursor {
  intnat i;
  value l;
};

INLINE int next_batch(const struct batches *bt, struct cursor *cur,
                      const float **a, const float **b, intnat *lda,
                      intnat *ldb)
{
  switch (bt->form) {
  case STRIDE:
    if (cur->i >= bt->count) return 0;
    *a = bt->a + cur->i * bt->stride_a;
    *b = bt->b + cur->i * bt->stride_b;
    *lda = bt->lda;
    *ldb = bt->ldb;
    break;
  case OFFSETS:
    if (cur->i >= bt->count) return 0;
    *a = bt->a + Long_val(Field(bt->offs_a, cur->i));
    *b = bt->b + Long_val(Field(bt->offs_b, cur->i));
    *lda = bt->lda;
    *ldb = bt->ldb;
    break;
  default: {
    if (Is_long(cur->l)) return 0;
    value pair = Field(cur->l, 0);
    *a = VIEW_PTR(Field(pair, 0));
    *b = VIEW_PTR(Field(pair, 1));
    *lda = VIEW_LD(Field(pair, 0));
    *ldb = VIEW_LD(Field(pair, 1));
    cur->l = Field(cur->l, 1);
  }
  }
  cur->i++;
  return 1;
}

/* A cursor at batch i. */
INLINE struct cursor seek(const struct batches *bt, intnat i)
{
  struct cursor cur = {i, bt->list};
  if (bt->form == LIST) {
    cur.i = 0;
    for (; cur.i < i; cur.i++) cur.l = Field(cur.l, 1);
  }
  return cur;
}

/* a(i,p) is skipped when it is +0 or -0; NaN is not skipped. */
INLINE int nonzero(const float *x)
{
  uint32_t bits;
  memcpy(&bits, x, sizeof bits);
  return (bits << 1) != 0;
}

/* The one rounding of an output: to float, then to BF16 (round to
   nearest even on the low 16 bits; an overflow carries into infinity)
   when C is BF16. A NaN is stored as the canonical quiet NaN: which of
   two NaN operands an addition returns depends on the operand order the
   compiler picks, so a NaN payload is not part of the contract. */
#define CANONICAL_NAN 0x7FC00000u

INLINE void store1(float *dst, double x, int bf16)
{
  float f = (float)x;
  uint32_t u;
  memcpy(&u, &f, sizeof u);
  if (f != f)
    u = CANONICAL_NAN;
  else if (bf16)
    u = (u + 0x7FFFu + ((u >> 16) & 1u)) & 0xFFFF0000u;
  memcpy(dst, &u, sizeof u);
}

/* The panels of a call: 128 KiB per thread, never more. A call's depth
   runs in chunks of which one panel and one A tile fit L1_DOUBLES (32
   KiB, a common L1 data cache); a chunk's B panels, the partial sums
   parked between chunks and one A tile share the scratch (see run in
   brgemm_panel.h). */
#define SCRATCH_DOUBLES 16384
#define L1_DOUBLES 4096
static __thread double scratch[SCRATCH_DOUBLES]
    __attribute__((aligned(64)));

/* One call, as a clone's tiles see it. */
struct job {
  const struct geom *g;
  const struct batches *bt;
  float *c;
  intnat ldc;
  int c_bf16;
  int inplace; /* no panels: tiles read A and B where they are */
  double *sa;  /* one A tile, at the end of the scratch */
  intnat ldp;  /* row stride of the partial sums */
  intnat len;  /* depth rows of the current chunk */
  int first;   /* the chunk is the call's first: accumulators from C */
  int last;    /* the chunk is its last: accumulators into C */
  int bad;     /* the chunk's panels hold +-inf or NaN */
  int cneg;    /* some tile loaded a -0 from C */
};

/* s[0], ..., s[VL - 1], for a clone's vector initialisers. */
#define L2(s) (s)[0], (s)[1]
#define L4(s) L2(s), L2((s) + 2)
#define L8(s) L4(s), L4((s) + 4)
#define LANES2(vl) L##vl
#define LANES(vl) LANES2(vl)

static const int64_t evens[8] = {0, 2, 4, 6, 8, 10, 12, 14};

/* The clones. AVX-512: 32 zmm hold 4 x 4 accumulators of 8 doubles;
   AVX2: 16 ymm hold 4 x 2 of 4; the baseline's 16 xmm hold 4 x 2 of 2,
   with separate multiplies and adds. */
#pragma GCC push_options
#pragma GCC target("avx512f,fma")
#define ISA avx512
#define VL 8
#define MR 4
#define NV 4
#include "brgemm_panel.h"
#pragma GCC pop_options

#pragma GCC push_options
#pragma GCC target("avx2,fma")
#define ISA avx2
#define VL 4
#define MR 4
#define NV 2
#include "brgemm_panel.h"
#pragma GCC pop_options

#define ISA baseline
#define VL 2
#define MR 4
#define NV 2
#include "brgemm_panel.h"

static int avx512_ok(void)
{
  return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("fma");
}

static int avx2_ok(void)
{
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}

static int baseline_ok(void) { return 1; }

/* Best first; Brgemm.For_tests names them in this order. */
static const struct {
  void (*run)(const struct geom *, const struct batches *, float *, intnat,
              int);
  int (*executable)(void);
} clones[] = {{run_avx512, avx512_ok},
              {run_avx2, avx2_ok},
              {run_baseline, baseline_ok}};

#define NCLONES ((intnat)(sizeof clones / sizeof clones[0]))

/* The clone every call runs: the best this CPU executes, unless a test
   picked another. */
static int selected;

__attribute__((constructor)) static void pick_clone(void)
{
  __builtin_cpu_init();
  int i = 0;
  while (!clones[i].executable()) i++;
  selected = i;
}

/* [vg] is the kernel's geometry, [| m; n; k; v; beta |]. */
static void exec(value vg, const struct batches *bt, value vc)
{
  struct geom g = {Long_val(Field(vg, 0)), Long_val(Field(vg, 1)),
                   Long_val(Field(vg, 2)), Long_val(Field(vg, 3)),
                   Long_val(Field(vg, 4)) != 0};
  clones[__atomic_load_n(&selected, __ATOMIC_RELAXED)].run(
      &g, bt, VIEW_PTR(vc), VIEW_LD(vc), VIEW_BF16(vc));
}

CAMLprim value tpp_brgemm_stride(value vg, value va, value vb, value vc,
                                 value vcount, value vsa, value vsb)
{
  struct batches bt = {.form = STRIDE,
                       .count = Long_val(vcount),
                       .a = VIEW_PTR(va),
                       .b = VIEW_PTR(vb),
                       .lda = VIEW_LD(va),
                       .ldb = VIEW_LD(vb),
                       .stride_a = Long_val(vsa),
                       .stride_b = Long_val(vsb),
                       .list = Val_emptylist};
  exec(vg, &bt, vc);
  return Val_unit;
}

CAMLprim value tpp_brgemm_stride_byte(value *argv, int argn)
{
  (void)argn;
  return tpp_brgemm_stride(argv[0], argv[1], argv[2], argv[3], argv[4],
                           argv[5], argv[6]);
}

CAMLprim value tpp_brgemm_offsets(value vg, value va, value vb, value vc,
                                  value voa, value vob)
{
  struct batches bt = {.form = OFFSETS,
                       .count = Wosize_val(voa),
                       .a = VIEW_PTR(va),
                       .b = VIEW_PTR(vb),
                       .lda = VIEW_LD(va),
                       .ldb = VIEW_LD(vb),
                       .offs_a = voa,
                       .offs_b = vob,
                       .list = Val_emptylist};
  exec(vg, &bt, vc);
  return Val_unit;
}

CAMLprim value tpp_brgemm_offsets_byte(value *argv, int argn)
{
  (void)argn;
  return tpp_brgemm_offsets(argv[0], argv[1], argv[2], argv[3], argv[4],
                            argv[5]);
}

CAMLprim value tpp_brgemm_list(value vg, value vab, value vc)
{
  struct batches bt = {.form = LIST, .count = 0, .list = vab};
  for (value l = vab; Is_block(l); l = Field(l, 1)) bt.count++;
  exec(vg, &bt, vc);
  return Val_unit;
}

/* Brgemm.For_tests: clone [i] of the table above. */
CAMLprim value tpp_brgemm_clone_executable(value vi)
{
  intnat i = Long_val(vi);
  return Val_bool(i >= 0 && i < NCLONES && clones[i].executable());
}

CAMLprim value tpp_brgemm_clone_selected(value unit)
{
  (void)unit;
  return Val_long(__atomic_load_n(&selected, __ATOMIC_RELAXED));
}

CAMLprim value tpp_brgemm_clone_select(value vi)
{
  __atomic_store_n(&selected, (int)Long_val(vi), __ATOMIC_RELAXED);
  return Val_unit;
}
