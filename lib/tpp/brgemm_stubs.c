/* Native BRGEMM microkernel.

   C[m x n] = beta * C + sum_i A_i[m x k] x B_i[k x n] over the float32
   buffers of Tensor.View.t, bit for bit equal to the OCaml reference
   (Brgemm.Reference):

   - each output has one FP64 accumulator, loaded from C (beta = 1) or
     set to +0.0 (beta = 0);
   - it accumulates batch by batch, with p in order within each batch,
     as a double product (exact for two floats) and a double sum;
   - a(i,p) = +-0 is skipped, so 0 * inf never makes a NaN and
     -0 + +0 never flips the sign of an empty sum;
   - the value is rounded once, at the store: to float, then to BF16
     (round to nearest even) when C is a BF16 view; a NaN is stored as
     the canonical quiet NaN.

   Only N is vectorised, so every SIMD lane is an independent output and
   the per-output order above is untouched. C is register-tiled MR rows
   by NV vectors; VNNI B (v = 2) is read as pairs and split into its even
   and odd rows in registers. The instruction set is chosen from CPUID
   when the library is loaded (GCC target_clones); the build uses
   -ffp-contract=off and no fast-math.

   The entry points are [@@noalloc]: they never allocate, raise or
   release the runtime lock, and they trust the OCaml caller to have
   checked every element they reach against its buffer. */

#include <stdint.h>
#include <string.h>

#include <caml/bigarray.h>
#include <caml/mlvalues.h>

#define VL 8 /* doubles per vector */
#define MR 4 /* rows per register tile */
#define NV 4 /* vectors per register tile */

typedef double v8d __attribute__((vector_size(VL * sizeof(double))));
typedef float v8f __attribute__((vector_size(VL * sizeof(float))));
typedef uint32_t v8u __attribute__((vector_size(VL * sizeof(uint32_t))));

#define INLINE static inline __attribute__((always_inline))
#define UNROLL _Pragma("GCC unroll 8")

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

/* a(i,p) is skipped when it is +0 or -0; NaN is not skipped. */
INLINE int nonzero(const float *x)
{
  uint32_t bits;
  memcpy(&bits, x, sizeof bits);
  return (bits << 1) != 0;
}

/* Eight floats at stride s, widened to doubles. A macro, not a
   function: a vector return type would change the ABI between the
   target clones. The element-wise form compiles to one widening load
   where __builtin_convertvector would split it. */
#define WIDEN8(x, s)                                                   \
  ((v8d){(x)[0], (x)[s], (x)[2 * (s)], (x)[3 * (s)], (x)[4 * (s)],     \
         (x)[5 * (s)], (x)[6 * (s)], (x)[7 * (s)]})

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

#define STORE8(dst, x, bf16)                                           \
  do {                                                                 \
    v8f f_ = __builtin_convertvector((x), v8f);                        \
    v8u u_, nan_ = (v8u)(f_ != f_);                                    \
    memcpy(&u_, &f_, sizeof u_);                                       \
    if (bf16) u_ = (u_ + 0x7FFFu + ((u_ >> 16) & 1u)) & 0xFFFF0000u;   \
    u_ = (u_ & ~nan_) | (CANONICAL_NAN & nan_);                        \
    memcpy((dst), &u_, sizeof u_);                                     \
  } while (0)

/* One [mr x nv*VL] tile of C at (i0, j0); mr and nv are constants after
   inlining, so acc stays in registers. */
INLINE void tile(const int mr, const int nv, const struct geom *g,
                 const struct batches *bt, intnat i0, intnat j0, float *c,
                 intnat ldc, int c_bf16)
{
  v8d acc[MR][NV];
  struct cursor cur = {0, bt->list};
  const float *a, *b;
  intnat lda, ldb;

  UNROLL
  for (int r = 0; r < mr; r++)
    UNROLL
    for (int u = 0; u < nv; u++)
      acc[r][u] = g->beta ? WIDEN8(c + (i0 + r) * ldc + j0 + u * VL, 1)
                          : (v8d){0};

  while (next_batch(bt, &cur, &a, &b, &lda, &ldb)) {
    const float *arow = a + i0 * lda;
    if (g->v == 1) {
      for (intnat p = 0; p < g->k; p++) {
        v8d bv[NV];
        UNROLL
        for (int u = 0; u < nv; u++)
          bv[u] = WIDEN8(b + p * ldb + j0 + u * VL, 1);
        UNROLL
        for (int r = 0; r < mr; r++) {
          const float *ap = arow + r * lda + p;
          if (nonzero(ap)) {
            double x = *ap;
            v8d xv = {x, x, x, x, x, x, x, x};
            UNROLL
            for (int u = 0; u < nv; u++) acc[r][u] = xv * bv[u] + acc[r][u];
          }
        }
      }
    } else {
      /* VNNI row q holds (p = 2q, j) at 2j and (p = 2q + 1, j) at 2j + 1 */
      for (intnat q = 0; q < g->k / 2; q++) {
        v8d be[NV], bo[NV];
        UNROLL
        for (int u = 0; u < nv; u++) {
          const float *bq = b + q * ldb + 2 * (j0 + u * VL);
          be[u] = WIDEN8(bq, 2);
          bo[u] = WIDEN8(bq + 1, 2);
        }
        UNROLL
        for (int r = 0; r < mr; r++) {
          const float *ap = arow + r * lda + 2 * q;
          if (nonzero(ap)) {
            double x = ap[0];
            v8d xv = {x, x, x, x, x, x, x, x};
            UNROLL
            for (int u = 0; u < nv; u++) acc[r][u] = xv * be[u] + acc[r][u];
          }
          if (nonzero(ap + 1)) {
            double x = ap[1];
            v8d xv = {x, x, x, x, x, x, x, x};
            UNROLL
            for (int u = 0; u < nv; u++) acc[r][u] = xv * bo[u] + acc[r][u];
          }
        }
      }
    }
  }

  UNROLL
  for (int r = 0; r < mr; r++)
    UNROLL
    for (int u = 0; u < nv; u++)
      STORE8(c + (i0 + r) * ldc + j0 + u * VL, acc[r][u], c_bf16);
}

/* Columns [j0, n) of rows [i0, i0 + mr), one output at a time. */
static void tail(const struct geom *g, const struct batches *bt, intnat i0,
                 intnat mr, intnat j0, float *c, intnat ldc, int c_bf16)
{
  const int vnni = g->v == 2;
  for (intnat r = i0; r < i0 + mr; r++)
    for (intnat j = j0; j < g->n; j++) {
      double acc = g->beta ? c[r * ldc + j] : 0.0;
      struct cursor cur = {0, bt->list};
      const float *a, *b;
      intnat lda, ldb;
      while (next_batch(bt, &cur, &a, &b, &lda, &ldb))
        for (intnat p = 0; p < g->k; p++) {
          const float *ap = a + r * lda + p;
          if (nonzero(ap)) {
            double bpj = vnni ? b[(p >> 1) * ldb + 2 * j + (p & 1)]
                              : b[p * ldb + j];
            acc = (double)*ap * bpj + acc;
          }
        }
      store1(c + r * ldc + j, acc, c_bf16);
    }
}

/* Full tiles are MR rows; the rows left over take one row at a time. */
__attribute__((target_clones("avx512f", "avx2", "default"))) static void
run(const struct geom *g, const struct batches *bt, float *c, intnat ldc,
    int c_bf16)
{
  for (intnat i0 = 0, mr; i0 < g->m; i0 += mr) {
    mr = g->m - i0 >= MR ? MR : 1;
    intnat j0 = 0, nv;
    for (; g->n - j0 >= VL; j0 += nv * VL) {
      nv = (g->n - j0) / VL < NV ? (g->n - j0) / VL : NV;
      switch (mr == MR ? NV + nv : nv) {
#define TILE(R, U)                                                     \
  case ((R) == 1 ? 0 : NV) + (U):                                      \
    tile(R, U, g, bt, i0, j0, c, ldc, c_bf16);                         \
    break
        TILE(1, 1); TILE(1, 2); TILE(1, 3); TILE(1, 4);
        TILE(MR, 1); TILE(MR, 2); TILE(MR, 3); TILE(MR, 4);
#undef TILE
      }
    }
    if (j0 < g->n) tail(g, bt, i0, mr, j0, c, ldc, c_bf16);
  }
}

/* [vg] is the kernel's geometry, [| m; n; k; v; beta |]. */
static void exec(value vg, const struct batches *bt, value vc)
{
  struct geom g = {Long_val(Field(vg, 0)), Long_val(Field(vg, 1)),
                   Long_val(Field(vg, 2)), Long_val(Field(vg, 3)),
                   Long_val(Field(vg, 4)) != 0};
  run(&g, bt, VIEW_PTR(vc), VIEW_LD(vc), VIEW_BF16(vc));
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
  struct batches bt = {.form = LIST, .list = vab};
  exec(vg, &bt, vc);
  return Val_unit;
}
