/* The FP64-panel BRGEMM loop of one clone. brgemm_stubs.c includes this
   file once per instruction set, under a matching #pragma GCC target,
   with these macros defined (the file undefines them at its end):

     ISA   the clone's name, appended to every function it defines
     VL    doubles per vector
     MR    rows per register tile
     NV    vectors per register tile; MR * NV accumulators, NV B vectors
           and one broadcast must fit the register file

   A call's depth (count * k rows, the batches one after another) runs
   in chunks of at most CHUNK rows, so that one panel and one A tile of
   a chunk fit L1. In [scratch], each chunk's B columns are widened to
   FP64 once, as panels of NV vectors, and every row tile shares them;
   each MR-row tile of A is widened once per chunk. The loop then runs
   only loads, broadcasts and FMAs into accumulators held in registers.
   Between chunks a tile parks its accumulators, exactly, in the
   scratch. A call with flat B and fewer than MR rows has no full tile
   to spread the widening over; its loop reads A and B in place. */

#define VEC FN(vd)
#define VECF FN(vf)
#define VECU FN(vu)
#define VECL FN(vl)
#define W (NV * VL) /* columns of a full panel */
#define CHUNK (L1_DOUBLES / (W + MR)) /* depth rows of a chunk, at most */

typedef double VEC __attribute__((vector_size(VL * sizeof(double))));
typedef float VECF __attribute__((vector_size(VL * sizeof(float))));
typedef uint32_t VECU __attribute__((vector_size(VL * sizeof(uint32_t))));
typedef int64_t VECL __attribute__((vector_size(VL * sizeof(int64_t))));

/* VL floats at [s], widened. The element-wise form compiles to one
   widening load, where __builtin_convertvector would split it. */
#define WIDEN(s) ((VEC){LANES(VL)(s)})

/* Whether any lane of [m] is set. */
INLINE int FN(any)(VECU m)
{
  uint32_t r = 0;
  for (int l = 0; l < VL; l++) r |= m[l];
  return r != 0;
}

/* The lanes of the VL floats at [s] that are +-inf or NaN. */
INLINE VECU FN(nonfinite)(const float *s)
{
  VECU u;
  memcpy(&u, s, sizeof u);
  return (VECU)((u & 0x7F800000u) == 0x7F800000u);
}

/* B columns [j0, j0 + w) of depth rows [d0, d0 + len) into [dst], w
   doubles a row, w a multiple of VL. A VNNI row holds depth rows 2q and
   2q + 1 interleaved; both are split off it at once. Returns whether
   any value read is +-inf or NaN. Not inlined: in run, its constants
   would stay in registers across the tiles' loop and push an AVX2
   accumulator out to the stack. */
NOINLINE int FN(widen_b)(const struct geom *g, const struct batches *bt,
                         double *dst, intnat j0, intnat w, intnat d0,
                         intnat len)
{
  const VECL even = {LANES(VL)(evens)};
  VECU bad = {0};
  const float *a, *b;
  intnat lda, ldb, p = d0 ? d0 % g->k : 0;
  struct cursor cur = seek(bt, d0 ? d0 / g->k : 0);
  while (len > 0 && next_batch(bt, &cur, &a, &b, &lda, &ldb)) {
    while (p < g->k && len > 0) {
      intnat rows = 1;
      if (g->v == 1) {
        const float *src = b + p * ldb + j0;
        for (intnat j = 0; j < w; j += VL) {
          VEC x = WIDEN(src + j);
          bad |= FN(nonfinite)(src + j);
          memcpy(dst + j, &x, sizeof x);
        }
      } else {
        const float *src = b + (p >> 1) * ldb + 2 * j0;
        const int odd = p & 1;
        if (!odd && len > 1) rows = 2;
        for (intnat j = 0; j < w; j += VL) {
          const float *s = src + 2 * j;
          VEC lo = WIDEN(s), hi = WIDEN(s + VL);
          bad |= FN(nonfinite)(s) | FN(nonfinite)(s + VL);
          VEC x = __builtin_shuffle(lo, hi, even + odd);
          memcpy(dst + j, &x, sizeof x);
          if (rows == 2) {
            x = __builtin_shuffle(lo, hi, even + 1);
            memcpy(dst + w + j, &x, sizeof x);
          }
        }
      }
      p += rows;
      len -= rows;
      dst += rows * w;
    }
    p = 0;
  }
  return FN(any)(bad);
}

/* Rows [i0, i0 + mr) of A over depth rows [d0, d0 + len) into [dst],
   one row of len doubles after another. */
static void FN(widen_a)(const struct geom *g, const struct batches *bt,
                        double *dst, intnat i0, intnat mr, intnat d0,
                        intnat len)
{
  const float *a, *b;
  intnat lda, ldb, p = d0 ? d0 % g->k : 0, done = 0;
  struct cursor cur = seek(bt, d0 ? d0 / g->k : 0);
  while (done < len && next_batch(bt, &cur, &a, &b, &lda, &ldb)) {
    const intnat seg = g->k - p < len - done ? g->k - p : len - done;
    for (intnat r = 0; r < mr; r++) {
      const float *src = a + (i0 + r) * lda + p;
      double *out = dst + r * len + done;
      intnat j = 0;
      for (; j + VL <= seg; j += VL) {
        VEC x = WIDEN(src + j);
        memcpy(out + j, &x, sizeof x);
      }
      for (; j < seg; j++) out[j] = src[j];
    }
    done += seg;
    p = 0;
  }
}

/* Columns [j0, n), one output at a time. It is compiled per clone too:
   SSE code called from AVX code that left the upper halves of the vector
   registers dirty runs several times slower, and so does the OCaml float
   code after it. For the same reason run calls it first: called last, it
   became a jump past the vzeroupper of run's return. */
NOINLINE void FN(tail)(const struct geom *g, const struct batches *bt,
                     intnat j0, float *c, intnat ldc, int c_bf16)
{
  const int vnni = g->v == 2;
  for (intnat r = 0; r < g->m; r++)
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

/* The one inner loop: [len] depth rows of the A tile [at] (row stride
   [lda]) times the B rows [bp] (row stride [ldb]) into acc. The operands
   are FP64 panels or, with [inplace], the views' own floats, widened as
   they are loaded. With [skip], a(i,p) = +-0 adds nothing, as the
   contract says; without it, its zero product is added, which gives the
   same bits when B is finite and no accumulator is -0. */
INLINE void FN(fmas)(const int mr, const int nv, const int skip,
                     const int inplace, VEC acc[MR][NV], const void *at,
                     intnat lda, const void *bp, intnat ldb, intnat len)
{
  for (intnat d = 0; d < len; d++) {
    VEC bv[NV];
    UNROLL
    for (int u = 0; u < nv; u++) {
      if (inplace)
        bv[u] = WIDEN((const float *)bp + d * ldb + u * VL);
      else
        memcpy(&bv[u], (const double *)bp + d * ldb + u * VL, sizeof bv[u]);
    }
    UNROLL
    for (int r = 0; r < mr; r++) {
      const double x = inplace ? ((const float *)at)[r * lda + d]
                               : ((const double *)at)[r * lda + d];
      if (!skip || x != 0.0)
        UNROLL
        for (int u = 0; u < nv; u++) acc[r][u] = x * bv[u] + acc[r][u];
    }
  }
}

/* One [mr x nv*VL] tile of C at (i0, j0), over the current chunk: [bp]
   is its panel and jb->sa its A tile, both widened. The accumulators
   start from C (or +0) in the first chunk and from the tile's partial
   sums [pp] (row stride jb->ldp) after it; they are parked there after
   every chunk but the last, and rounded into C after that. In place,
   the tile reads A and B where they are, over the whole depth. Returns
   whether the tile loaded a -0 from C. */
INLINE int FN(tile)(const int mr, const int nv, const struct job *jb,
                    intnat i0, intnat j0, const double *bp, double *pp)
{
  const struct geom *g = jb->g;
  float *cp = jb->c + i0 * jb->ldc + j0;
  VEC acc[MR][NV];
  VECU cneg = {0}; /* lanes of C that hold -0 */
  UNROLL
  for (int r = 0; r < mr; r++)
    UNROLL
    for (int u = 0; u < nv; u++) {
      if (!jb->first)
        memcpy(&acc[r][u], pp + r * jb->ldp + u * VL, sizeof acc[r][u]);
      else if (g->beta) {
        const float *src = cp + r * jb->ldc + u * VL;
        VECU bits;
        memcpy(&bits, src, sizeof bits);
        cneg |= (VECU)(bits == 0x80000000u);
        acc[r][u] = WIDEN(src);
      } else
        acc[r][u] = (VEC){0};
    }
  const int cz = FN(any)(cneg);
  int nz = cz;
  /* A partial sum is -0 only if it was loaded from C as -0 and every
     product since was skipped or -0, so only a call whose C held a -0
     screens its partial sums. */
  if (!jb->first && jb->cneg) {
    VECL pneg = {0};
    UNROLL
    for (int r = 0; r < mr; r++)
      UNROLL
      for (int u = 0; u < nv; u++) {
        VECL bits;
        memcpy(&bits, &acc[r][u], sizeof bits);
        pneg |= bits == INT64_MIN;
      }
    nz = FN(any)(__builtin_convertvector(pneg, VECU));
  }

  if (jb->inplace) {
    struct cursor cur = {0, jb->bt->list};
    const float *a, *b;
    intnat lda, ldb;
    while (next_batch(jb->bt, &cur, &a, &b, &lda, &ldb))
      FN(fmas)(mr, nv, 1, 1, acc, a + i0 * lda, lda, b + j0, ldb, g->k);
  } else if (jb->bad || nz)
    FN(fmas)(mr, nv, 1, 0, acc, jb->sa, jb->len, bp, nv * VL, jb->len);
  else
    FN(fmas)(mr, nv, 0, 0, acc, jb->sa, jb->len, bp, nv * VL, jb->len);

  if (!jb->last) {
    UNROLL
    for (int r = 0; r < mr; r++)
      UNROLL
      for (int u = 0; u < nv; u++)
        memcpy(pp + r * jb->ldp + u * VL, &acc[r][u], sizeof acc[r][u]);
    return cz;
  }
  UNROLL
  for (int r = 0; r < mr; r++)
    UNROLL
    for (int u = 0; u < nv; u++) {
      VECF f = __builtin_convertvector(acc[r][u], VECF);
      VECU bits, nan = (VECU)(f != f);
      memcpy(&bits, &f, sizeof bits);
      if (jb->c_bf16)
        bits = (bits + 0x7FFFu + ((bits >> 16) & 1u)) & 0xFFFF0000u;
      bits = (bits & ~nan) | (CANONICAL_NAN & nan);
      memcpy(cp + r * jb->ldc + u * VL, &bits, sizeof bits);
    }
  return cz;
}

/* The tile for a run-time nv, with mr and nv constant inside. */
INLINE int FN(tiles)(const int mr, intnat nv, const struct job *jb,
                     intnat i0, intnat j0, const double *bp, double *pp)
{
  switch (nv) {
#if NV >= 2
  case 2: return FN(tile)(mr, 2, jb, i0, j0, bp, pp);
#endif
#if NV >= 3
  case 3: return FN(tile)(mr, 3, jb, i0, j0, bp, pp);
#endif
#if NV >= 4
  case 4: return FN(tile)(mr, 4, jb, i0, j0, bp, pp);
#endif
#if NV > 4
#error "NV > 4 has no tile case"
#endif
  default: return FN(tile)(mr, 1, jb, i0, j0, bp, pp);
  }
}

/* The depth runs in even chunks of at most CHUNK rows. The columns are
   cut into groups, and the rows into blocks, so that a chunk of the
   group's B, the block's partial sums (kept only when there are several
   chunks) and one A tile fit the scratch. For each chunk, the group's B
   is widened once and every row tile of the block shares it. Full tiles
   are MR rows; the rows left over take one row at a time. With flat B
   and fewer than MR rows, the tiles read A and B in place instead. The
   columns past the last whole vector take the scalar tail, first. */
static void FN(run)(const struct geom *g, const struct batches *bt,
                    float *c, intnat ldc, int c_bf16)
{
  const intnat depth = bt->count * g->k, nvec = g->n / VL;
  if (nvec * VL < g->n) FN(tail)(g, bt, nvec * VL, c, ldc, c_bf16);
  struct job jb = {.g = g, .bt = bt, .c = c, .ldc = ldc, .c_bf16 = c_bf16,
                   .first = 1, .last = 1, .inplace = g->v == 1 && g->m < MR};
  if (jb.inplace) {
    for (intnat i0 = 0; i0 < g->m; i0++)
      for (intnat v = 0, nv; v < nvec; v += nv) {
        nv = nvec - v < NV ? nvec - v : NV;
        FN(tiles)(1, nv, &jb, i0, v * VL, NULL, NULL);
      }
    return;
  }

  const intnat chunks = depth > CHUNK ? (depth + CHUNK - 1) / CHUNK : 1;
  const intnat chunk = (depth + chunks - 1) / chunks;
  const intnat room = SCRATCH_DOUBLES - MR * chunk;
  intnat group = nvec, block = g->m; /* B vectors and C rows at once */
  if (chunk > 0) {
    intnat panels = room / ((chunk + (chunks > 1 ? g->m : 0)) * W);
    if (panels < 1) {
      panels = 1;
      block = (room / W - chunk) / MR * MR;
    }
    if (panels * NV < group) group = panels * NV;
  }
  double *const sb = scratch; /* B panels; one thread-local lookup */
  jb.sa = sb + room;

  for (intnat v0 = 0; v0 < nvec; v0 += group) {
    const intnat v1 = nvec - v0 < group ? nvec : v0 + group;
    jb.ldp = (v1 - v0) * VL;
    double *sp = sb + chunk * jb.ldp; /* partial sums */
    for (intnat r0 = 0; r0 < g->m; r0 += block) {
      const intnat r1 = g->m - r0 < block ? g->m : r0 + block;
      intnat d0 = 0;
      do {
        jb.len = depth - d0 < chunk ? depth - d0 : chunk;
        jb.first = d0 == 0;
        jb.last = d0 + jb.len == depth;
        jb.bad = 0;
        double *bp = sb;
        for (intnat v = v0, nv; v < v1; v += nv, bp += jb.len * nv * VL) {
          nv = v1 - v < NV ? v1 - v : NV;
          jb.bad |= FN(widen_b)(g, bt, bp, v * VL, nv * VL, d0, jb.len);
        }
        for (intnat i0 = r0, mr; i0 < r1; i0 += mr) {
          mr = r1 - i0 >= MR ? MR : 1;
          FN(widen_a)(g, bt, jb.sa, i0, mr, d0, jb.len);
          bp = sb;
          for (intnat v = v0, nv; v < v1; v += nv, bp += jb.len * nv * VL) {
            nv = v1 - v < NV ? v1 - v : NV;
            double *pp = sp + (i0 - r0) * jb.ldp + (v - v0) * VL;
            jb.cneg |= mr == MR ? FN(tiles)(MR, nv, &jb, i0, v * VL, bp, pp)
                                : FN(tiles)(1, nv, &jb, i0, v * VL, bp, pp);
          }
        }
        d0 += jb.len;
      } while (d0 < depth);
    }
  }
}

#undef VEC
#undef VECF
#undef VECU
#undef VECL
#undef WIDEN
#undef W
#undef CHUNK
#undef ISA
#undef VL
#undef MR
#undef NV
