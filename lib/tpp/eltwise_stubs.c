/* Native element-wise TPPs: the pointwise unary and binary ops,
   attention's scale + mask + softmax, SwiGLU's gating and layernorm, over
   the float32 buffers of Tensor.View.t, one whole view per call.

   Each output is bit for bit what the OCaml formula it replaced stored
   (test/test_tpp.ml keeps those formulas as its oracles):

   - an element is read widened to double, and every intermediate the
     OCaml code kept as a float stays a double; a value is rounded only
     where View.set stored it: to float, then, on a BF16 view, to BF16 as
     Bf16.round does (nearest even; a NaN is stored as it is);
   - exp and tanh are libm's and erf is caml_erf, the function Float.erf
     calls; no vector math library and no fast-math;
   - this file builds with -ffp-contract=off: a fused nx * gamma + beta
     would round once where OCaml rounds twice;
   - sums run in column order;
   - of two NaN operands, + and * return the first (add1, mul1), as
     OCaml's x +. y does on registers and Blocks.mul and Tpp_binary pin
     it, while C may commute an unpinned + or *; Scale a and Shift a put
     the constant first, as the closures a *. x and a +. x did.

   The entry points are [@@noalloc]: they never allocate, raise or release
   the runtime lock, and they trust the OCaml caller to have checked every
   element they reach against its buffer. Each element is read before its
   own store, so out may be inp (or a) element for element. */

#include <math.h>
#include <stdint.h>
#include <string.h>

#include <caml/bigarray.h>
#include <caml/mlvalues.h>

#define INLINE static inline __attribute__((always_inline))

/* Float.erf's native code, in the OCaml runtime */
CAMLextern double caml_erf(double);

/* Tensor.View.t = { data; off; rows; cols; ld; dtype }, and
   Datatype.t = F32 | BF16. */
struct view {
  float *p;
  intnat rows, cols, ld;
  int bf16;
};

INLINE struct view view_of(value v)
{
  struct view w = {
      (float *)Caml_ba_data_val(Field(v, 0)) + Long_val(Field(v, 1)),
      Long_val(Field(v, 2)), Long_val(Field(v, 3)), Long_val(Field(v, 4)),
      Long_val(Field(v, 5)) == 1};
  return w;
}

INLINE double get(struct view v, intnat i, intnat j)
{
  return v.p[i * v.ld + j];
}

/* View.set; returns the stored value, which reading it back gives */
INLINE double set(struct view v, intnat i, intnat j, double x)
{
  float f = (float)x;
  if (v.bf16 && !isnan(f)) {
    uint32_t b;
    memcpy(&b, &f, sizeof b);
    b = (b + 0x7FFFu + ((b >> 16) & 1u)) & 0xFFFF0000u;
    memcpy(&f, &b, sizeof f);
  }
  v.p[i * v.ld + j] = f;
  return f;
}

/* a value rounded to float and widened back, as a store into an FP32
   tensor and a read of it round it */
INLINE double fl32(double x) { return (float)x; }

INLINE double add1(double x, double y) { return isnan(x) ? x : x + y; }
INLINE double mul1(double x, double y) { return isnan(x) ? x : x * y; }

/* Float.max and Float.min (the OCaml stdlib's float.ml) */
INLINE double caml_max(double x, double y)
{
  if (y > x || (!signbit(y) && signbit(x))) return isnan(x) ? x : y;
  return isnan(y) ? y : x;
}

INLINE double caml_min(double x, double y)
{
  if (y > x || (!signbit(y) && signbit(x))) return isnan(y) ? y : x;
  return isnan(x) ? x : y;
}

/* ---- Tpp_unary.exec ---- */

/* Tpp_unary's codes for its pointwise ops */
enum unary {
  ZERO, RELU, GELU, SIGMOID, TANH, EXP, SQRT, SQUARE, RECIPROCAL, NEGATE,
  ABS, SCALE, SHIFT
};

#define MAP(expr)                                                      \
  for (intnat i = 0; i < out.rows; i++)                                \
    for (intnat j = 0; j < out.cols; j++) {                            \
      double x = get(in, i, j);                                        \
      set(out, i, j, (expr));                                          \
    }                                                                  \
  break

/* out := f(inp) for the op [code]; [a] is Scale's or Shift's constant */
CAMLprim value tpp_eltwise_unary(intnat code, double a, value vin,
                                 value vout)
{
  struct view in = view_of(vin), out = view_of(vout);
  const double inv_sqrt2 = 1.0 / sqrt(2.0);
  switch (code) {
  case ZERO:
    for (intnat i = 0; i < out.rows; i++)
      for (intnat j = 0; j < out.cols; j++) set(out, i, j, 0.0);
    break;
  case RELU: MAP(x > 0.0 ? x : 0.0);
  case GELU: MAP(0.5 * x * (1.0 + caml_erf(x * inv_sqrt2)));
  case SIGMOID: MAP(1.0 / (1.0 + exp(-x)));
  case TANH: MAP(tanh(x));
  case EXP: MAP(exp(x));
  case SQRT: MAP(sqrt(x));
  case SQUARE: MAP(x * x);
  case RECIPROCAL: MAP(1.0 / x);
  case NEGATE: MAP(-x);
  case ABS: MAP(fabs(x));
  case SCALE: MAP(mul1(a, x));
  case SHIFT: MAP(add1(a, x));
  }
  return Val_unit;
}

CAMLprim value tpp_eltwise_unary_byte(value code, value a, value vin,
                                      value vout)
{
  return tpp_eltwise_unary(Long_val(code), Double_val(a), vin, vout);
}

/* ---- Tpp_binary.exec ---- */

/* Tpp_binary's codes for its ops and broadcasts */
enum binary { ADD, SUB, MUL, DIV, MAX, MIN };
enum bcast { FULL, ROW, COL, SCALAR };

#define ZIP(expr)                                                      \
  for (intnat i = 0; i < out.rows; i++)                                \
    for (intnat j = 0; j < out.cols; j++) {                            \
      double y = get(b, i * bi, j * bj), x = get(a, i, j);             \
      set(out, i, j, (expr));                                          \
    }                                                                  \
  break

/* out := a (op) b, b's element for (i, j) at (i * bi, j * bj) */
CAMLprim value tpp_eltwise_binary(value vop, value vbcast, value va,
                                  value vb, value vout)
{
  struct view a = view_of(va), b = view_of(vb), out = view_of(vout);
  intnat bc = Long_val(vbcast);
  intnat bi = bc == FULL || bc == COL, bj = bc == FULL || bc == ROW;
  switch (Long_val(vop)) {
  case ADD: ZIP(add1(x, y));
  case SUB: ZIP(x - y);
  case MUL: ZIP(mul1(x, y));
  case DIV: ZIP(x / y);
  case MAX: ZIP(caml_max(x, y));
  case MIN: ZIP(caml_min(x, y));
  }
  return Val_unit;
}

/* ---- Blocks.softmax_rows ---- */

/* Float.max, taken only where x = y or one is NaN: its sign-bit tests
   mispredict on scores of either sign, and run on every score they made
   a causal 128 x 160 softmax take 1.5 times as long */
INLINE double row_max(double x, double y)
{
  return y > x ? y : x > y ? x : caml_max(x, y);
}

/* One row: scale each of the [live] scores and store it, then the max
   over the row, exp and the sum in column order, then the normalisation.
   The masked tail holds -1e30 rounded to float, one value, so its max
   and exp are taken once.

   The tail shortcut: when that exp is +0, the tail is stored as +0 and
   left out of the sum (a sum that starts at +0 is unchanged by adding
   +0, and so is a NaN sum), and when 1 / sum is finite and positive the
   normalisation stops at the live columns (+0 times it is +0). Both
   keep every bit. The exp is +0 unless every live score is -inf or at
   most -1e30, or the max is NaN: such a row runs the whole loop and
   returns 1, so that a caller that cut the row short can redo it. */
static intnat softmax_row(struct view in, struct view out, intnat i,
                          double scale, intnat live)
{
  const double masked = fl32(-1e30);
  intnat cols = out.cols;
  double mx = -INFINITY;
  for (intnat j = 0; j < live; j++)
    mx = row_max(mx, set(out, i, j, mul1(scale, get(in, i, j))));
  if (live < cols) mx = row_max(mx, masked);
  double sum = 0.0;
  for (intnat j = 0; j < live; j++) {
    double e = exp(get(out, i, j) - mx);
    set(out, i, j, e);
    sum = add1(sum, e);
  }
  intnat norm = cols, dirty = 0;
  if (live < cols) {
    double e = exp(masked - mx);
    if (e == 0.0) {
      for (intnat j = live; j < cols; j++) set(out, i, j, 0.0);
      norm = live;
    }
    else {
      dirty = 1;
      for (intnat j = live; j < cols; j++) {
        set(out, i, j, e);
        sum = add1(sum, e);
      }
    }
  }
  double inv = 1.0 / sum;
  if (!(isfinite(inv) && inv > 0.0)) norm = cols;
  for (intnat j = 0; j < norm; j++)
    set(out, i, j, mul1(get(out, i, j), inv));
  return dirty;
}

/* With [causal], row i keeps its first i + offset + 1 scores. Returns
   the number of rows whose masked tail is not +0. */
CAMLprim intnat tpp_eltwise_softmax(double scale, intnat causal,
                                    intnat offset, value vin, value vout)
{
  struct view in = view_of(vin), out = view_of(vout);
  /* clamped so that i + offset + 1 cannot overflow; no row's count moves */
  if (offset > out.cols) offset = out.cols;
  if (offset < -out.rows - 1) offset = -out.rows - 1;
  intnat dirty = 0;
  for (intnat i = 0; i < out.rows; i++) {
    intnat live = out.cols;
    if (causal) {
      intnat n = i + offset + 1;
      live = n < 0 ? 0 : n < out.cols ? n : out.cols;
    }
    dirty += softmax_row(in, out, i, scale, live);
  }
  return dirty;
}

CAMLprim value tpp_eltwise_softmax_byte(value scale, value causal,
                                        value offset, value vin, value vout)
{
  return Val_long(tpp_eltwise_softmax(Double_val(scale), Long_val(causal),
                                      Long_val(offset), vin, vout));
}

/* ---- Blocks.swiglu ---- */

/* out := inp * (gate * sigmoid gate), the sigmoid and the product
   rounded to FP32 where the unfused Sigmoid and Mul stored them */
CAMLprim value tpp_eltwise_swiglu(value vgate, value vin, value vout)
{
  struct view gate = view_of(vgate), in = view_of(vin), out = view_of(vout);
  for (intnat i = 0; i < out.rows; i++)
    for (intnat j = 0; j < out.cols; j++) {
      double g = get(gate, i, j);
      double silu = fl32(mul1(g, fl32(1.0 / (1.0 + exp(-g)))));
      set(out, i, j, mul1(get(in, i, j), silu));
    }
  return Val_unit;
}

/* ---- Blocks.layernorm_rows_nostats ---- */

/* Each row of inp normalised into out, with gamma and beta [1 x cols] */
CAMLprim value tpp_eltwise_layernorm(double eps, value vin, value vgamma,
                                     value vbeta, value vout)
{
  struct view in = view_of(vin), gamma = view_of(vgamma);
  struct view beta = view_of(vbeta), out = view_of(vout);
  double fcols = (double)in.cols;
  for (intnat i = 0; i < in.rows; i++) {
    double m = 0.0;
    for (intnat j = 0; j < in.cols; j++) m = add1(m, get(in, i, j));
    double mean = m / fcols;
    double v = 0.0;
    for (intnat j = 0; j < in.cols; j++) {
      double d = get(in, i, j) - mean;
      v = add1(v, d * d);
    }
    double rstd = 1.0 / sqrt(add1(v / fcols, eps));
    for (intnat j = 0; j < in.cols; j++) {
      double nx = mul1(get(in, i, j) - mean, rstd);
      set(out, i, j, add1(mul1(nx, get(gamma, 0, j)), get(beta, 0, j)));
    }
  }
  return Val_unit;
}

CAMLprim value tpp_eltwise_layernorm_byte(value eps, value vin,
                                          value vgamma, value vbeta,
                                          value vout)
{
  return tpp_eltwise_layernorm(Double_val(eps), vin, vgamma, vbeta, vout);
}
