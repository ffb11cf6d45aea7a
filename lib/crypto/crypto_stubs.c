/* The two primitives every verdict depends on (DESIGN.md §30): the
   SHA-256 block compressor behind Sha256 and the Montgomery
   exponentiation behind Bignum.Mont.

   Both entry points are [@@noalloc] externals. They never allocate on
   the OCaml heap, never raise and never call back into OCaml, so they
   take no CAMLparam frame. They touch only the strings and bytes they
   are handed, and the OCaml side has already checked every offset and
   length. */

#include <stdint.h>
#include <string.h>
#include <caml/mlvalues.h>

/* --- SHA-256 -------------------------------------------------------------- */

static const uint32_t k256[64] = {
  0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
  0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
  0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
  0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
  0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
  0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
  0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
  0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
  0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
  0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
  0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

static uint32_t load_be32(const unsigned char *p)
{
  return (uint32_t)p[0] << 24 | (uint32_t)p[1] << 16 | (uint32_t)p[2] << 8 | p[3];
}

static void store_be32(unsigned char *p, uint32_t v)
{
  p[0] = v >> 24; p[1] = v >> 16; p[2] = v >> 8; p[3] = v;
}

#define ROR(x, n) ((x) >> (n) | (x) << (32 - (n)))

/* FIPS 180-4 §6.2.2 over [n] blocks. The state is eight big-endian
   words, the digest's own byte order, so finalization is a copy. */
static void sha256_portable(unsigned char *state, const unsigned char *p, intnat n)
{
  uint32_t h[8], w[64];
  for (int i = 0; i < 8; i++) h[i] = load_be32(state + 4 * i);
  for (; n > 0; n--, p += 64) {
    for (int i = 0; i < 16; i++) w[i] = load_be32(p + 4 * i);
    for (int i = 16; i < 64; i++)
      w[i] = w[i - 16] + (ROR(w[i - 15], 7) ^ ROR(w[i - 15], 18) ^ w[i - 15] >> 3)
             + w[i - 7] + (ROR(w[i - 2], 17) ^ ROR(w[i - 2], 19) ^ w[i - 2] >> 10);
    uint32_t a = h[0], b = h[1], c = h[2], d = h[3], e = h[4], f = h[5], g = h[6], hh = h[7];
    for (int i = 0; i < 64; i++) {
      uint32_t t1 = hh + (ROR(e, 6) ^ ROR(e, 11) ^ ROR(e, 25)) + ((e & f) ^ (~e & g)) + k256[i] + w[i];
      uint32_t t2 = (ROR(a, 2) ^ ROR(a, 13) ^ ROR(a, 22)) + ((a & b) ^ (a & c) ^ (b & c));
      hh = g; g = f; f = e; e = d + t1; d = c; c = b; b = a; a = t1 + t2;
    }
    h[0] += a; h[1] += b; h[2] += c; h[3] += d; h[4] += e; h[5] += f; h[6] += g; h[7] += hh;
  }
  for (int i = 0; i < 8; i++) store_be32(state + 4 * i, h[i]);
}

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define HAVE_SHA_NI 1

/* The SHA extensions keep the state as two vectors, ABEF and CDGH;
   each sha256rnds2 runs two rounds, each msg1/msg2 pair extends the
   schedule by four words. Compiled for the extensions by attribute
   only, so the rest of the binary still runs on a CPU without them;
   it is called only after the start-up check passed. */
__attribute__((target("sha,sse4.1")))
static void sha256_sha_ni(unsigned char *state, const unsigned char *p, intnat n)
{
  /* Byte-swaps each 32-bit lane: big-endian words in and out. */
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i t = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)state), bswap);   /* DCBA */
  __m128i s1 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(state + 16)), bswap); /* HGFE */
  t = _mm_shuffle_epi32(t, 0xB1);                    /* CDAB */
  s1 = _mm_shuffle_epi32(s1, 0x1B);                  /* EFGH */
  __m128i s0 = _mm_alignr_epi8(t, s1, 8);            /* ABEF */
  s1 = _mm_blend_epi16(s1, t, 0xF0);                 /* CDGH */
#define QROUND(j, m)                                                          \
  do {                                                                        \
    __m128i k_ = _mm_add_epi32(m, _mm_loadu_si128((const __m128i *)&k256[4 * (j)])); \
    s1 = _mm_sha256rnds2_epu32(s1, s0, k_);                                   \
    s0 = _mm_sha256rnds2_epu32(s0, s1, _mm_shuffle_epi32(k_, 0x0E));          \
  } while (0)
  /* W[4j..4j+3] from the four previous groups, overwriting the oldest. */
#define SCHED(a, b, c, d) \
  a = _mm_sha256msg2_epu32(_mm_add_epi32(_mm_sha256msg1_epu32(a, b), _mm_alignr_epi8(d, c, 4)), d)
  for (; n > 0; n--, p += 64) {
    __m128i abef = s0, cdgh = s1;
    __m128i m0 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)p), bswap);
    __m128i m1 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 16)), bswap);
    __m128i m2 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 32)), bswap);
    __m128i m3 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 48)), bswap);
    QROUND(0, m0); QROUND(1, m1); QROUND(2, m2); QROUND(3, m3);
    for (int j = 4; j < 16; j += 4) {
      SCHED(m0, m1, m2, m3); QROUND(j, m0);
      SCHED(m1, m2, m3, m0); QROUND(j + 1, m1);
      SCHED(m2, m3, m0, m1); QROUND(j + 2, m2);
      SCHED(m3, m0, m1, m2); QROUND(j + 3, m3);
    }
    s0 = _mm_add_epi32(s0, abef);
    s1 = _mm_add_epi32(s1, cdgh);
  }
#undef QROUND
#undef SCHED
  t = _mm_shuffle_epi32(s0, 0x1B);                   /* FEBA */
  s1 = _mm_shuffle_epi32(s1, 0xB1);                  /* DCHG */
  s0 = _mm_blend_epi16(t, s1, 0xF0);                 /* DCBA */
  s1 = _mm_alignr_epi8(s1, t, 8);                    /* HGFE */
  _mm_storeu_si128((__m128i *)state, _mm_shuffle_epi8(s0, bswap));
  _mm_storeu_si128((__m128i *)(state + 16), _mm_shuffle_epi8(s1, bswap));
}
#endif

/* Kernel numbers, as Sha256.kernel_id assigns them. */
#define KERNEL_PORTABLE 0
#define KERNEL_SHA_NI 1

value avm_sha256_has_sha_ni(value unit)
{
  (void)unit;
#ifdef HAVE_SHA_NI
  return Val_bool(__builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1"));
#else
  return Val_false;
#endif
}

/* Compress the [n] whole blocks at [src + off] into [state]. */
value avm_sha256_compress(intnat kernel, value state, value src, intnat off, intnat n)
{
  const unsigned char *p = (const unsigned char *)String_val(src) + off;
#ifdef HAVE_SHA_NI
  if (kernel == KERNEL_SHA_NI) {
    sha256_sha_ni(Bytes_val(state), p, n);
    return Val_unit;
  }
#endif
  (void)kernel;
  sha256_portable(Bytes_val(state), p, n);
  return Val_unit;
}

value avm_sha256_compress_byte(value kernel, value state, value src, value off, value n)
{
  return avm_sha256_compress(Long_val(kernel), state, src, Long_val(off), Long_val(n));
}

/* --- Montgomery exponentiation -------------------------------------------- */

typedef unsigned __int128 u128;

/* Bignum.Mont caps moduli at 13,000 bits, which is 204 limbs of 64
   bits; the cap sizes the stack scratch below. */
#define MONT_MAX_LIMBS 204

static uint64_t load_le64(const unsigned char *p)
{
  uint64_t v = 0;
  for (int i = 7; i >= 0; i--) v = v << 8 | p[i];
  return v;
}

static void store_le64(unsigned char *p, uint64_t v)
{
  for (int i = 0; i < 8; i++, v >>= 8) p[i] = (unsigned char)v;
}

/* r = a*b/R mod m with R = 2^(64k), for a, b < m (CIOS: one pass per
   limb of b that multiplies and reduces). [r] may alias [a] or [b]. */
static void mont_mul(uint64_t *r, const uint64_t *a, const uint64_t *b, const uint64_t *m,
                     uint64_t minv, int k)
{
  uint64_t t[MONT_MAX_LIMBS + 2], d[MONT_MAX_LIMBS];
  memset(t, 0, (k + 2) * sizeof *t);
  for (int i = 0; i < k; i++) {
    u128 c = 0;
    for (int j = 0; j < k; j++) {
      c = (u128)a[j] * b[i] + t[j] + (uint64_t)(c >> 64);
      t[j] = (uint64_t)c;
    }
    c = (u128)t[k] + (uint64_t)(c >> 64);
    t[k] = (uint64_t)c;
    t[k + 1] = (uint64_t)(c >> 64);
    uint64_t q = t[0] * minv;
    c = (u128)q * m[0] + t[0];
    for (int j = 1; j < k; j++) {
      c = (u128)q * m[j] + t[j] + (uint64_t)(c >> 64);
      t[j - 1] = (uint64_t)c;
    }
    c = (u128)t[k] + (uint64_t)(c >> 64);
    t[k - 1] = (uint64_t)c;
    t[k] = t[k + 1] + (uint64_t)(c >> 64);
  }
  /* t < 2m: one conditional subtraction brings it under m. */
  uint64_t borrow = 0;
  for (int j = 0; j < k; j++) {
    u128 x = (u128)t[j] - m[j] - borrow;
    d[j] = (uint64_t)x;
    borrow = (uint64_t)(x >> 64) & 1;
  }
  memcpy(r, t[k] || !borrow ? d : t, k * sizeof *r);
}

/* [acc] := [acc]^e mod m, all little-endian: [m] and [r2] (R^2 mod m)
   are k limbs of 8 bytes, [acc] holds k limbs and starts as the base,
   already reduced below m; [e] is a nonzero exponent in bytes. Left to
   right over sliding windows of at most w bits that end in a set bit,
   so each names an odd power of the base: w = 1 up to 64-bit
   exponents (e = 65537 is sixteen squarings and one multiply), w = 5
   (16 odd powers) above. */
value avm_mont_pow(value vm, value vr2, value vacc, value ve)
{
  int k = caml_string_length(vm) / 8;
  const unsigned char *pe = (const unsigned char *)String_val(ve);
  intnat elen = caml_string_length(ve);
  uint64_t m[MONT_MAX_LIMBS], r2[MONT_MAX_LIMBS], acc[MONT_MAX_LIMBS];
  uint64_t odd[16][MONT_MAX_LIMBS], sq[MONT_MAX_LIMBS];
  for (int i = 0; i < k; i++) {
    m[i] = load_le64(Bytes_val(vm) + 8 * i);
    r2[i] = load_le64(Bytes_val(vr2) + 8 * i);
    acc[i] = load_le64(Bytes_val(vacc) + 8 * i);
  }
  /* -m^-1 mod 2^64 by Newton: m*m = 1 mod 8, and each step doubles
     the correct low bits (3, 6, ..., 96). */
  uint64_t inv = m[0];
  for (int i = 0; i < 5; i++) inv *= 2 - m[0] * inv;
  uint64_t minv = -inv;

  intnat nbits = 8 * elen;
  while (nbits > 0 && !(pe[(nbits - 1) / 8] >> ((nbits - 1) % 8) & 1)) nbits--;
#define BIT(i) (pe[(i) / 8] >> ((i) % 8) & 1)
  int w = nbits <= 64 ? 1 : 5;
  mont_mul(odd[0], acc, r2, m, minv, k);
  if (w > 1) {
    mont_mul(sq, odd[0], odd[0], m, minv, k);
    for (int j = 1; j < 16; j++) mont_mul(odd[j], odd[j - 1], sq, m, minv, k);
  }
  int started = 0;
  for (intnat i = nbits - 1; i >= 0;) {
    if (!BIT(i)) {
      mont_mul(acc, acc, acc, m, minv, k);
      i--;
      continue;
    }
    intnat j = i - w + 1 < 0 ? 0 : i - w + 1;
    while (!BIT(j)) j++;
    int v = 0;
    for (intnat b = i; b >= j; b--) {
      v = v << 1 | BIT(b);
      if (started) mont_mul(acc, acc, acc, m, minv, k);
    }
    if (started) mont_mul(acc, acc, odd[v >> 1], m, minv, k);
    else memcpy(acc, odd[v >> 1], k * sizeof *acc);
    started = 1;
    i = j - 1;
  }
#undef BIT
  /* Leave Montgomery form: REDC(acc * 1). */
  memset(sq, 0, k * sizeof *sq);
  sq[0] = 1;
  mont_mul(acc, acc, sq, m, minv, k);
  for (int i = 0; i < k; i++) store_le64(Bytes_val(vacc) + 8 * i, acc[i]);
  return Val_unit;
}
