/* The SHA-256 compression function on the x86-64 SHA extensions
   (sha256rnds2, sha256msg1, sha256msg2), and the CPUID check that tells
   whether this CPU has them. Sha256 calls the compression only when the
   check said yes, and only on a range it has checked itself.

   The SHA code is compiled for its own target only, so the file builds
   with the default flags for any x86-64 CPU. On any other architecture
   the check is false and the compression is never called. */

#include <stdint.h>
#include <caml/mlvalues.h>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SHA_EXTENSIONS_BUILT 1
#else
#define SHA_EXTENSIONS_BUILT 0
#endif

#if SHA_EXTENSIONS_BUILT

#include <cpuid.h>
#include <immintrin.h>

/* CPUID leaf 1: SSSE3 (pshufb, palignr) and SSE4.1 (pextrd) in ECX;
   leaf 7, subleaf 0: SHA in EBX. */
static int sha_extensions_present(void)
{
  unsigned int a, b, c, d;
  if (!__get_cpuid(1, &a, &b, &c, &d)) return 0;
  if (!(c & bit_SSSE3) || !(c & bit_SSE4_1)) return 0;
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return 0;
  return (b & bit_SHA) != 0;
}

/* FIPS 180-4's round constants, four to a vector. */
static const uint32_t k256[64] __attribute__((aligned(16))) = {
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
  0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2
};

#define SHA_TARGET __attribute__((target("sha,ssse3,sse4.1")))

/* Four rounds on W(t..t+3) in [w]: sha256rnds2 takes the working words
   as ABEF and CDGH and does two rounds on the low two lanes of W + K. */
#define ROUNDS4(w, t)                                                    \
  do {                                                                   \
    __m128i wk_ =                                                        \
        _mm_add_epi32((w), _mm_load_si128((const __m128i *)&k256[t]));   \
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk_);                       \
    abef = _mm_sha256rnds2_epu32(abef, cdgh,                             \
                                 _mm_shuffle_epi32(wk_, 0x0e));          \
  } while (0)

/* W(t..t+3) from the sixteen words before it, W(t-16..t-1), held four
   to a vector in w16, w12, w8 and w4: sha256msg1 adds σ0, the byte
   alignment picks out W(t-7..t-4), and sha256msg2 adds σ1 of the words
   two back, two of which it computes itself. */
static inline SHA_TARGET __m128i next4(__m128i w16, __m128i w12,
                                      __m128i w8, __m128i w4)
{
  __m128i x = _mm_sha256msg1_epu32(w16, w12);
  x = _mm_add_epi32(x, _mm_alignr_epi8(w4, w8, 4));
  return _mm_sha256msg2_epu32(x, w4);
}

/* [h] := the compression of chaining value [h] with the 64 bytes at
   [block]. */
static SHA_TARGET void compress_sha_ext(uint32_t h[8],
                                        const unsigned char *block)
{
  /* Swaps the bytes of each 32-bit lane: the block is big-endian. */
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  const __m128i abef0 = _mm_set_epi32(h[0], h[1], h[4], h[5]);
  const __m128i cdgh0 = _mm_set_epi32(h[2], h[3], h[6], h[7]);
  __m128i abef = abef0, cdgh = cdgh0;
  __m128i w0 = _mm_shuffle_epi8(
      _mm_loadu_si128((const __m128i *)(block + 0)), bswap);
  __m128i w1 = _mm_shuffle_epi8(
      _mm_loadu_si128((const __m128i *)(block + 16)), bswap);
  __m128i w2 = _mm_shuffle_epi8(
      _mm_loadu_si128((const __m128i *)(block + 32)), bswap);
  __m128i w3 = _mm_shuffle_epi8(
      _mm_loadu_si128((const __m128i *)(block + 48)), bswap);
  int t;
  ROUNDS4(w0, 0);
  ROUNDS4(w1, 4);
  ROUNDS4(w2, 8);
  ROUNDS4(w3, 12);
  for (t = 16; t < 64; t += 16) {
    w0 = next4(w0, w1, w2, w3);
    ROUNDS4(w0, t);
    w1 = next4(w1, w2, w3, w0);
    ROUNDS4(w1, t + 4);
    w2 = next4(w2, w3, w0, w1);
    ROUNDS4(w2, t + 8);
    w3 = next4(w3, w0, w1, w2);
    ROUNDS4(w3, t + 12);
  }
  abef = _mm_add_epi32(abef, abef0);
  cdgh = _mm_add_epi32(cdgh, cdgh0);
  h[0] = (uint32_t)_mm_extract_epi32(abef, 3);
  h[1] = (uint32_t)_mm_extract_epi32(abef, 2);
  h[2] = (uint32_t)_mm_extract_epi32(cdgh, 3);
  h[3] = (uint32_t)_mm_extract_epi32(cdgh, 2);
  h[4] = (uint32_t)_mm_extract_epi32(abef, 1);
  h[5] = (uint32_t)_mm_extract_epi32(abef, 0);
  h[6] = (uint32_t)_mm_extract_epi32(cdgh, 1);
  h[7] = (uint32_t)_mm_extract_epi32(cdgh, 0);
}

#endif

/* Sha256.sha_extensions : unit -> bool, called once at initialisation. */
value ba_sha256_sha_extensions(value unit)
{
  (void)unit;
#if SHA_EXTENSIONS_BUILT
  return Val_bool(sha_extensions_present());
#else
  return Val_false;
#endif
}

/* Sha256's [compress st from src base]: [st] and [from] are int arrays
   of eight 32-bit words, and [base, base + 64) lies within [src]. Every
   word of [from] is read before any of [st] is written, so [st] may be
   [from]. The words written back are immediates, so no write barrier is
   needed, and nothing is allocated. */
value ba_sha256_compress(value st, value from, value src, value base)
{
#if SHA_EXTENSIONS_BUILT
  uint32_t h[8];
  int i;
  for (i = 0; i < 8; i++) h[i] = (uint32_t)Long_val(Field(from, i));
  compress_sha_ext(h, (const unsigned char *)Bytes_val(src) + Long_val(base));
  for (i = 0; i < 8; i++) Field(st, i) = Val_long(h[i]);
#else
  (void)st; (void)from; (void)src; (void)base;
#endif
  return Val_unit;
}
