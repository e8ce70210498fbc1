#include "crypto/x25519.hpp"

#include "crypto/fe25519.hpp"
#include "crypto/ge25519.hpp"

namespace sos::crypto {

X25519Key x25519_clamp(X25519Key scalar) {
  scalar[0] &= 248;
  scalar[31] &= 127;
  scalar[31] |= 64;
  return scalar;
}

X25519Key x25519(const X25519Key& scalar, const X25519Key& point) {
  X25519Key k = x25519_clamp(scalar);
  Fe x1 = fe_frombytes(point.data());
  Fe x2 = kFeOne, z2 = kFeZero;
  Fe x3 = x1, z3 = kFeOne;
  std::uint64_t swap = 0;

  for (int t = 254; t >= 0; --t) {
    std::uint64_t k_t = (k[t / 8] >> (t % 8)) & 1;
    swap ^= k_t;
    fe_cswap(x2, x3, swap);
    fe_cswap(z2, z3, swap);
    swap = k_t;

    Fe a = fe_add(x2, z2);
    Fe aa = fe_sq(a);
    Fe b = fe_sub(x2, z2);
    Fe bb = fe_sq(b);
    Fe e = fe_sub(aa, bb);
    Fe c = fe_add(x3, z3);
    Fe d = fe_sub(x3, z3);
    Fe da = fe_mul(d, a);
    Fe cb = fe_mul(c, b);
    Fe t0 = fe_add(da, cb);
    x3 = fe_sq(t0);
    Fe t1 = fe_sub(da, cb);
    z3 = fe_mul(x1, fe_sq(t1));
    x2 = fe_mul(aa, bb);
    Fe t2 = fe_add(bb, fe_mul121666(e));
    z2 = fe_mul(e, t2);
  }
  fe_cswap(x2, x3, swap);
  fe_cswap(z2, z3, swap);

  Fe out = fe_mul(x2, fe_invert(z2));
  X25519Key result;
  fe_tobytes(result.data(), out);
  return result;
}

X25519Key x25519_base(const X25519Key& scalar) {
  // u = 9 is the image of the Ed25519 base point under the birational map
  // u = (1 + y) / (1 - y) = (Z + Y) / (Z - Y). A clamped scalar is a nonzero
  // multiple of 8 below 2^255 and so never a multiple of the group order:
  // [k]B is never the identity and Z - Y never vanishes.
  const X25519Key k = x25519_clamp(scalar);
  const GeP3 p = ge_scalarmult_base(k.data());
  const Fe u = fe_mul(fe_add(p.Z, p.Y), fe_invert(fe_sub(p.Z, p.Y)));
  X25519Key result;
  fe_tobytes(result.data(), u);
  return result;
}

bool x25519_is_zero(const X25519Key& shared) {
  static constexpr X25519Key kZero{};
  return util::ct_equal(shared, kZero);
}

}  // namespace sos::crypto
