#ifndef P3GM_LINALG_TIER_H_
#define P3GM_LINALG_TIER_H_

#include "linalg/matrix.h"

namespace p3gm {
namespace linalg {
namespace internal {

/// Internal to p3gm_linalg and its tests. The register tiles the products
/// (Matmul, MatmulTransA, MatmulTransB, Syrk) can run on. Every tier keeps
/// the contract in ops.h bit for bit; a tier changes only the tile body
/// and the panel width, never the sequence of operations inside an
/// element.
enum class Tier {
  kPortable,  // 4 x 4 tile over 4-wide panels: SSE2 or NEON lane pairs.
  kAvx512,    // 8 x 8 tile over 8-wide panels: AVX-512F, x86-64 only.
};

const char* TierName(Tier tier);

/// True when this build has the tier and the CPU (and OS) can run it.
bool TierSupported(Tier tier);

/// The tier the public products run on: the widest supported one, chosen
/// once per process from CPUID.
Tier ActiveTier();

/// The products on a given tier, which must be supported. The public
/// functions in ops.h are these on ActiveTier(), inside a trace span.
Matrix Matmul(Tier tier, const Matrix& a, const Matrix& b);
Matrix MatmulTransA(Tier tier, const Matrix& a, const Matrix& b);
Matrix MatmulTransB(Tier tier, const Matrix& a, const Matrix& b);
Matrix Syrk(Tier tier, const Matrix& a);

}  // namespace internal
}  // namespace linalg
}  // namespace p3gm

#endif  // P3GM_LINALG_TIER_H_
