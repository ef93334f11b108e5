#ifndef O2PC_COMMON_FNV_H_
#define O2PC_COMMON_FNV_H_

#include <cstdint>

/// \file
/// FNV-1a 64-bit, the hash behind every journal and sweep fingerprint:
/// start from kFnvOffsetBasis and fold each byte as
/// `hash = (hash ^ byte) * kFnvPrime`.

namespace o2pc {

inline constexpr std::uint64_t kFnvOffsetBasis = 14695981039346656037ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

}  // namespace o2pc

#endif  // O2PC_COMMON_FNV_H_
