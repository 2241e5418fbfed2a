// Compile-time row counts for register-blocked kernels.

#ifndef FATS_UTIL_WITH_ROWS_H_
#define FATS_UTIL_WITH_ROWS_H_

#include <cstdint>
#include <type_traits>

namespace fats {

/// Calls fn(std::integral_constant<int, rows>{}) for rows in [1, kMax]
/// (a count below 1 calls it with 1). A kernel that takes its row count as
/// a template argument keeps its accumulator array in registers; with a
/// runtime count GCC keeps the array on the stack and pays a load and a
/// store per row per step.
template <int kMax, typename Fn>
void WithRows(int64_t rows, Fn&& fn) {
  static_assert(kMax >= 1, "at least one row");
  if constexpr (kMax > 1) {
    if (rows < kMax) {
      WithRows<kMax - 1>(rows, fn);
      return;
    }
  }
  fn(std::integral_constant<int, kMax>{});
}

}  // namespace fats

#endif  // FATS_UTIL_WITH_ROWS_H_
