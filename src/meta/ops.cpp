#include "meta/ops.hpp"

#include <algorithm>
#include <cassert>

namespace cdd::meta {

void OnePointCrossover(std::span<const JobId> p1, std::span<const JobId> p2,
                       std::size_t cut, std::span<JobId> child,
                       std::span<std::uint8_t> used) {
  TwoPointCrossover(p1, p2, 0, cut, child, used);
}

void TwoPointCrossover(std::span<const JobId> p1, std::span<const JobId> p2,
                       std::size_t a, std::size_t b, std::span<JobId> child,
                       std::span<std::uint8_t> used) {
  const std::size_t n = p1.size();
  assert(p2.size() == n && child.size() == n && used.size() >= n);
  assert(a <= b && b <= n);
  std::fill_n(used.begin(), n, std::uint8_t{0});
  for (std::size_t k = a; k < b; ++k) {
    child[k] = p1[k];
    used[static_cast<std::size_t>(p1[k])] = 1;
  }
  // The n - (b - a) unmarked jobs of p2, in order, fill [0, a) then [b, n).
  const JobId* donor = p2.data();
  const auto fill = [&](std::size_t from, std::size_t to) {
    for (std::size_t k = from; k < to; ++donor) {
      if (!used[static_cast<std::size_t>(*donor)]) child[k++] = *donor;
    }
  };
  fill(0, a);
  fill(b, n);
}

}  // namespace cdd::meta
