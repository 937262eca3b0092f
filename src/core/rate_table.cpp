#include "core/rate_table.h"

#include <cmath>
#include <stdexcept>
#include <string>

namespace mrca {

RateTable::RateTable(const RateFunction& fn, RadioCount max_load)
    : fn_(&fn), max_load_(max_load) {
  if (max_load < 0) {
    throw std::invalid_argument("RateTable: max_load must be >= 0");
  }
  const auto size = static_cast<std::size_t>(max_load) + 1;
  rates_.resize(size, 0.0);
  per_radio_.resize(size, 0.0);
  for (RadioCount k = 1; k <= max_load; ++k) {
    const auto i = static_cast<std::size_t>(k);
    rates_[i] = fn.rate(k);
    if (!std::isfinite(rates_[i])) {
      throw std::invalid_argument("RateTable: rate at load " +
                                  std::to_string(k) + " is not finite");
    }
    per_radio_[i] = rates_[i] / static_cast<double>(k);
  }
}

}  // namespace mrca
