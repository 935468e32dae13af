#include <algorithm>
#include <cmath>

#include "bench.hpp"

namespace perfbench {

namespace {

constexpr int kRows = 40000;  ///< a 40000 x 40000 sparse matrix, 8 entries a row
constexpr int kPerRow = 8;
constexpr int kKeys = 20000;
constexpr int kPasses = 6;

}  // namespace

SpeedProbe::SpeedProbe()
    : col_(kRows * kPerRow), val_(kRows * kPerRow), x_(kRows, 1.0), y_(kRows), keys_(kKeys) {
  std::uint64_t z = 12345;  // a fixed LCG: the same inputs on every run
  auto next = [&z]() {
    z = z * 6364136223846793005ull + 1442695040888963407ull;
    return z >> 33;
  };
  for (int i = 0; i < kRows * kPerRow; ++i) {
    col_[static_cast<std::size_t>(i)] = static_cast<int>(next() % kRows);
    val_[static_cast<std::size_t>(i)] = static_cast<double>(next() % 1000) / 1000.0 - 0.5;
  }
  for (double& k : keys_) k = static_cast<double>(next() % 100000);
}

double SpeedProbe::pass(int index) {
  // Power iteration on the sparse matrix: indirect loads, as in an SpMV.
  double norm = 0.0;
  for (std::size_t i = 0; i < y_.size(); ++i) {
    double s = 0.0;
    for (std::size_t j = i * kPerRow; j < (i + 1) * kPerRow; ++j) {
      s += val_[j] * x_[static_cast<std::size_t>(col_[j])];
    }
    y_[i] = s;
    norm += s * s;
  }
  norm = std::sqrt(norm) + 1e-9;
  for (std::size_t i = 0; i < x_.size(); ++i) x_[i] = y_[i] / norm + 1e-3;
  // A sort: branches and data movement.
  sorted_ = keys_;
  std::sort(sorted_.begin(), sorted_.end());
  return sorted_[static_cast<std::size_t>(index)] + x_[0];
}

double SpeedProbe::run() {
  // One untimed pass first, so the timed passes find the probe's data in
  // cache whatever the last op left there: an op's memory footprint must
  // not move the probe.
  double acc = pass(0);
  const double t0 = now_s();
  for (int i = 1; i <= kPasses; ++i) acc += pass(i);
  sink_ = acc;
  return now_s() - t0;
}

}  // namespace perfbench
