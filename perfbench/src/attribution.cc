#include "attribution.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>

namespace perfbench {

void OutputLog::Prepare(size_t bytes, size_t batches) {
  bytes_.resize(bytes);  // value-initialising touches every page once
  bytes_.clear();
  arrivals_.reserve(batches);
}

void OutputLog::Clear() {
  bytes_.clear();
  arrivals_.clear();
}

void OutputLog::Append(const uint8_t* data, size_t len, int64_t arrival_nanos) {
  bytes_.insert(bytes_.end(), data, data + len);
  arrivals_.push_back({bytes_.size(), arrival_nanos});
}

int64_t CountRowErrors(const uint8_t* actual, size_t actual_bytes,
                       const uint8_t* expected, size_t expected_bytes,
                       size_t row_size) {
  const size_t na = actual_bytes / row_size;
  const size_t ne = expected_bytes / row_size;
  int64_t errors = static_cast<int64_t>(std::max(na, ne) - std::min(na, ne));
  if (actual_bytes % row_size != 0) ++errors;
  const size_t common = std::min(na, ne);
  for (size_t i = 0; i < common; ++i) {
    if (std::memcmp(actual + i * row_size, expected + i * row_size,
                    row_size) != 0) {
      ++errors;
    }
  }
  return errors;
}

void DueSchedule::Add(int64_t ts, int64_t due_nanos) {
  if (!entries_.empty() && entries_.back().first == ts) {
    entries_.back().second = std::max(entries_.back().second, due_nanos);
    return;
  }
  entries_.emplace_back(ts, due_nanos);
}

void DueSchedule::Seal() {
  std::sort(entries_.begin(), entries_.end());
  std::vector<std::pair<int64_t, int64_t>> sealed;
  for (const auto& [ts, due] : entries_) {
    if (!sealed.empty() && sealed.back().first == ts) {
      sealed.back().second = std::max(sealed.back().second, due);
    } else {
      sealed.emplace_back(ts, sealed.empty()
                                  ? due
                                  : std::max(sealed.back().second, due));
    }
  }
  entries_ = std::move(sealed);
}

bool DueSchedule::LatestDueAtOrBefore(int64_t ts, int64_t* due) const {
  const auto it = std::upper_bound(
      entries_.begin(), entries_.end(), ts,
      [](int64_t t, const std::pair<int64_t, int64_t>& e) { return t < e.first; });
  if (it == entries_.begin()) return false;
  *due = std::prev(it)->second;
  return true;
}

int64_t DueOffsetNanos(size_t tuples_created, double tuples_per_sec) {
  return static_cast<int64_t>(static_cast<double>(tuples_created) * 1e9 /
                              tuples_per_sec);
}

std::vector<double> RowLatenciesMs(const OutputLog& log, size_t row_size,
                                   const DueSchedule& due, int64_t start_nanos) {
  std::vector<double> out;
  out.reserve(log.bytes().size() / row_size);
  const uint8_t* rows = log.bytes().data();
  size_t begin = 0;
  for (const OutputLog::Arrival& a : log.arrivals()) {
    const int64_t arrival = a.nanos - start_nanos;
    for (size_t off = begin; off + row_size <= a.end_offset; off += row_size) {
      int64_t ts;
      std::memcpy(&ts, rows + off, sizeof(ts));
      int64_t d;
      if (due.LatestDueAtOrBefore(ts, &d)) {
        out.push_back(static_cast<double>(arrival - d) / 1e6);
      }
    }
    begin = a.end_offset;
  }
  return out;
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const auto lo_it = v.begin() + static_cast<ptrdiff_t>(lo);
  std::nth_element(v.begin(), lo_it, v.end());
  const double lo_v = *lo_it;
  const double hi_v =
      lo + 1 < v.size() ? *std::min_element(lo_it + 1, v.end()) : lo_v;
  return lo_v + (hi_v - lo_v) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double Slope(const std::vector<double>& x, const std::vector<double>& y) {
  const size_t n = std::min(x.size(), y.size());
  if (n < 2) return 0.0;
  double mx = 0, my = 0;
  for (size_t i = 0; i < n; ++i) {
    mx += x[i];
    my += y[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxy = 0, sxx = 0;
  for (size_t i = 0; i < n; ++i) {
    sxy += (x[i] - mx) * (y[i] - my);
    sxx += (x[i] - mx) * (x[i] - mx);
  }
  return sxx > 0 ? sxy / sxx : 0.0;
}

}  // namespace perfbench
