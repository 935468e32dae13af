#include <algorithm>
#include <fstream>

#include "bench.hpp"
#include "obs/metrics.hpp"
#include "support/error.hpp"

namespace perfbench {

int SpanLog::open(const std::string& name, long op) {
  Span s;
  s.name = name;
  s.op = op;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.start = now_s();
  spans_.push_back(std::move(s));
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void SpanLog::close(int index) {
  spans_[static_cast<std::size_t>(index)].end = now_s();
  // Spans close in LIFO order (Scope is the only opener).
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

std::map<std::string, std::pair<double, double>> SpanLog::totals() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  }
  std::map<std::string, std::pair<double, double>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double d = spans_[i].end - spans_[i].start;
    auto& slot = out[spans_[i].name];
    slot.first += d;
    slot.second += std::max(0.0, d - child[i]);
  }
  return out;
}

void SpanLog::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw gpumip::Error(gpumip::ErrorCode::kIoError, "perfbench: cannot write " + path);
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
  out << "{\"schema\":\"perfbench.spans.v1\",\"spans\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"op\":" << s.op
        << ",\"parent\":" << s.parent << ",\"start_s\":" << (s.start - t0)
        << ",\"dur_s\":" << (s.end - s.start) << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

RegistryReading RegistryReading::take() {
  const auto& reg = gpumip::obs::Registry::instance();
  RegistryReading r;
  for (const std::string& name : reg.counter_names()) {
    if (const auto* c = reg.find_counter(name)) r.values[name] = static_cast<double>(c->value());
  }
  for (const std::string& name : reg.histogram_names()) {
    if (const auto* h = reg.find_histogram(name)) {
      r.values[name + "#count"] = static_cast<double>(h->count());
      r.values[name + "#sum"] = h->sum();
    }
  }
  return r;
}

std::map<std::string, double> RegistryReading::minus(const RegistryReading& before) const {
  std::map<std::string, double> out;
  for (const auto& [name, v] : values) {
    const auto it = before.values.find(name);
    out[name] = v - (it == before.values.end() ? 0.0 : it->second);
  }
  return out;
}

}  // namespace perfbench
