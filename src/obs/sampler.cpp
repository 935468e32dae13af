#include "obs/sampler.hpp"

#include <cmath>
#include <cstdlib>
#include <sstream>

#include "obs/obs.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace gpumip::obs {

namespace {

thread_local Sampler* g_bound_sampler = nullptr;

const char* kind_name(ColumnKind kind) {
  switch (kind) {
    case ColumnKind::Counter: return "counter";
    case ColumnKind::Gauge: return "gauge";
    case ColumnKind::HistCount: return "hist_count";
    case ColumnKind::HistSum: return "hist_sum";
  }
  return "counter";
}

bool solver_metric(const std::string& name) { return name.rfind("gpumip.", 0) == 0; }

}  // namespace

Sampler::Sampler(SamplerOptions options) : options_(std::move(options)) {
  check_arg(options_.period > 0.0, "sampler: period must be positive");
  const Registry& reg = Registry::instance();
  if (options_.columns.empty()) {
    // Registry-wide default: every solver instrument registered so far.
    // Instruments registered *after* construction are not picked up —
    // construct the sampler after a warmup pass (the benches do).
    for (const std::string& name : reg.counter_names()) {
      if (solver_metric(name)) columns_.push_back({name, ColumnKind::Counter});
    }
    for (const std::string& name : reg.gauge_names()) {
      if (solver_metric(name)) columns_.push_back({name, ColumnKind::Gauge});
    }
    for (const std::string& name : reg.histogram_names()) {
      if (!solver_metric(name)) continue;
      columns_.push_back({name, ColumnKind::HistCount});
      columns_.push_back({name, ColumnKind::HistSum});
    }
  } else {
    // Explicit columns: kind resolved by probing the registry (counter,
    // then gauge, then histogram — a histogram name becomes two columns).
    for (const std::string& name : options_.columns) {
      if (reg.find_gauge(name) != nullptr && reg.find_counter(name) == nullptr) {
        columns_.push_back({name, ColumnKind::Gauge});
      } else if (reg.find_histogram(name) != nullptr && reg.find_counter(name) == nullptr) {
        columns_.push_back({name, ColumnKind::HistCount});
        columns_.push_back({name, ColumnKind::HistSum});
      } else {
        columns_.push_back({name, ColumnKind::Counter});
      }
    }
  }
  snapshot_baseline();
}

double Sampler::read_column(std::size_t i) const {
  const Registry& reg = Registry::instance();
  const SamplerColumn& col = columns_[i];
  switch (col.kind) {
    case ColumnKind::Counter: {
      const Counter* c = reg.find_counter(col.name);
      return c == nullptr ? 0.0 : static_cast<double>(c->value());
    }
    case ColumnKind::Gauge: {
      const Gauge* g = reg.find_gauge(col.name);
      return g == nullptr ? 0.0 : g->value();
    }
    case ColumnKind::HistCount: {
      const Histogram* h = reg.find_histogram(col.name);
      return h == nullptr ? 0.0 : static_cast<double>(h->count());
    }
    case ColumnKind::HistSum: {
      const Histogram* h = reg.find_histogram(col.name);
      return h == nullptr ? 0.0 : h->sum();
    }
  }
  return 0.0;
}

void Sampler::snapshot_baseline() {
  baseline_.resize(columns_.size());
  for (std::size_t i = 0; i < columns_.size(); ++i) baseline_[i] = read_column(i);
}

void Sampler::sample_now(double ts) {
  if (rows_.size() >= options_.max_samples) {
    ++dropped_;
    GPUMIP_OBS_COUNT("gpumip.obs.sampler.dropped");
    return;
  }
  SampleRow row;
  row.ts = ts;
  row.values.resize(columns_.size());
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    const double cur = read_column(i);
    // Gauges are level quantities; everything else is reported as the
    // delta since the previous row.
    row.values[i] = columns_[i].kind == ColumnKind::Gauge ? cur : cur - baseline_[i];
    baseline_[i] = cur;
  }
  rows_.push_back(std::move(row));
  GPUMIP_OBS_COUNT("gpumip.obs.sampler.samples");
}

void Sampler::tick_sim(double sim_now) {
  if (!sim_started_) {
    // First tick anchors the boundary grid at period multiples at or
    // after the current sim time; no row yet (nothing elapsed).
    sim_started_ = true;
    next_due_ = (std::floor(sim_now / options_.period) + 1.0) * options_.period;
    return;
  }
  if (sim_now < next_due_) return;
  // Coalesce: one row stamped at the last boundary this tick crossed.
  const double crossed = std::floor((sim_now - next_due_) / options_.period);
  const double stamp = next_due_ + crossed * options_.period;
  sample_now(stamp);
  next_due_ = stamp + options_.period;
}

std::string Sampler::to_json() const {
  std::ostringstream out;
  out << "{\n  \"schema\": \"gpumip.timeseries.v1\",\n";
  out << "  \"period\": " << json_number(options_.period) << ",\n";
  out << "  \"dropped\": " << dropped_ << ",\n";

  out << "  \"columns\": [";
  bool first = true;
  for (const SamplerColumn& col : columns_) {
    out << (first ? "\n" : ",\n") << "    {\"name\": \"" << json_escape(col.name)
        << "\", \"kind\": \"" << kind_name(col.kind) << "\"}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "],\n";

  out << "  \"rows\": [";
  first = true;
  for (const SampleRow& row : rows_) {
    out << (first ? "\n" : ",\n") << "    {\"ts\": " << json_number(row.ts)
        << ", \"sim\": true, \"values\": [";
    for (std::size_t i = 0; i < row.values.size(); ++i) {
      if (i != 0) out << ", ";
      out << json_number(row.values[i]);
    }
    out << "]}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "]\n}\n";
  return out.str();
}

void Sampler::export_json(const std::string& path) const {
  write_export(path, to_json(), "timeseries export");
}

std::string Sampler::export_if_requested() const {
  const char* path = std::getenv("GPUMIP_TIMESERIES_OUT");
  if (path == nullptr || *path == '\0') return "";
  export_json(path);
  return path;
}

Sampler::Bind::Bind(Sampler& sampler) noexcept : previous_(g_bound_sampler) {
  g_bound_sampler = &sampler;
}

Sampler::Bind::~Bind() { g_bound_sampler = previous_; }

Sampler* Sampler::bound() noexcept { return g_bound_sampler; }

void Sampler::tick_bound(double sim_now) {
  if (g_bound_sampler != nullptr) g_bound_sampler->tick_sim(sim_now);
}

}  // namespace gpumip::obs
