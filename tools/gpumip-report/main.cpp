// gpumip-report CLI — the one reader of the observability exports
// (scripts/check.sh gates 8 and 9, scripts/bench.sh --compare).
//
//   gpumip-report --self-check [--trace TRACE.json]
//   gpumip-report --compare BASE.json CURRENT.json
//   gpumip-report --attribute BASE.json CURRENT.json [--expect-top CATEGORY]
//   gpumip-report --metrics RUN.json [--timeseries TS.json] [--trace TRACE.json]
//   gpumip-report --trace TRACE.json
//
// --self-check runs the known-answer fixtures of both engines: the report
// engine's (parsing, category mapping, exclusion list, compare, the
// embedded doubled-H2D drill) and the trace analyzer's. With --trace it
// also requires that trace to be non-trivial (matched flows, >= 2 ranks,
// a cross-rank critical path); gate 9 runs this on the committed fixture.
//
// --compare and --attribute load two runs (bench-baseline documents from
// scripts/bench.sh or raw metrics exports). --compare judges whether
// CURRENT regressed against BASE within the per-family tolerances
// (report.hpp) and, on a regression, also prints the attribution.
// --attribute prints which claim categories explain the delta, ranked;
// with --expect-top it exits 1 unless the top-ranked category matches.
//
// --metrics builds a single-run profile, optionally merging a time-series
// export and a trace-event timeline. --trace alone prints the timeline
// analysis (critical path, per-rank busy/blocked/idle, device-lane
// overlap, cut latency).
//
// Exit status: 0 clean, 1 regression / failed self-check / trivial trace
// under --self-check / unexpected top category, 2 usage/IO/parse error.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "report.hpp"

namespace {

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

/// Reads and parses one document; "" on success, else the error to report.
template <typename Doc, typename Parse>
std::string load(const std::string& path, Doc& out, Parse parse) {
  std::string text;
  if (!read_file(path, text)) return "cannot read " + path;
  std::string error;
  if (!parse(text, out, error)) return path + ": " + error;
  return "";
}

/// Both documents of a two-run mode, BASE first.
std::string load_pair(const std::vector<std::string>& paths, gpumip::reporttool::BenchDoc& base,
                      gpumip::reporttool::BenchDoc& current) {
  std::string error = load(paths[0], base, gpumip::reporttool::parse_run);
  return error.empty() ? load(paths[1], current, gpumip::reporttool::parse_run) : error;
}

int usage_error(const std::string& what) {
  std::cerr << "gpumip-report: " << what << " (see --help)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gpumip::reporttool;
  namespace tracetool = gpumip::tracetool;

  bool self_check = false;
  std::vector<std::string> compare_paths;
  std::vector<std::string> attribute_paths;
  std::string expect_top;
  std::string metrics_path;
  std::string timeseries_path;
  std::string trace_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "gpumip-report: " << arg << " needs " << what << "\n";
        return nullptr;
      }
      return argv[++i];
    };
    auto take = [&](std::string& out, const char* what) {
      const char* value = next(what);
      if (value != nullptr) out = value;
      return value != nullptr;
    };
    auto run_pair = [&](std::vector<std::string>& paths) {
      paths.resize(2);
      return take(paths[0], "BASE.json CURRENT.json") && take(paths[1], "CURRENT.json");
    };
    if (arg == "--self-check") {
      self_check = true;
    } else if (arg == "--compare") {
      if (!run_pair(compare_paths)) return 2;
    } else if (arg == "--attribute") {
      if (!run_pair(attribute_paths)) return 2;
    } else if (arg == "--expect-top") {
      if (!take(expect_top, "a category id")) return 2;
    } else if (arg == "--metrics") {
      if (!take(metrics_path, "a metrics/bench-baseline JSON path")) return 2;
    } else if (arg == "--timeseries") {
      if (!take(timeseries_path, "a gpumip.timeseries.v1 JSON path")) return 2;
    } else if (arg == "--trace") {
      if (!take(trace_path, "a trace-event JSON path")) return 2;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: gpumip-report --self-check [--trace TRACE.json]\n"
                   "       gpumip-report --compare BASE.json CURRENT.json\n"
                   "       gpumip-report --attribute BASE.json CURRENT.json"
                   " [--expect-top CATEGORY]\n"
                   "       gpumip-report --metrics RUN.json [--timeseries TS.json]"
                   " [--trace TRACE.json]\n"
                   "       gpumip-report --trace TRACE.json\n";
      return 0;
    } else {
      return usage_error("unknown argument " + arg);
    }
  }
  if (!expect_top.empty() && attribute_paths.empty()) {
    return usage_error("--expect-top requires --attribute");
  }
  if (!timeseries_path.empty() && metrics_path.empty()) {
    return usage_error("--timeseries requires --metrics");
  }
  if (!self_check && compare_paths.empty() && attribute_paths.empty() &&
      metrics_path.empty() && trace_path.empty()) {
    return usage_error("nothing to do");
  }

  bool ok = true;
  if (self_check) {
    std::cout << "==> gpumip-report self-check (known-answer fixtures)\n";
    ok = run_self_check(std::cout);
    std::cout << "==> trace analyzer self-check (known-answer fixtures)\n";
    ok = tracetool::run_self_check(std::cout) && ok;
  }

  if (!compare_paths.empty()) {
    BenchDoc base;
    BenchDoc current;
    if (std::string e = load_pair(compare_paths, base, current); !e.empty()) return usage_error(e);
    const Comparison verdict = compare(base, current);
    for (const std::string& line : verdict.warnings) std::cout << "    warning: " << line << "\n";
    if (verdict.failures.empty()) {
      std::cout << "    bench compare: " << verdict.compared << " metrics within tolerance ("
                << verdict.warnings.size() << " warning(s))\n";
    } else {
      std::cerr << "bench compare: " << verdict.failures.size() << " regression(s) ("
                << verdict.compared << " metrics compared):\n";
      for (const std::string& line : verdict.failures) std::cerr << "  " << line << "\n";
      // Say WHICH paper-claim category moved, not just that one did.
      std::cout << format_attribution(attribute(base, current));
      ok = false;
    }
  }

  if (!attribute_paths.empty()) {
    BenchDoc base;
    BenchDoc current;
    if (std::string e = load_pair(attribute_paths, base, current); !e.empty()) {
      return usage_error(e);
    }
    const Attribution attribution = attribute(base, current);
    std::cout << "==> " << attribute_paths[0] << " vs " << attribute_paths[1] << "\n"
              << format_attribution(attribution);
    if (!expect_top.empty()) {
      const bool match =
          !attribution.ranked.empty() && attribution.ranked.front().category == expect_top;
      std::cout << "  [" << (match ? "PASS" : "FAIL") << "] top-ranked category is "
                << expect_top << "\n";
      if (!match) ok = false;
    }
  }

  tracetool::Trace trace;
  if (!trace_path.empty()) {
    if (std::string e = load(trace_path, trace, tracetool::parse_trace); !e.empty()) {
      return usage_error(e);
    }
  }
  tracetool::Report timeline;
  if (!metrics_path.empty()) {
    BenchDoc run;
    if (std::string e = load(metrics_path, run, parse_run); !e.empty()) return usage_error(e);
    TimeSeries series;
    if (!timeseries_path.empty()) {
      if (std::string e = load(timeseries_path, series, parse_timeseries); !e.empty()) {
        return usage_error(e);
      }
    }
    const Profile profile = build_profile(run, trace_path.empty() ? nullptr : &trace,
                                          timeseries_path.empty() ? nullptr : &series);
    std::cout << "==> " << metrics_path << "\n" << format_profile(profile);
    timeline = profile.trace;
  } else if (!trace_path.empty()) {
    timeline = tracetool::analyze(trace);
    std::cout << "==> " << trace_path << "\n" << tracetool::format_report(timeline);
  }
  if (self_check && !trace_path.empty()) {
    const std::string verdict = tracetool::verify_nontrivial(timeline);
    std::cout << "  [" << (verdict.empty() ? "PASS" : "FAIL") << "] "
              << (verdict.empty() ? "trace is non-trivial" : verdict) << "\n";
    if (!verdict.empty()) ok = false;
  }
  return ok ? 0 : 1;
}
