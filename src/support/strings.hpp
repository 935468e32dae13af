// Small string/formatting helpers shared across modules.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace gpumip {

/// "12.0 KiB", "3.4 GiB", ... for reporting memory footprints.
std::string human_bytes(std::uint64_t bytes);

/// "1.23 ms", "4.5 s", ... for reporting simulated times (input seconds).
std::string human_seconds(double seconds);

/// Joins items with a separator.
std::string join(const std::vector<std::string>& items, const std::string& sep);

/// Splits on any whitespace, skipping empty tokens.
std::vector<std::string> split_ws(const std::string& line);

/// Trims ASCII whitespace from both ends.
std::string trim(const std::string& s);

/// True if `s` starts with `prefix`.
bool starts_with(const std::string& s, const std::string& prefix);

/// Uppercases ASCII in place and returns a copy.
std::string to_upper(std::string s);

/// `s` as the body of a JSON string literal: `"` and `\` get a backslash,
/// control bytes become \u00XX.
std::string json_escape(std::string_view s);

/// Shortest round-trippable representation of a double, JSON-safe: `%.17g`
/// (which may print "1e+06" etc. — all valid JSON numbers), and 0 for a
/// non-finite value (instruments only ever hold finite values; the
/// exporters clamp just in case).
std::string json_number(double v);

/// Writes `body` to `path` (truncating), flushed. Throws Error(kIoError)
/// whose message starts with "<what>: " on any failure.
void write_export(const std::string& path, std::string_view body, std::string_view what);

}  // namespace gpumip
