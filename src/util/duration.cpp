#include "util/duration.h"

#include <cmath>

#include "util/strings.h"

namespace insomnia::util {

std::optional<double> parse_duration_seconds(std::string_view text,
                                             DurationUnit bare_unit) {
  std::string_view digits = trim(text);
  if (digits.empty()) return std::nullopt;
  double scale = bare_unit == DurationUnit::kMilliseconds ? 1e-3 : 1.0;
  // Longest suffix first: "ms" must win over a bare "s".
  if (digits.size() >= 2 && digits.substr(digits.size() - 2) == "ms") {
    digits.remove_suffix(2);
    scale = 1e-3;
  } else if (digits.back() == 's') {
    digits.remove_suffix(1);
    scale = 1.0;
  } else if (digits.back() == 'm') {
    digits.remove_suffix(1);
    scale = 60.0;
  } else if (digits.back() == 'h') {
    digits.remove_suffix(1);
    scale = 3600.0;
  }
  // parse_double trims, which would quietly accept "2 s"; the number must
  // abut its suffix. Non-finite "numbers" are not durations either, nor is
  // a finite one past the ceiling ("1e300s"), whose clock ticks would
  // overflow where a caller sleeps or waits on it.
  if (digits != trim(digits)) return std::nullopt;
  const auto value = parse_double(digits);
  if (!value.has_value() || !std::isfinite(*value) || *value < 0.0) return std::nullopt;
  const double seconds = *value * scale;
  if (!(seconds <= kMaxDurationSeconds)) return std::nullopt;
  return seconds;
}

const char* duration_grammar_help() {
  return "a non-negative number with an optional \"ms\", \"s\", \"m\" or \"h\" "
         "suffix, at most 365 days (e.g. \"500ms\", \"2s\", \"1m\")";
}

}  // namespace insomnia::util
