// One shared parser for human-written durations ("500ms", "2s", "1.5m",
// "1h"), replacing the ad-hoc per-site parsing that used to live in the
// fault-plan grammar and the heartbeat environment knob. Call sites differ
// in what a bare number means (the fault plan's `slow-shard=p:500` always
// meant milliseconds, INSOMNIA_HEARTBEAT seconds), so the bare-number unit
// is a parameter rather than a guess.
#pragma once

#include <optional>
#include <string_view>

namespace insomnia::util {

/// Unit applied to a bare number with no suffix.
enum class DurationUnit { kMilliseconds, kSeconds };

/// Longest duration the grammar accepts: 365 days. Every parsed duration
/// ends up as a clock's integer tick count (sleep_for, wait_for, a daemon's
/// wall budget), and int64 nanoseconds overflow past ~292 years; a year is
/// far inside that and far above any sane timeout or budget.
inline constexpr double kMaxDurationSeconds = 365.0 * 24.0 * 3600.0;

/// Parses `text` (after trimming) as a non-negative duration and returns it
/// in SECONDS. Accepted forms: a number with an optional "ms", "s", "m"
/// (minutes) or "h" suffix; a bare number takes `bare_unit`. Returns
/// nullopt on empty input, a negative value, trailing junk ("2sx"), an
/// unparseable or non-finite number, or one above kMaxDurationSeconds
/// ("1e300s", "1e307m") — callers turn that into their own clear error.
std::optional<double> parse_duration_seconds(
    std::string_view text, DurationUnit bare_unit = DurationUnit::kSeconds);

/// The grammar in one line, for error messages ("... e.g. \"500ms\", ...").
const char* duration_grammar_help();

}  // namespace insomnia::util
