#ifndef RESCQ_UTIL_STRING_UTIL_H_
#define RESCQ_UTIL_STRING_UTIL_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "util/function_ref.h"

namespace rescq {

/// Splits `s` on `sep`, keeping empty pieces.
std::vector<std::string> Split(std::string_view s, char sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// Joins `pieces` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& pieces,
                 std::string_view sep);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// Splits "verb rest-of-line" at the first space or tab; *rest is
/// trimmed and may be empty.
void SplitVerb(std::string_view line, std::string_view* verb,
               std::string_view* rest);

/// `s` escaped for the inside of a JSON string literal (quote,
/// backslash, newline and tab) — the one escaper every JSON report
/// writer uses.
std::string JsonEscape(std::string_view s);

/// "true" / "false".
const char* BoolName(bool b);

/// Creates (or truncates) the file at `path` and lets `write` fill it.
/// False, with *error = "cannot create " + `what`, when the file cannot
/// be created; `what` names the file the way the caller's messages do.
bool SaveFile(const std::string& path, const std::string& what,
              FunctionRef<void(std::ostream&)> write, std::string* error);

// Strict numeric parsers shared by the CLI flags and batch plan files.
// All of them require the whole string to parse and reject out-of-range
// input (no silent truncation or wrap).

/// Decimal integer in [1, INT_MAX].
bool ParsePositiveInt(const std::string& s, int* out);

/// Decimal unsigned 64-bit integer (rejects overflow and a leading '-').
bool ParseUint64(const std::string& s, uint64_t* out);

/// Floating-point probability in [0, 1]; NaN and infinities are rejected.
bool ParseProbability(const std::string& s, double* out);

/// Split on `sep`, Trim each piece, and drop empties.
std::vector<std::string> SplitTrimmed(std::string_view s, char sep);

}  // namespace rescq

#endif  // RESCQ_UTIL_STRING_UTIL_H_
