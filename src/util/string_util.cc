#include "util/string_util.h"

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace rescq {

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t' || s[b] == '\n' ||
                   s[b] == '\r')) {
    ++b;
  }
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\n' ||
                   s[e - 1] == '\r')) {
    --e;
  }
  return s.substr(b, e - b);
}

std::string Join(const std::vector<std::string>& pieces,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(pieces[i]);
  }
  return out;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

void SplitVerb(std::string_view line, std::string_view* verb,
               std::string_view* rest) {
  size_t space = line.find_first_of(" \t");
  if (space == std::string_view::npos) {
    *verb = line;
    *rest = std::string_view();
    return;
  }
  *verb = line.substr(0, space);
  *rest = Trim(line.substr(space + 1));
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out += c;
    }
  }
  return out;
}

const char* BoolName(bool b) { return b ? "true" : "false"; }

bool SaveFile(const std::string& path, const std::string& what,
              FunctionRef<void(std::ostream&)> write, std::string* error) {
  std::ofstream out(path);
  if (!out) {
    *error = "cannot create " + what;
    return false;
  }
  write(out);
  return true;
}

namespace {

/// Non-empty and nothing but ASCII digits — rejects the signs and
/// leading whitespace that strtol/strtoull would otherwise skip (an
/// accidental "-1" or " -1" must not silently wrap to something huge).
bool AllDigits(const std::string& s) {
  return !s.empty() && s.find_first_not_of("0123456789") == std::string::npos;
}

}  // namespace

bool ParsePositiveInt(const std::string& s, int* out) {
  if (!AllDigits(s)) return false;
  errno = 0;
  long v = std::strtol(s.c_str(), nullptr, 10);
  if (errno == ERANGE || v <= 0 || v > INT_MAX) return false;
  *out = static_cast<int>(v);
  return true;
}

bool ParseUint64(const std::string& s, uint64_t* out) {
  if (!AllDigits(s)) return false;
  errno = 0;
  unsigned long long v = std::strtoull(s.c_str(), nullptr, 10);
  if (errno == ERANGE) return false;
  *out = static_cast<uint64_t>(v);
  return true;
}

bool ParseProbability(const std::string& s, double* out) {
  char* end = nullptr;
  double v = std::strtod(s.c_str(), &end);
  // The negated-range form also rejects NaN, which compares false to
  // everything and would otherwise sail through `v < 0 || v > 1`.
  if (end == s.c_str() || *end != '\0' || !(v >= 0.0 && v <= 1.0)) {
    return false;
  }
  *out = v;
  return true;
}

std::vector<std::string> SplitTrimmed(std::string_view s, char sep) {
  std::vector<std::string> out;
  for (const std::string& piece : Split(s, sep)) {
    std::string item(Trim(piece));
    if (!item.empty()) out.push_back(std::move(item));
  }
  return out;
}

}  // namespace rescq
