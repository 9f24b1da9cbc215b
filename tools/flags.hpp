#pragma once
/// \file flags.hpp
/// \brief Declarative command-line flags.  Each command declares one table
///        of `Flag`s bound to its config fields; `parse_flags` derives the
///        parser, `--help` and the usage errors (exit 2) from that table.

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "lamsdlc/core/time.hpp"

namespace lamsdlc::tools {

void flag_help_must_not_be_empty();  // never defined: a call fails the build

/// A flag's help text.  Empty text does not compile, so every entry of
/// every table is documented.
struct Doc {
  consteval Doc(const char* s) : text{s} {  // implicit: tables pass literals
    if (*s == '\0') flag_help_must_not_be_empty();
  }
  const char* text;
};

/// The range a numeric operand must lie in.
enum Check { kAny, kPositive, kProbability };

/// Setter result for an operand that is not a value of the flag's type.
inline constexpr const char* kMalformed = "malformed";

/// Stores one operand.  Returns nullptr once stored, else kMalformed or the
/// range the value missed ("must be positive").
using Setter = std::function<const char*(std::string_view)>;

/// All of \p text as one T: no sign for unsigned types, finite for floating
/// point.  \p out is untouched on failure.
template <class T>
bool read_number(std::string_view text, T& out) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  bool ok = !text.empty() && ec == std::errc{} && ptr == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(v);
  if (ok) out = v;
  return ok;
}

template <class T>
std::string show(const T& v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

/// One table entry.  `name` starts with "--", or is a bare word naming the
/// command's positional operand.  An empty `metavar` makes a switch; one in
/// brackets ("[PORT]") an operand that is taken only when it parses.
struct Flag {
  std::string_view name;
  std::string_view metavar;
  const char* help;
  std::string shown;  ///< Default printed by --help; empty prints none.
  Setter set;
  std::function<void()> after;  ///< Implied settings, run on each use.

  /// A switch that stores \p to in \p field.
  template <class T>
  Flag(std::string_view name, Doc help, T& field,
       std::type_identity_t<T> to = true)
      : name{name}, help{help.text}, set{[&field, to](std::string_view) {
          field = to;
          return static_cast<const char*>(nullptr);
        }} {}

  /// A number or string field; --help shows its value before parsing.
  template <class T>
  Flag(std::string_view name, std::string_view metavar, Doc help, T& field,
       Check check = kAny)
      : name{name}, metavar{metavar}, help{help.text}, shown{show(field)},
        set{[&field, check](std::string_view text) -> const char* {
          T v{};
          if constexpr (std::is_same_v<T, std::string>) {
            v = text;
          } else if (!read_number(text, v)) {
            return kMalformed;
          } else if (check == kPositive && !(v > 0)) {
            return "must be positive";
          } else if (check == kProbability && !(v >= 0 && v <= 1)) {
            return "must be in [0, 1]";
          }
          field = v;
          return nullptr;
        }} {}

  /// A duration in units of \p unit_s seconds (1e-3: "--x-ms").  Whole
  /// units convert exactly; the bound keeps picoseconds within int64.
  Flag(std::string_view name, std::string_view metavar, Doc help, Time& field,
       double unit_s)
      : name{name}, metavar{metavar}, help{help.text},
        shown{show(field.sec() / unit_s)},
        set{[&field, unit_s](std::string_view text) -> const char* {
          double v = 0;
          std::int64_t whole = 0;
          if (!read_number(text, v)) return kMalformed;
          if (!(v >= 0 && v * unit_s < 9e6)) return "must be in [0, 9e6 s)";
          field = read_number(text, whole)
                      ? Time::picoseconds(whole * std::llround(unit_s * 1e12))
                      : Time::seconds(v * unit_s);
          return nullptr;
        }} {}

  /// Any other operand: \p set parses it.
  Flag(std::string_view name, std::string_view metavar, Doc help,
       std::string shown, Setter set)
      : name{name}, metavar{metavar}, help{help.text},
        shown{std::move(shown)}, set{std::move(set)} {}

  /// Chains \p fn to run after this flag is applied.
  Flag& also(std::function<void()> fn) {
    after = [prev = std::move(after), fn = std::move(fn)] {
      if (prev) prev();
      fn();
    };
    return *this;
  }
};

using Flags = std::vector<Flag>;

inline Flags operator+(Flags a, const Flags& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

/// What --help and usage errors say about one command.
struct Command {
  std::string prog;   ///< "lamsdlc_cli chaos"
  std::string about;  ///< Printed under the usage line.
};

[[noreturn]] inline void usage_error(const Command& cmd,
                                     const std::string& what) {
  std::fprintf(stderr, "%s: %s (see %s --help)\n", cmd.prog.c_str(),
               what.c_str(), cmd.prog.c_str());
  std::exit(2);
}

inline void print_help(const Command& cmd, const Flags& flags) {
  std::printf("usage: %s [flags]\n%s\n\nflags:\n", cmd.prog.c_str(),
              cmd.about.c_str());
  for (const Flag& f : flags) {
    std::string lhs{f.name};
    if (!f.metavar.empty()) (lhs += ' ') += f.metavar;
    std::printf("  %-28s %s", lhs.c_str(), f.help);
    if (!f.shown.empty()) std::printf(" [%s]", f.shown.c_str());
    std::printf("\n");
  }
}

/// Applies argv[first, argc) to \p flags.  -h/--help prints the help and
/// exits 0; an argument the table does not accept exits 2.
inline void parse_flags(const Command& cmd, const Flags& flags, int argc,
                        char** argv, int first) {
  bool positional_taken = false;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-h" || arg == "--help") {
      print_help(cmd, flags);
      std::exit(0);
    }
    const bool bare = !arg.empty() && arg[0] != '-';
    const auto f = std::find_if(flags.begin(), flags.end(), [&](auto& c) {
      return bare ? c.name[0] != '-' && !positional_taken : c.name == arg;
    });
    if (f == flags.end()) {
      usage_error(cmd, (bare ? "unexpected argument " : "unknown flag ") + arg);
    }
    if (f->metavar.starts_with('[')) {
      if (i + 1 < argc && f->set(argv[i + 1]) == nullptr) ++i;
    } else {
      std::string operand;
      if (bare) {
        operand = arg;
        positional_taken = true;
      } else if (!f->metavar.empty()) {
        if (i + 1 >= argc) usage_error(cmd, "missing value for " + arg);
        operand = argv[++i];
      }
      if (const char* why = f->set(operand)) {
        usage_error(cmd, why == kMalformed
                             ? "bad value for " + arg + ": '" + operand + "'"
                             : arg + " " + why);
      }
    }
    if (f->after) f->after();
  }
}

}  // namespace lamsdlc::tools
