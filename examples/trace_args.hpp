// The `[LLNL|INS|RES|HP] [scale]` arguments the examples share.
//
// An unknown trace name, or a scale that is not a positive number, is a
// usage error: the example prints it to stderr and exits 2 rather than
// running some other trace.
#pragma once

#include <cmath>
#include <cstdlib>
#include <iostream>
#include <optional>

#include "trace/record.hpp"

namespace farmer {

struct TraceArgs {
  TraceKind kind = TraceKind::kHP;
  double scale = 0.0;
};

[[noreturn]] inline void trace_usage_error(const char* program,
                                           const char* what,
                                           const char* arg) {
  std::cerr << program << ": " << what << ": \"" << arg << "\"\nusage: "
            << program << " [LLNL|INS|RES|HP] [scale > 0] ...\n";
  std::exit(2);
}

/// argv[1] names the trace (default HP) and argv[2] its scale (default
/// `default_scale`); further arguments are the caller's.
inline TraceArgs trace_args_or_exit(int argc, char** argv,
                                    double default_scale) {
  TraceArgs args{TraceKind::kHP, default_scale};
  if (argc > 1) {
    const std::optional<TraceKind> kind = parse_trace_kind(argv[1]);
    if (!kind) trace_usage_error(argv[0], "unknown trace", argv[1]);
    args.kind = *kind;
  }
  if (argc > 2) {
    char* end = nullptr;
    args.scale = std::strtod(argv[2], &end);
    if (end == argv[2] || *end != '\0' || !(args.scale > 0.0) ||
        !std::isfinite(args.scale))
      trace_usage_error(argv[0], "scale is not a positive number", argv[2]);
  }
  return args;
}

}  // namespace farmer
