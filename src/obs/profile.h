#ifndef TABULAR_OBS_PROFILE_H_
#define TABULAR_OBS_PROFILE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace tabular::obs {

/// One node of an EXPLAIN/PROFILE tree: a program, statement, or operator
/// with its accumulated cost and data volume. Producers (the lang
/// interpreter) fill what they know; the renderer omits zero fields.
struct ProfileNode {
  /// Display label, e.g. "[2] Sales <- group by {Region} on {Sold} (Sales);".
  std::string label;

  uint64_t wall_ns = 0;      ///< Total wall time spent in this node.
  uint64_t invocations = 0;  ///< Operator instantiations executed.
  uint64_t iterations = 0;   ///< Loop iterations (while nodes).
  uint64_t rows_in = 0;      ///< Σ input data rows over invocations.
  uint64_t cols_in = 0;      ///< Σ input data columns over invocations.
  uint64_t rows_out = 0;     ///< Σ output data rows over invocations.
  uint64_t cols_out = 0;     ///< Σ output data columns over invocations.

  std::vector<ProfileNode> children;
};

struct RenderProfileOptions {
  /// Include wall times. Disable for deterministic (golden-testable)
  /// output and for EXPLAIN of an unexecuted program.
  bool show_times = true;
};

/// Renders the tree as an indented report:
///
///   program  inst=1  [1.23 ms]
///   ├─ [1] Sales <- group by {Region} on {Sold} (Sales);  inst=1 in=6x3
///   │    out=8x15  [0.52 ms]
///   └─ [2] ...
///
/// Zero-valued fields are omitted, so a label-only tree renders as a plain
/// statement outline (EXPLAIN).
std::string RenderProfile(const ProfileNode& root,
                          const RenderProfileOptions& options = {});

}  // namespace tabular::obs

#endif  // TABULAR_OBS_PROFILE_H_
