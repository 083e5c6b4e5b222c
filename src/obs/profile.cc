#include "obs/profile.h"

#include <cstdio>

namespace tabular::obs {

namespace {

std::string FormatDuration(uint64_t ns) {
  char buf[32];
  if (ns < 10'000) {
    std::snprintf(buf, sizeof(buf), "%llu ns",
                  static_cast<unsigned long long>(ns));
  } else if (ns < 10'000'000) {
    std::snprintf(buf, sizeof(buf), "%.2f us", ns / 1e3);
  } else if (ns < 10'000'000'000ull) {
    std::snprintf(buf, sizeof(buf), "%.2f ms", ns / 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f s", ns / 1e9);
  }
  return buf;
}

void AppendStats(const ProfileNode& node, const RenderProfileOptions& options,
                 std::string* out) {
  std::string stats;
  auto add = [&stats](const std::string& token) {
    stats += stats.empty() ? "  " : " ";
    stats += token;
  };
  if (node.invocations > 0) add("inst=" + std::to_string(node.invocations));
  if (node.iterations > 0) add("iters=" + std::to_string(node.iterations));
  if (node.rows_in > 0 || node.cols_in > 0) {
    add("in=" + std::to_string(node.rows_in) + "x" +
        std::to_string(node.cols_in));
  }
  if (node.rows_out > 0 || node.cols_out > 0) {
    add("out=" + std::to_string(node.rows_out) + "x" +
        std::to_string(node.cols_out));
  }
  if (options.show_times && node.wall_ns > 0) {
    add("[" + FormatDuration(node.wall_ns) + "]");
  }
  *out += stats;
}

void RenderNode(const ProfileNode& node, const std::string& prefix,
                const RenderProfileOptions& options, std::string* out) {
  for (size_t i = 0; i < node.children.size(); ++i) {
    const ProfileNode& child = node.children[i];
    const bool last = i + 1 == node.children.size();
    *out += prefix + (last ? "└─ " : "├─ ") + child.label;
    AppendStats(child, options, out);
    *out += "\n";
    if (!child.children.empty()) {
      RenderNode(child, prefix + (last ? "   " : "│  "), options, out);
    }
  }
}

}  // namespace

std::string RenderProfile(const ProfileNode& root,
                          const RenderProfileOptions& options) {
  std::string out = root.label;
  AppendStats(root, options, &out);
  out += "\n";
  RenderNode(root, "", options, &out);
  return out;
}

}  // namespace tabular::obs
