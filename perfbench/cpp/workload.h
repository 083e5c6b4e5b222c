#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/database.h"

namespace perfbench {

/// The traffic mixes the benchmark drives tabulard with. Each one stresses
/// a different stretch of the request path (see README.md).
enum class WorkloadKind { kHotReadResident, kRestructureCommit };

std::optional<WorkloadKind> ParseWorkloadKind(std::string_view name);
const char* WorkloadKindName(WorkloadKind kind);

/// One request as a client sends it: a program text and whether its result
/// becomes a new database version.
struct Request {
  std::string program;
  bool commit = false;

  bool operator==(const Request& other) const {
    return program == other.program && commit == other.commit;
  }
};

/// The seeded generator shared by the end-to-end run and the traced
/// replay. Everything is a pure function of (kind, seed): the database the
/// server starts from, the warm-up requests, and request `index` of
/// `client`'s closed-loop stream. Random access keeps the two consumers
/// byte-identical without sharing generator state.
class Workload {
 public:
  /// Closed-loop client connections the end-to-end run drives.
  static constexpr int kClients = 2;

  Workload(WorkloadKind kind, uint64_t seed) : kind_(kind), seed_(seed) {}

  /// The database tabulard receives as its `--db` file.
  tabular::core::TabularDatabase Database() const;

  /// Requests sent once, in order, on one connection before any timing:
  /// they fill the compiled-program cache (hot_read_resident) and create
  /// every target pool (restructure_commit).
  std::vector<Request> Warmup() const;

  /// Request `index` of client `client`'s stream.
  Request At(int client, uint64_t index) const;

  /// The distinct read-only programs a workload draws from.
  std::vector<std::string> ReadPrograms() const;

 private:
  /// A 64-bit value determined by (seed, a, b, c).
  uint64_t Mix(uint64_t a, uint64_t b, uint64_t c = 0) const;
  /// Draw `draw` of `client` among n choices, tagged `salt`: each block of n
  /// draws holds every choice once, in a seeded order.
  size_t Draw(int client, uint64_t draw, size_t n, uint64_t salt) const;
  /// restructure_commit's commits: the paper's restructurings, each into a
  /// fixed target pool. Sales and Pivot never change, so after one commit of
  /// each the database is at a fixed point and its size stays steady.
  std::vector<std::string> CommitPrograms() const;

  WorkloadKind kind_;
  uint64_t seed_;
};

/// Generator self-test: equal seeds give equal warm-up requests and
/// streams, and different seeds give different streams. Returns an empty
/// string on success, else a description of the first failure.
std::string WorkloadSelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
