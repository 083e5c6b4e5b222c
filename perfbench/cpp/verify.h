#ifndef PERFBENCH_VERIFY_H_
#define PERFBENCH_VERIFY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/database.h"
#include "oracle.h"

namespace perfbench {

/// Sends every program in `programs` once, read-only and with its result
/// dump, over `clients` connections, and compares each dump with the
/// single-shot run of the program on `input` (the database the server
/// holds, which read-only traffic never changes).
void VerifyReads(const std::vector<std::string>& programs,
                 const tabular::core::TabularDatabase& input, uint16_t port,
                 int clients, OracleTally* tally);

/// A commit the server acknowledged.
struct CommitRecord {
  uint64_t version = 0;
  std::string program;
};

/// Replays `commits` single-shot, in committed-version order, from
/// `initial`, and compares the result with the server's current
/// `DumpDatabase`. The versions must be exactly 2..N+1: a lost or doubled
/// commit is a failure. `replayed` receives the replayed database.
void VerifyCommits(std::vector<CommitRecord> commits,
                   const tabular::core::TabularDatabase& initial,
                   uint16_t port, OracleTally* tally,
                   tabular::core::TabularDatabase* replayed);

}  // namespace perfbench

#endif  // PERFBENCH_VERIFY_H_
