#include "verify.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

#include "io/grid_format.h"
#include "lang/interpreter.h"
#include "lang/parser.h"
#include "loadgen.h"
#include "server/client.h"

namespace perfbench {

using tabular::core::TabularDatabase;
using tabular::server::Client;

void VerifyReads(const std::vector<std::string>& programs,
                 const TabularDatabase& input, uint16_t port, int clients,
                 OracleTally* tally) {
  std::mutex mu;  // guards `tally`
  std::atomic<size_t> next{0};
  auto worker = [&] {
    tabular::Result<Client> client = Client::ConnectTcp("127.0.0.1", port);
    while (true) {
      const size_t i = next.fetch_add(1);
      if (i >= programs.size()) return;
      const std::string what = "program " + std::to_string(i);
      if (!client.ok()) {
        std::lock_guard<std::mutex> lock(mu);
        tally->Fail(what + ": " + client.status().ToString());
        continue;
      }
      RunOutcome served = RunWithRetries(*client, {programs[i], false},
                                         /*want_dump=*/true);
      tabular::Result<std::string> reference =
          SingleShotDump(programs[i], input);
      std::lock_guard<std::mutex> lock(mu);
      if (!served.ok) {
        tally->Fail(what + ": " + served.error);
      } else if (!reference.ok()) {
        tally->Fail(what + ": single-shot failed: " +
                    reference.status().ToString());
      } else {
        tally->Add(CompareDumps(served.dump, *reference), what);
      }
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();
}

void VerifyCommits(std::vector<CommitRecord> commits,
                   const TabularDatabase& initial, uint16_t port,
                   OracleTally* tally, TabularDatabase* replayed) {
  *replayed = initial;
  std::sort(commits.begin(), commits.end(),
            [](const CommitRecord& a, const CommitRecord& b) {
              return a.version < b.version;
            });
  for (size_t i = 0; i < commits.size(); ++i) {
    if (commits[i].version != i + 2) {
      tally->Fail("committed versions are not 2.." +
                  std::to_string(commits.size() + 1));
      return;
    }
  }
  // RunProgram is a function of (program, database) alone, so the replay
  // runs each distinct pair once: `states` holds the distinct databases met
  // so far and `memo` maps (program, state) to the state it yields. Once
  // restructure_commit's database reaches its fixed point, every further
  // commit is a lookup.
  std::vector<TabularDatabase> states = {initial};
  std::map<std::pair<std::string, size_t>, size_t> memo;
  size_t state = 0;
  for (const CommitRecord& c : commits) {
    auto [it, fresh] = memo.try_emplace({c.program, state}, 0);
    if (fresh) {
      TabularDatabase next = states[state];
      tabular::Result<tabular::lang::Program> parsed =
          tabular::lang::ParseProgram(c.program);
      tabular::Status st = parsed.ok()
                               ? tabular::lang::RunProgram(*parsed, &next)
                               : parsed.status();
      if (!st.ok()) {
        tally->Fail("single-shot replay of version " +
                    std::to_string(c.version) + ": " + st.ToString());
        return;
      }
      const auto same = std::find_if(
          states.begin(), states.end(), [&](const TabularDatabase& known) {
            return known.tables() == next.tables();
          });
      it->second = static_cast<size_t>(same - states.begin());
      if (same == states.end()) states.push_back(std::move(next));
    }
    state = it->second;
  }
  *replayed = states[state];
  tabular::Result<Client> client = Client::ConnectTcp("127.0.0.1", port);
  tabular::Result<Client::Dump> dump =
      client.ok() ? client->DumpDatabase()
                  : tabular::Result<Client::Dump>(client.status());
  if (!dump.ok()) {
    tally->Fail("DumpDatabase: " + dump.status().ToString());
    return;
  }
  if (dump->version != commits.size() + 1) {
    tally->Fail("server is at version " + std::to_string(dump->version) +
                ", expected " + std::to_string(commits.size() + 1));
    return;
  }
  tally->Add(CompareDumps(dump->database,
                          tabular::io::SerializeDatabase(*replayed)),
             "final database");
}

}  // namespace perfbench
