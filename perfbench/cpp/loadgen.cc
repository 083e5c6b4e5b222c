#include "loadgen.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <thread>
#include <utility>

#include "json_lite.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using tabular::Result;
using tabular::Status;
using tabular::server::Client;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Reads one '\n'-terminated line from `fd` within `timeout_s`.
Result<std::string> ReadLine(int fd, double timeout_s) {
  const auto t0 = Clock::now();
  std::string line;
  while (true) {
    const double left = timeout_s - SecondsSince(t0);
    if (left <= 0) return Status::Internal("timed out reading the banner");
    pollfd pfd{fd, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, static_cast<int>(left * 1000) + 1);
    if (rc < 0 && errno == EINTR) continue;
    if (rc <= 0) continue;
    char c = 0;
    const ssize_t n = ::read(fd, &c, 1);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return Status::Internal("tabulard exited before listening");
    if (c == '\n') return line;
    line.push_back(c);
  }
}

bool IsCommitConflict(const Status& st) {
  return st.code() == tabular::StatusCode::kUndefined &&
         st.message().rfind("commit conflict", 0) == 0;
}

/// Commit priority among the closed-loop clients: at most one client holds
/// it, and while one does, the others' commit attempts wait.
class CommitGate {
 public:
  void WaitTurn(int client) {
    std::unique_lock<std::mutex> lock(mu_);
    turn_.wait(lock, [&] { return holder_ < 0 || holder_ == client; });
  }
  /// Returns whether `client` holds priority now.
  bool Claim(int client) {
    std::lock_guard<std::mutex> lock(mu_);
    if (holder_ < 0) holder_ = client;
    return holder_ == client;
  }
  void Release(int client) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (holder_ != client) return;
      holder_ = -1;
    }
    turn_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable turn_;
  int holder_ = -1;
};

/// RunWithRetries; with a `gate`, each commit attempt first waits while
/// another client holds priority, and a commit that lost
/// kPriorityAfterConflicts races in a row claims priority until it wins.
RunOutcome RunGated(Client& client, const Request& request, bool want_dump,
                    CommitGate* gate, int id) {
  RunOutcome outcome;
  const auto t0 = Clock::now();
  while (true) {
    if (request.commit && gate != nullptr) gate->WaitTurn(id);
    Result<tabular::server::RunResponse> resp =
        client.Run(request.program, request.commit, want_dump);
    if (resp.ok()) {
      if (gate != nullptr) gate->Release(id);
      outcome.ok = true;
      outcome.committed_version = resp->committed_version;
      outcome.dump = std::move(resp->dump);
      return outcome;
    }
    if (request.commit && IsCommitConflict(resp.status()) &&
        SecondsSince(t0) < kCommitRetryLimitS) {
      ++outcome.retries;
      if (gate != nullptr && outcome.retries >= kPriorityAfterConflicts &&
          gate->Claim(id)) {
        outcome.starved = true;
      }
      continue;
    }
    if (gate != nullptr) gate->Release(id);
    outcome.error = resp.status().ToString();
    return outcome;
  }
}

}  // namespace

Result<double> ServerProcess::Start(const std::string& binary,
                                    const std::string& db_path) {
  Stop();
  int out[2];
  if (::pipe2(out, O_CLOEXEC) != 0) {
    return Status::Internal(std::string("pipe: ") + std::strerror(errno));
  }
  const pid_t parent = ::getpid();
  const char* argv[] = {binary.c_str(), "--db", db_path.c_str(), "--listen",
                        "127.0.0.1:0", nullptr};
  const auto t0 = Clock::now();
  // vfork, not fork: fork copies the page tables of this process, whose
  // size grows over a run (the database, the operation log, the oracle),
  // and that would make set-up time depend on the benchmark's own memory.
  // The child only makes system calls before execv.
  const pid_t pid = ::vfork();
  if (pid < 0) {
    ::close(out[0]);
    ::close(out[1]);
    return Status::Internal(std::string("vfork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    // The server must not outlive the benchmark, even if it is killed.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(out[1], STDOUT_FILENO);
    ::execv(argv[0], const_cast<char* const*>(argv));
    ::_exit(127);
  }
  ::close(out[1]);
  pid_ = pid;
  stdout_fd_ = out[0];

  Result<std::string> banner = ReadLine(stdout_fd_, 120.0);
  if (!banner.ok()) return banner.status();
  const size_t at = banner->find("127.0.0.1:");
  if (at == std::string::npos) {
    return Status::Internal("unexpected tabulard banner: " + *banner);
  }
  port_ = static_cast<uint16_t>(
      std::strtoul(banner->c_str() + at + std::strlen("127.0.0.1:"), nullptr,
                   10));
  while (true) {
    Result<Client> client = Client::ConnectTcp("127.0.0.1", port_);
    if (client.ok() && client->Ping().ok()) break;
    if (SecondsSince(t0) > 120.0) {
      return Status::Internal("tabulard never answered a ping");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return SecondsSince(t0);
}

double ServerProcess::StatusMb(const char* field) const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::strtod(line.c_str() + std::strlen(field), nullptr) / 1024.0;
    }
  }
  return 0;
}

void ServerProcess::Stop() {
  if (pid_ <= 0) return;
  if (port_ != 0) {
    Result<Client> client = Client::ConnectTcp("127.0.0.1", port_);
    if (client.ok()) (void)client->Shutdown();
  }
  const auto t0 = Clock::now();
  int status = 0;
  while (::waitpid(pid_, &status, WNOHANG) == 0) {
    if (SecondsSince(t0) > 20.0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
  port_ = 0;
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
  stdout_fd_ = -1;
}

RssSampler::RssSampler(const ServerProcess& server,
                       std::chrono::milliseconds period)
    : thread_([this, &server, period] {
        while (!stop_.load()) {
          samples_.push_back(server.RssMb());
          std::this_thread::sleep_for(period);
        }
      }) {}

const std::vector<double>& RssSampler::Stop() {
  stop_ = true;
  if (thread_.joinable()) thread_.join();
  return samples_;
}

RunOutcome RunWithRetries(Client& client, const Request& request,
                          bool want_dump) {
  return RunGated(client, request, want_dump, /*gate=*/nullptr, 0);
}

LoadResult RunClosedLoop(const Workload& workload, std::vector<Client>& clients,
                         double seconds) {
  LoadResult result;
  std::vector<std::vector<OpRecord>> per_client(Workload::kClients);
  std::vector<std::string> errors(Workload::kClients);
  CommitGate gate;
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int c = 0; c < Workload::kClients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<OpRecord>& ops = per_client[c];
      for (uint64_t i = 0; Clock::now() < deadline; ++i) {
        const Request request = workload.At(c, i);
        const auto t0 = Clock::now();
        RunOutcome outcome =
            RunGated(clients[c], request, /*want_dump=*/false, &gate, c);
        OpRecord op;
        op.latency_ms = SecondsSince(t0) * 1e3;
        op.end_s = SecondsSince(start);
        op.client = c;
        op.index = i;
        op.commit = request.commit;
        op.ok = outcome.ok;
        op.retries = outcome.retries;
        op.starved = outcome.starved;
        op.committed_version = outcome.committed_version;
        ops.push_back(op);
        if (!outcome.ok && errors[c].empty()) errors[c] = outcome.error;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  result.elapsed_s = SecondsSince(start);
  for (int c = 0; c < Workload::kClients; ++c) {
    result.ops.insert(result.ops.end(), per_client[c].begin(),
                      per_client[c].end());
    if (result.first_error.empty()) result.first_error = errors[c];
  }
  return result;
}

Result<ServerCounters> ReadServerCounters(Client& client) {
  TABULAR_ASSIGN_OR_RETURN(std::string stats_text, client.Stats());
  TABULAR_ASSIGN_OR_RETURN(std::string metrics_text, client.Metrics());
  JsonValue stats;
  JsonValue metrics;
  if (!ParseJson(stats_text, &stats) || !ParseJson(metrics_text, &metrics)) {
    return Status::Internal("unparsable Stats/Metrics response");
  }
  ServerCounters out;
  auto stat = [&](const char* key) -> uint64_t {
    const JsonValue* v = stats.Find(key);
    return v == nullptr ? 0 : v->AsU64();
  };
  out.commits = stat("commits");
  out.conflicts = stat("conflicts");
  const JsonValue* histograms = metrics.Find("histograms");
  const JsonValue* latency =
      histograms == nullptr ? nullptr
                            : histograms->Find("server.request.latency");
  if (latency != nullptr) {
    if (const JsonValue* v = latency->Find("count")) {
      out.request_latency_us.count = v->AsU64();
    }
    if (const JsonValue* v = latency->Find("sum")) {
      out.request_latency_us.sum = v->AsU64();
    }
    if (const JsonValue* buckets = latency->Find("buckets")) {
      for (const auto& [index, count] : buckets->members) {
        const size_t k = std::strtoul(index.c_str(), nullptr, 10);
        if (k < out.request_latency_us.buckets.size()) {
          out.request_latency_us.buckets[k] = count.AsU64();
        }
      }
    }
  }
  return out;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - std::floor(rank));
}

}  // namespace perfbench
