#ifndef RESCQ_PERFBENCH_SERVED_H_
#define RESCQ_PERFBENCH_SERVED_H_

// Served workloads: closed-loop writer connections (and, on
// serve_epochs, one open-loop reader) against a `rescq serve` or
// `rescq route` process, timed around LineClient::Request.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bench_util.h"
#include "inputs.h"
#include "server/client.h"
#include "server_proc.h"
#include "spans.h"

namespace perfbench {

enum Verb {
  kOpen, kPush, kBegin, kUpdate, kEpoch, kResilience, kStats, kUse, kClose,
  kPing, kVerbCount
};
extern const char* const kVerbNames[kVerbCount];

/// One served answer: the session's script, the window of epochs it may
/// reflect (lo == hi for a writer's own read), and the value (-1 =
/// unbreakable, -2 = unparseable or unproven).
struct ReplyLog {
  int32_t script = 0;
  int32_t epoch_lo = 0;
  int32_t epoch_hi = 0;
  int32_t value = 0;
};

/// What one connection saw.
struct ConnStats {
  Samples lat[kVerbCount];           // per verb, after the warm-up
  Samples read;                      // reader: use+resilience from due time
  std::vector<double> late_ms;       // reader: send time minus due time
  std::vector<double> pair_ms;       // reader: use+resilience from send
  std::vector<double> idle_pair_ms;  // reader: the same, no writer running
  std::vector<ReplyLog> reads;       // every `resilience` reply
  std::vector<ReplyLog> answers;     // begin/epoch replies' resilience=
  std::vector<std::pair<int, int>> finals;  // (script, last epoch) per session
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string error;
};

class ServedRun {
 public:
  /// `recorders` (traced runs only) gets one recorder per connection.
  ServedRun(const ServedInputs& inputs, const std::string& cli,
            std::vector<std::unique_ptr<SpanRecorder>>* recorders = nullptr);
  ~ServedRun();

  ServedRun(const ServedRun&) = delete;
  ServedRun& operator=(const ServedRun&) = delete;

  /// Starts the server, connects, and opens each writer's first session
  /// (open, push, begin) on script `first_script` of its pool. *seconds
  /// is the whole set-up time.
  bool SetUp(int first_script, double* seconds, std::string* error);

  /// Closed loop for warm-up + `seconds`; samples after the warm-up.
  void RunTimed(double warmup_s, double seconds);

  /// Traced socket phase: each writer completes `sessions` sessions and
  /// sends `pings` pings; the reader (if any) runs until the writers
  /// finish, then measures `idle_pairs` uncontended pairs.
  void RunCounted(int sessions, int pings, int idle_pairs);

  /// Closes the connections and stops the server.
  ServerProcess::Usage TearDown();

  const std::vector<ConnStats*>& stats() const { return stats_; }

 private:
  struct Conn;

  void WriterLoop(Conn* c, Clock::time_point deadline, int sessions, int pings);
  void ReaderLoop(Conn* c, Clock::time_point deadline);

  const ServedInputs& in_;
  std::string cli_;
  ServerProcess server_;
  std::vector<std::unique_ptr<Conn>> writers_;
  std::unique_ptr<Conn> reader_;
  std::vector<ConnStats*> stats_;
  std::atomic<bool> writers_done_{false};
};

/// Oracle and consistency checks of every logged served answer, off the
/// clock: replies for one (script, epoch) must agree; the reader's must
/// match an epoch in its window; and ComputeResilienceExact on a mirror
/// database checks every (script, epoch) (`sample` = 0) or each
/// session's final answer plus `sample` seeded others.
struct ServedCheck {
  uint64_t oracle_solves = 0;
  uint64_t replies_oracle_checked = 0;
  uint64_t replies_consistency_checked = 0;
  uint64_t mismatches = 0;
  std::string first_mismatch;
};
ServedCheck CheckServed(const ServedInputs& inputs,
                        const std::vector<ConnStats*>& stats, size_t sample,
                        uint64_t seed);

}  // namespace perfbench

#endif  // RESCQ_PERFBENCH_SERVED_H_
