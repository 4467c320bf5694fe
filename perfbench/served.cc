#include "served.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <random>
#include <set>
#include <thread>

#include "db/delta.h"
#include "resilience/exact_solver.h"
#include "util/string_util.h"

namespace perfbench {

using namespace rescq;

const char* const kVerbNames[kVerbCount] = {
    "open", "push", "begin", "update", "epoch",
    "resilience", "stats", "use", "close", "ping"};

namespace {

/// resilience= out of a begin/epoch reply (-1 when unbreakable).
int AnswerValue(const std::string& reply) {
  if (reply.find(" unbreakable=1") != std::string::npos) return -1;
  size_t at = reply.find(" resilience=");
  return at == std::string::npos ? -2 : std::atoi(reply.c_str() + at + 12);
}

/// The value of a `resilience` reply (-2 when unproven or unparseable).
int ReadValue(const std::string& reply) {
  if (reply == "ok resilience unbreakable") return -1;
  if (!StartsWith(reply, "ok resilience ") ||
      reply.find("unproven") != std::string::npos) {
    return -2;
  }
  return std::atoi(reply.c_str() + 14);
}

}  // namespace

struct ServedRun::Conn {
  int index = 0;
  LineClient client;
  ConnStats stats;
  SpanRecorder* recorder = nullptr;
  uint64_t seq = 0;
  Clock::time_point record_from = Clock::time_point::max();

  // Writer session state.
  int next_script = 0;
  int instance = 0;
  std::string session;
  int script = -1;
  int epoch = 0;

  // The writer's live session as published to the reader. A session
  // is swapped here only after its replacement is live and closed only
  // after the swap, so a reader holding slot_mu never sees it vanish.
  std::mutex slot_mu;
  std::string slot_session;
  int slot_script = -1;
  std::atomic<int> slot_epoch{0};

  bool Send(Verb verb, const std::string& line, std::string* reply) {
    std::string error;
    bool ok = false;
    Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span(recorder, "LineClient::Request", kVerbNames[verb],
                      (static_cast<uint64_t>(index + 1) << 40) | ++seq);
      ok = client.Request(line, reply, &error);
    }
    Clock::time_point t1 = Clock::now();
    ++stats.attempted;
    if (!ok || StartsWith(*reply, "err ")) {
      ++stats.failed;
      if (stats.error.empty()) {
        stats.error = "'" + line + "': " + (ok ? *reply : error);
      }
      return false;
    }
    if (t0 >= record_from) {
      stats.lat[verb].Add(MsBetween(record_from, t1) / 1000.0, MsBetween(t0, t1));
    }
    return true;
  }

  /// open + push + begin of this writer's next script.
  bool OpenNext(const ServedInputs& in) {
    int s = index * in.spec.scripts_per_writer + next_script;
    next_script = (next_script + 1) % in.spec.scripts_per_writer;
    const SessionScript& script_in = in.scripts[static_cast<size_t>(s)];
    std::string name = StrFormat("w%d-%d", index, instance++);
    std::string reply;
    if (!Send(kOpen, "open " + name + " " + script_in.query_text, &reply)) {
      return false;
    }
    for (const std::string& line : script_in.push_lines) {
      if (!Send(kPush, line, &reply)) return false;
    }
    if (!Send(kBegin, "begin", &reply)) return false;
    stats.answers.push_back({s, 0, 0, AnswerValue(reply)});
    session = name;
    script = s;
    epoch = 0;
    return true;
  }

  void Publish() {
    std::lock_guard<std::mutex> lock(slot_mu);
    slot_session = session;
    slot_script = script;
    slot_epoch.store(epoch);
  }

  /// One epoch: its updates, `epoch`, the reads, and `stats`.
  bool RunEpoch(const ServedInputs& in) {
    const SessionScript& s = in.scripts[static_cast<size_t>(script)];
    std::string reply;
    for (const std::string& line : s.update_lines[static_cast<size_t>(epoch)]) {
      if (!Send(kUpdate, line, &reply)) return false;
    }
    if (!Send(kEpoch, "epoch", &reply)) return false;
    ++epoch;
    slot_epoch.store(epoch);
    stats.answers.push_back({script, epoch, epoch, AnswerValue(reply)});
    for (int r = 0; r < in.spec.reads_per_epoch; ++r) {
      if (!Send(kResilience, "resilience", &reply)) return false;
      stats.reads.push_back({script, epoch, epoch, ReadValue(reply)});
    }
    return !in.spec.stats_per_epoch || Send(kStats, "stats", &reply);
  }

  /// Replaces the session: the next script goes live, is published,
  /// and only then is the old session closed.
  bool Replace(const ServedInputs& in) {
    stats.finals.push_back({script, epoch});
    std::string old = session;
    if (!OpenNext(in)) return false;
    Publish();
    std::string reply;
    return Send(kClose, "close " + old, &reply);
  }
};

ServedRun::ServedRun(const ServedInputs& inputs, const std::string& cli,
                     std::vector<std::unique_ptr<SpanRecorder>>* recorders)
    : in_(inputs), cli_(cli) {
  for (int w = 0; w < in_.spec.writers; ++w) {
    writers_.push_back(std::make_unique<Conn>());
    writers_.back()->index = w;
  }
  if (in_.spec.reader_hz > 0) {
    reader_ = std::make_unique<Conn>();
    reader_->index = in_.spec.writers;
  }
  for (auto& c : writers_) stats_.push_back(&c->stats);
  if (reader_ != nullptr) stats_.push_back(&reader_->stats);
  if (recorders != nullptr) {
    auto attach = [&](Conn* c) {
      recorders->push_back(std::make_unique<SpanRecorder>(
          static_cast<int>(recorders->size()) + 1));
      c->recorder = recorders->back().get();
    };
    for (auto& c : writers_) attach(c.get());
    if (reader_ != nullptr) attach(reader_.get());
  }
}

ServedRun::~ServedRun() { TearDown(); }

bool ServedRun::SetUp(int first_script, double* seconds, std::string* error) {
  Clock::time_point start = Clock::now();
  // As shipped: one handler thread per connection (each holds its slot
  // for life), default limits; `serve`/`route` always arm metrics.
  int connections = in_.spec.writers + (reader_ != nullptr ? 1 : 0);
  std::vector<std::string> args;
  if (in_.spec.shards == 0) {
    args = {"serve", "--port", "0", "--threads", std::to_string(connections)};
  } else {
    args = {"route", "--port", "0", "--threads", std::to_string(connections),
            "--shards", std::to_string(in_.spec.shards)};
  }
  if (!server_.Start(cli_, args, error)) return false;
  std::vector<Conn*> all;
  for (auto& c : writers_) all.push_back(c.get());
  if (reader_ != nullptr) all.push_back(reader_.get());
  for (Conn* c : all) {
    // A traced run times the set-up requests too (one session per
    // writer may be all it runs); a timed run never does.
    if (c->recorder != nullptr) c->record_from = start;
    c->client.set_timeout_ms(60000);
    if (!c->client.Connect("127.0.0.1", server_.port(), error)) return false;
  }
  std::vector<std::thread> threads;
  for (auto& c : writers_) {
    c->next_script = first_script % in_.spec.scripts_per_writer;
    threads.emplace_back([this, w = c.get()] {
      if (w->OpenNext(in_)) w->Publish();
    });
  }
  for (std::thread& t : threads) t.join();
  for (auto& c : writers_) {
    if (!c->stats.error.empty()) {
      *error = "set-up: " + c->stats.error;
      return false;
    }
  }
  *seconds = MsSince(start) / 1000.0;
  return true;
}

void ServedRun::WriterLoop(Conn* c, Clock::time_point deadline, int sessions,
                           int pings) {
  bool ok = true;
  int finished = 0;
  while (ok) {
    if (c->epoch == in_.spec.epochs) {
      ++finished;
      if (sessions > 0 && finished >= sessions) break;
      if (Clock::now() >= deadline) break;
      ok = c->Replace(in_);
      continue;
    }
    if (Clock::now() >= deadline) break;
    ok = c->RunEpoch(in_);
  }
  c->stats.finals.push_back({c->script, c->epoch});
  std::string reply;
  for (int i = 0; ok && i < pings; ++i) ok = c->Send(kPing, "ping", &reply);
}

void ServedRun::ReaderLoop(Conn* c, Clock::time_point deadline) {
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / in_.spec.reader_hz));
  Clock::time_point start = Clock::now();
  std::string reply;
  for (uint64_t k = 0;; ++k) {
    Clock::time_point due = start + period * static_cast<int64_t>(k);
    if (due >= deadline || writers_done_.load()) break;
    std::this_thread::sleep_until(due);
    Conn& w = *writers_[k % writers_.size()];
    Clock::time_point sent = Clock::now();
    int script = 0, lo = 0, hi = 0;
    bool ok = false;
    {
      std::lock_guard<std::mutex> lock(w.slot_mu);
      script = w.slot_script;
      lo = w.slot_epoch.load();
      ok = c->Send(kUse, "use " + w.slot_session, &reply) &&
           c->Send(kResilience, "resilience", &reply);
      // An epoch applied but not yet acknowledged may show as well.
      hi = std::min(w.slot_epoch.load() + 1, in_.spec.epochs);
    }
    if (!ok) break;
    Clock::time_point done = Clock::now();
    c->stats.reads.push_back({script, lo, hi, ReadValue(reply)});
    if (due >= c->record_from) {
      c->stats.read.Add(MsBetween(c->record_from, done) / 1000.0, MsBetween(due, done));
      c->stats.late_ms.push_back(MsBetween(due, sent));
      c->stats.pair_ms.push_back(MsBetween(sent, done));
    }
  }
}

void ServedRun::RunTimed(double warmup_s, double seconds) {
  Clock::time_point record_from =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(warmup_s));
  Clock::time_point deadline =
      record_from + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds));
  for (auto& c : writers_) c->record_from = record_from;
  if (reader_ != nullptr) reader_->record_from = record_from;
  std::vector<std::thread> threads;
  for (auto& c : writers_) {
    threads.emplace_back([this, c = c.get(), deadline] {
      WriterLoop(c, deadline, 0, 0);
    });
  }
  std::thread reader;
  if (reader_ != nullptr) {
    reader = std::thread([this, deadline] { ReaderLoop(reader_.get(), deadline); });
  }
  for (std::thread& t : threads) t.join();
  writers_done_ = true;
  if (reader.joinable()) reader.join();
}

void ServedRun::RunCounted(int sessions, int pings, int idle_pairs) {
  Clock::time_point record_from = Clock::now();
  for (auto& c : writers_) c->record_from = record_from;
  if (reader_ != nullptr) reader_->record_from = record_from;
  std::vector<std::thread> threads;
  for (auto& c : writers_) {
    threads.emplace_back([this, c = c.get(), sessions, pings] {
      WriterLoop(c, Clock::time_point::max(), sessions, pings);
    });
  }
  std::thread reader;
  if (reader_ != nullptr) {
    reader = std::thread(
        [this] { ReaderLoop(reader_.get(), Clock::time_point::max()); });
  }
  for (std::thread& t : threads) t.join();
  writers_done_ = true;
  if (!reader.joinable()) return;
  reader.join();
  // The same pair with every writer idle: the uncontended baseline.
  std::string reply;
  for (int i = 0; i < idle_pairs; ++i) {
    Conn& w = *writers_[static_cast<size_t>(i) % writers_.size()];
    Clock::time_point sent = Clock::now();
    if (!reader_->Send(kUse, "use " + w.session, &reply) ||
        !reader_->Send(kResilience, "resilience", &reply)) {
      return;
    }
    reader_->stats.idle_pair_ms.push_back(MsSince(sent));
    reader_->stats.reads.push_back({w.script, w.epoch, w.epoch, ReadValue(reply)});
  }
}

ServerProcess::Usage ServedRun::TearDown() {
  for (auto& c : writers_) c->client.Close();
  if (reader_ != nullptr) reader_->client.Close();
  return server_.Stop();
}

ServedCheck CheckServed(const ServedInputs& in,
                        const std::vector<ConnStats*>& stats, size_t sample,
                        uint64_t seed) {
  using Key = std::pair<int, int>;  // (script, epoch)
  struct Served {
    int value;
    uint64_t replies;
  };
  ServedCheck out;
  auto mismatch = [&out](const ReplyLog& r, int expected, const char* what,
                         uint64_t replies) {
    out.mismatches += replies;
    if (out.first_mismatch.empty()) {
      out.first_mismatch =
          StrFormat("%s: script %d epochs %d..%d served %d, expected %d",
                    what, r.script, r.epoch_lo, r.epoch_hi, r.value, expected);
    }
  };

  // Exact replies: every reply for one (script, epoch) must agree.
  std::map<Key, Served> served;
  std::vector<ReplyLog> windows;
  for (const ConnStats* s : stats) {
    for (const std::vector<ReplyLog>* log : {&s->answers, &s->reads}) {
      for (const ReplyLog& r : *log) {
        if (r.epoch_lo != r.epoch_hi) {
          windows.push_back(r);
          continue;
        }
        ++out.replies_consistency_checked;
        auto [it, inserted] = served.emplace(Key{r.script, r.epoch_lo},
                                             Served{r.value, 0});
        ++it->second.replies;
        if (r.value == -2 || it->second.value != r.value) {
          mismatch(r, it->second.value, "disagreeing replies", 1);
        }
      }
    }
  }

  // Which (script, epoch) pairs the oracle recomputes.
  std::set<Key> need;
  if (sample == 0) {
    for (const auto& [key, s] : served) need.insert(key);
  } else {
    for (const ConnStats* s : stats) {
      for (const auto& f : s->finals) need.insert(f);
    }
    std::vector<Key> rest;
    for (const auto& [key, s] : served) {
      if (need.count(key) == 0) rest.push_back(key);
    }
    std::mt19937_64 rng(seed);
    std::shuffle(rest.begin(), rest.end(), rng);
    rest.resize(std::min(rest.size(), sample));
    need.insert(rest.begin(), rest.end());
  }
  // A windowed (reader) reply must equal the answer of some epoch in
  // its window; ones no exact reply vouches for go to the oracle.
  std::vector<ReplyLog> deferred;
  for (const ReplyLog& r : windows) {
    bool matched = false;
    for (int e = r.epoch_lo; e <= r.epoch_hi && !matched; ++e) {
      auto it = served.find(Key{r.script, e});
      matched = it != served.end() && it->second.value == r.value;
    }
    if (matched) {
      ++out.replies_consistency_checked;
      continue;
    }
    deferred.push_back(r);
    for (int e = r.epoch_lo; e <= r.epoch_hi; ++e) need.insert(Key{r.script, e});
  }

  // Mirror each script's database epoch by epoch and solve each afresh.
  std::map<Key, int> oracle;
  std::map<int, std::vector<int>> by_script;
  for (const Key& k : need) by_script[k.first].push_back(k.second);
  for (const auto& [script, epochs] : by_script) {
    const SessionScript& s = in.scripts[static_cast<size_t>(script)];
    Database mirror = s.base;
    int at = 0;
    for (int target : epochs) {  // ascending (std::set order)
      while (at < target) ApplyEpoch(s.log.epochs[static_cast<size_t>(at++)], &mirror);
      ResilienceResult r = ComputeResilienceExact(s.query, mirror);
      oracle[Key{script, target}] = r.unbreakable ? -1 : r.resilience;
      ++out.oracle_solves;
    }
  }
  for (const auto& [key, value] : oracle) {
    auto it = served.find(key);
    if (it == served.end()) continue;
    out.replies_oracle_checked += it->second.replies;
    if (it->second.value != value) {
      mismatch({key.first, key.second, key.second, it->second.value}, value,
               "oracle", it->second.replies);
    }
  }
  for (const ReplyLog& r : deferred) {
    bool matched = false;
    for (int e = r.epoch_lo; e <= r.epoch_hi && !matched; ++e) {
      matched = oracle[Key{r.script, e}] == r.value;
    }
    ++out.replies_oracle_checked;
    if (!matched) mismatch(r, oracle[Key{r.script, r.epoch_lo}], "reader", 1);
  }
  return out;
}

}  // namespace perfbench
