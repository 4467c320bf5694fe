#ifndef RESCQ_PERFBENCH_INPUTS_H_
#define RESCQ_PERFBENCH_INPUTS_H_

// Workload definitions and their seeded inputs. Everything the program
// under test receives is generated here, before any timing starts, from
// FindScenario instances and GenerateChurn update logs; the digest pins
// the generated request stream and solve deck.

#include <cstdint>
#include <string>
#include <vector>

#include "cq/query.h"
#include "db/database.h"
#include "db/delta.h"

namespace perfbench {

/// A served workload: closed-loop writer connections, each cycling
/// through its own pool of session scripts, plus an optional open-loop
/// reader.
struct ServedSpec {
  const char* scenario = "vc_er";
  int size = 30;
  double density = 0.1;
  double churn_rate = 0.02;     // mixed churn, share of active tuples per epoch
  int epochs = 100;             // epochs per session before it is replaced
  int reads_per_epoch = 8;      // `resilience` requests after each epoch
  bool stats_per_epoch = true;  // one `stats` after the reads
  int writers = 2;
  int scripts_per_writer = 32;
  double reader_hz = 0;         // open-loop `use`+`resilience` pairs per second
  int shards = 0;               // 0 = `rescq serve`; N = `rescq route --shards N`
  int traced_sessions = 8;      // sessions per writer in a traced run of 10 s or more
};

/// One session's script: base facts, churn epochs, and the request
/// lines that carry them.
struct SessionScript {
  std::string query_text;
  rescq::Query query;
  rescq::Database base;
  rescq::UpdateLog log;
  std::vector<std::string> push_lines;                 // "push R(a, b)"
  std::vector<std::vector<std::string>> update_lines;  // per epoch: "+ R(a, b)"
};

struct ServedInputs {
  ServedSpec spec;
  /// Writer-major: writer w owns scripts [w * per, (w + 1) * per).
  std::vector<SessionScript> scripts;
  uint64_t digest = 0;

  const SessionScript& script(int writer, int i) const {
    return scripts[static_cast<size_t>(writer * spec.scripts_per_writer + i)];
  }
};

ServedInputs MakeServedInputs(const ServedSpec& spec, uint64_t seed);

/// One offline solve: a scenario instance on its own seed.
struct DeckInstance {
  std::string cell;  // "vc_er/50"
  std::string query_text;
  rescq::Query query;
  rescq::Database db;
};

struct SolveDeck {
  std::vector<DeckInstance> instances;  // interleaved by cell
  uint64_t digest = 0;
};

/// `per_cell` fresh-seeded instances of each solve_mix cell.
SolveDeck MakeSolveDeck(uint64_t seed, int per_cell);

/// The served workload specs by name (false when `name` is not served).
bool FindServedSpec(const std::string& name, ServedSpec* spec);

}  // namespace perfbench

#endif  // RESCQ_PERFBENCH_INPUTS_H_
