#include "inputs.h"

#include <sstream>

#include "cq/parser.h"
#include "db/tuple_io.h"
#include "util/check.h"
#include "util/fnv.h"
#include "util/string_util.h"
#include "workload/churn.h"
#include "workload/scenario.h"

namespace perfbench {

using namespace rescq;

namespace {

std::string UpdateLine(const Update& u) {
  return std::string(u.kind == UpdateKind::kInsert ? "+ " : "- ") +
         u.relation + "(" + Join(u.constants, ", ") + ")";
}

/// The active facts as "R(a, b)" lines, via the canonical writer.
std::vector<std::string> FactLines(const Database& db) {
  std::ostringstream text;
  WriteTuples(db, text);
  std::vector<std::string> lines;
  for (const std::string& line : Split(text.str(), '\n')) {
    std::string_view t = Trim(line);
    if (!t.empty() && t[0] != '#') lines.emplace_back(t);
  }
  return lines;
}

Database Generate(const char* scenario_name, int size, double density,
                  uint64_t seed, std::string* query_text) {
  const Scenario* scenario = FindScenario(scenario_name);
  RESCQ_CHECK(scenario != nullptr);
  *query_text = scenario->query;
  ScenarioParams params;
  params.size = size;
  params.density = density;
  params.seed = seed;
  return scenario->generate(params);
}

struct Cell {
  const char* scenario;
  int size;
};

// The solve_mix deck: both sides of the paper's PTIME / NP-hard split.
// The first four are solved by the exact branch-and-bound, the next
// three by the flow and counting constructions, `uniform` by the exact
// fallback. domination is 80, not 120: at 120 the exact oracle that
// checks each answer takes ~0.57 s per instance (linear-flow ~29 ms).
constexpr Cell kDeckCells[] = {
    {"vc_er", 50},       {"chain", 120},  {"triad", 7},
    {"vc_grid", 400},    {"domination", 80}, {"perm", 400},
    {"perm_bipartite", 400}, {"uniform", 80},
};

}  // namespace

bool FindServedSpec(const std::string& name, ServedSpec* spec) {
  ServedSpec s;
  if (name == "serve_reads" || name == "route_reads") {
    if (name == "route_reads") s.shards = 2;
  } else if (name == "serve_epochs") {
    s.size = 60;
    s.density = 0.5;
    s.reads_per_epoch = 1;
    s.stats_per_epoch = false;
    s.writers = 3;
    s.scripts_per_writer = 16;
    s.reader_hz = 100;
    s.traced_sessions = 4;
  } else {
    return false;
  }
  *spec = s;
  return true;
}

ServedInputs MakeServedInputs(const ServedSpec& spec, uint64_t seed) {
  ServedInputs in;
  in.spec = spec;
  Fnv1a digest;
  for (int w = 0; w < spec.writers; ++w) {
    for (int i = 0; i < spec.scripts_per_writer; ++i) {
      SessionScript s;
      uint64_t base_seed = seed * 10007 + static_cast<uint64_t>(w * 101 + i) + 1;
      s.base = Generate(spec.scenario, spec.size, spec.density, base_seed,
                        &s.query_text);
      s.query = MustParseQuery(s.query_text);
      ChurnParams churn;
      churn.epochs = spec.epochs;
      churn.rate = spec.churn_rate;
      churn.seed = base_seed * 31 + 7;
      s.log = GenerateChurn(s.base, "mixed", churn);
      digest.MixString(s.query_text);
      for (const std::string& fact : FactLines(s.base)) {
        s.push_lines.push_back("push " + fact);
        digest.MixString(s.push_lines.back());
      }
      for (const Epoch& epoch : s.log.epochs) {
        std::vector<std::string> lines;
        for (const Update& u : epoch.updates) {
          lines.push_back(UpdateLine(u));
          digest.MixString(lines.back());
        }
        digest.MixString("epoch");
        s.update_lines.push_back(std::move(lines));
      }
      in.scripts.push_back(std::move(s));
    }
  }
  in.digest = digest.digest();
  return in;
}

SolveDeck MakeSolveDeck(uint64_t seed, int per_cell) {
  SolveDeck deck;
  Fnv1a digest;
  for (int k = 0; k < per_cell; ++k) {
    for (size_t c = 0; c < std::size(kDeckCells); ++c) {
      DeckInstance d;
      const Cell& cell = kDeckCells[c];
      d.cell = StrFormat("%s/%d", cell.scenario, cell.size);
      uint64_t instance_seed = seed * 7919 + c * 1000 + static_cast<uint64_t>(k) + 1;
      d.db = Generate(cell.scenario, cell.size, 0.5, instance_seed,
                      &d.query_text);
      d.query = MustParseQuery(d.query_text);
      digest.MixString(d.cell);
      digest.MixString(d.query_text);
      for (const std::string& fact : FactLines(d.db)) digest.MixString(fact);
      deck.instances.push_back(std::move(d));
    }
  }
  deck.digest = digest.digest();
  return deck;
}

}  // namespace perfbench
