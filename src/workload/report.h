#ifndef RESCQ_WORKLOAD_REPORT_H_
#define RESCQ_WORKLOAD_REPORT_H_

#include <cstdio>
#include <iosfwd>
#include <string>

#include "workload/batch.h"

namespace rescq {

/// CSV, one row per cell plus a header row. Column order is part of the
/// schema (docs/WORKLOADS.md): every column up to and including
/// `oracle_resilience` (1-15) is deterministic for a given plan
/// regardless of thread count; `memo_hit`, `plan_cache_hit`, and
/// `wall_ms` come last because cache attribution and timing may
/// legitimately vary between runs.
void WriteReportCsv(const BatchReport& report, std::ostream& out);

/// JSON document (`rescq-batch-report/v5` — v4 added
/// `options.solver_threads`, v5 a `metrics` block holding the global
/// registry's rescq-metrics/v1 snapshot fields, empty objects unless
/// metrics collection was on):
/// {"schema", "options", "summary" (incl. plan_cache), "metrics",
/// "cells": [...]}.
void WriteReportJson(const BatchReport& report, std::ostream& out);

/// Writes the CSV/JSON to a file; false + *error if it cannot be
/// created.
bool SaveReportCsv(const BatchReport& report, const std::string& path,
                   std::string* error);
bool SaveReportJson(const BatchReport& report, const std::string& path,
                    std::string* error);

/// Human-readable per-cell table + summary line, as printed by
/// `rescq batch`.
void PrintReportTable(const BatchReport& report, std::FILE* out);

}  // namespace rescq

#endif  // RESCQ_WORKLOAD_REPORT_H_
