// Exporters for obs::Report.
//
// Two formats:
//  * JSON-lines metrics — one object per metric, the same
//    one-object-per-line convention as the PR 3 GALE_BENCH_JSON_DIR bench
//    records, so the same tooling (tools/bench_check.sh-style line
//    parsers) consumes both:
//      {"metric":"gale.store.ppr_rows_reused","type":"counter","value":12}
//      {"metric":"gale.core.selector.last_select_seconds","type":"gauge","value":1.5e-05}
//      {"metric":"gale.core.iteration","type":"histogram","count":4,"sum_ns":48000,"buckets":[{"pow2":14,"n":4}]}
//    Histogram buckets list only non-empty buckets; "pow2":b is the
//    bucket index of obs::Histogram (values in [2^(b-1), 2^b)).
//  * chrome://tracing JSON — complete "X"-phase events for the span tree;
//    load the file in chrome://tracing or Perfetto.
//
// Both emitters walk ordered containers and format numbers with fixed
// printf conversions, so the bytes are a pure function of the Report. In
// logical-time mode (GALE_OBS_LOGICAL_TIME=1) the Report itself is
// deterministic, making the exported files byte-identical across runs and
// thread counts — which is how the determinism acceptance check and the
// golden-file test pin the format.
//
// GALE_TRACE_DIR: when set, Gale::Run exports its report there as
// <stem>_metrics.jsonl + <stem>_trace.json via MaybeExportToEnvDir (each
// run truncates, so the files always describe the most recent run).

#ifndef GALE_OBS_EXPORT_H_
#define GALE_OBS_EXPORT_H_

#include <string>

#include "obs/report.h"
#include "util/status.h"

namespace gale::obs {

// In-memory emitters (the golden-file tests compare these directly).
std::string MetricsJsonLines(const Report& report);
std::string ChromeTraceJson(const Report& report);

util::Status WriteMetricsJsonLines(const Report& report,
                                   const std::string& path);
util::Status WriteChromeTrace(const Report& report, const std::string& path);

// Writes <dir>/<stem>_metrics.jsonl and <dir>/<stem>_trace.json.
util::Status ExportReport(const Report& report, const std::string& dir,
                          const std::string& stem);

// ExportReport into $GALE_TRACE_DIR; OK no-op when the variable is unset.
util::Status MaybeExportToEnvDir(const Report& report,
                                 const std::string& stem);

}  // namespace gale::obs

#endif  // GALE_OBS_EXPORT_H_
