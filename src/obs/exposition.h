#ifndef TABULAR_OBS_EXPOSITION_H_
#define TABULAR_OBS_EXPOSITION_H_

#include <string>
#include <string_view>

#include "obs/metrics.h"

namespace tabular::obs {

/// Prometheus text exposition (version 0.0.4) of the metrics registry.
///
/// Metric names are the registry names with every character outside
/// [a-zA-Z0-9_] mapped to '_' and a "tabular_" prefix, so
/// `server.request.latency` is exposed as `tabular_server_request_latency`.
/// Counters and gauges render as single samples; histograms render in the
/// native Prometheus shape — cumulative `_bucket{le="..."}` samples (the
/// log2 bucket [2^(k-1), 2^k) becomes le="2^k - 1"), a `le="+Inf"` bucket
/// equal to `_count`, plus `_sum` and `_count`:
///
///   # HELP tabular_server_request_latency obs histogram server.request.latency
///   # TYPE tabular_server_request_latency histogram
///   tabular_server_request_latency_bucket{le="0"} 0
///   tabular_server_request_latency_bucket{le="1"} 0
///   ...
///   tabular_server_request_latency_bucket{le="+Inf"} 128
///   tabular_server_request_latency_sum 40635
///   tabular_server_request_latency_count 128
///
/// Served by the plain-HTTP GET /metrics responder behind `tabulard
/// --metrics-port`; scripts/check_prometheus.py validates the format in CI.

/// `name` with non-[a-zA-Z0-9_] characters replaced by '_' and the
/// "tabular_" exposition prefix prepended.
std::string PrometheusName(std::string_view name);

/// Renders every registered counter, gauge, and histogram, sorted by name
/// within each kind.
std::string RenderPrometheus();

}  // namespace tabular::obs

#endif  // TABULAR_OBS_EXPOSITION_H_
