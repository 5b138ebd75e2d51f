#include "obs/exporter.h"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/json_writer.h"
#include "util/logging.h"

namespace dw::obs {

namespace {

/// "serve.latency_ms" -> "dw_serve_latency_ms": the Prometheus metric
/// name grammar is [a-zA-Z_:][a-zA-Z0-9_:]*; everything else mangles to
/// '_', and the dw_ prefix namespaces the process.
std::string PrometheusName(const std::string& name) {
  std::string out = "dw_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

std::string EscapeLabelValue(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (const char c : v) {
    if (c == '\\' || c == '"') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

/// {family="ctr",node="0"} -- empty string for no labels. `extra` (the
/// histogram le) is appended last when non-empty.
std::string LabelBlock(const Labels& labels, const std::string& extra_key,
                       const std::string& extra_value) {
  if (labels.empty() && extra_key.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += "=\"";
    out += EscapeLabelValue(v);
    out += '"';
  }
  if (!extra_key.empty()) {
    if (!first) out += ',';
    out += extra_key;
    out += "=\"";
    out += extra_value;
    out += '"';
  }
  out += '}';
  return out;
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

void RenderHistogramProm(const std::string& prom_name,
                         const MetricSnapshot& m, std::string* out) {
  const HistogramSnapshot& h = m.histogram;
  uint64_t cum = 0;
  for (size_t b = 0; b + 1 < h.counts.size(); ++b) {
    if (h.counts[b] == 0) continue;
    cum += h.counts[b];
    // A bucket's le is its exclusive upper bound; the underflow bucket's
    // is the first regular bucket's lower bound. Emitting only occupied
    // bounds (plus +Inf) is a valid sparse exposition.
    const double le = b == 0
                          ? LogLinearBuckets::LowerBound(1)
                          : LogLinearBuckets::UpperBound(static_cast<int>(b));
    *out += prom_name + "_bucket" +
            LabelBlock(m.labels, "le", FormatDouble(le)) + ' ' +
            std::to_string(cum) + '\n';
  }
  *out += prom_name + "_bucket" + LabelBlock(m.labels, "le", "+Inf") + ' ' +
          std::to_string(h.count) + '\n';
  *out += prom_name + "_sum" + LabelBlock(m.labels, "", "") + ' ' +
          FormatDouble(h.sum) + '\n';
  *out += prom_name + "_count" + LabelBlock(m.labels, "", "") + ' ' +
          std::to_string(h.count) + '\n';
}

}  // namespace

std::string RenderPrometheus(const RegistrySnapshot& snap) {
  // Prometheus requires every sample of one metric name contiguous under
  // one # TYPE header, while the registry interleaves names (per-family
  // registration order): group indices by name, first-appearance order.
  std::vector<std::pair<std::string, std::vector<size_t>>> groups;
  std::unordered_map<std::string, size_t> group_of;
  for (size_t i = 0; i < snap.metrics.size(); ++i) {
    const std::string& name = snap.metrics[i].name;
    const auto it = group_of.find(name);
    if (it == group_of.end()) {
      group_of[name] = groups.size();
      groups.push_back({name, {i}});
    } else {
      groups[it->second].second.push_back(i);
    }
  }
  std::string out;
  for (const auto& [name, indices] : groups) {
    const MetricSnapshot& first = snap.metrics[indices.front()];
    const bool is_counter = first.type == MetricType::kCounter;
    const std::string prom_name =
        PrometheusName(name) + (is_counter ? "_total" : "");
    out += "# TYPE " + prom_name + ' ' + ToString(first.type) + '\n';
    for (const size_t i : indices) {
      const MetricSnapshot& m = snap.metrics[i];
      DW_CHECK(m.type == first.type)
          << "metric " << name << " mixes instrument types";
      switch (m.type) {
        case MetricType::kCounter:
          out += prom_name + LabelBlock(m.labels, "", "") + ' ' +
                 std::to_string(m.counter_value) + '\n';
          break;
        case MetricType::kGauge:
          out += prom_name + LabelBlock(m.labels, "", "") + ' ' +
                 FormatDouble(m.gauge_value) + '\n';
          break;
        case MetricType::kHistogram:
          RenderHistogramProm(prom_name, m, &out);
          break;
      }
    }
  }
  return out;
}

std::string RenderJson(const RegistrySnapshot& snap) {
  JsonWriter j;
  j.BeginObject();
  j.Key("metrics").BeginArray();
  for (const MetricSnapshot& m : snap.metrics) {
    j.BeginObject();
    j.Field("name", m.name);
    j.Field("type", ToString(m.type));
    j.Key("labels").BeginObject();
    for (const auto& [k, v] : m.labels) j.Field(k, v);
    j.EndObject();
    switch (m.type) {
      case MetricType::kCounter:
        j.Field("value", m.counter_value);
        break;
      case MetricType::kGauge:
        j.Field("value", m.gauge_value);
        break;
      case MetricType::kHistogram: {
        const HistogramSnapshot& h = m.histogram;
        j.Field("count", h.count);
        j.Field("sum", h.sum);
        j.Field("mean", h.Mean());
        j.Field("min", h.min);
        j.Field("max", h.max);
        j.Field("p50", h.Percentile(50.0));
        j.Field("p99", h.Percentile(99.0));
        j.Key("buckets").BeginArray();
        for (size_t b = 0; b < h.counts.size(); ++b) {
          if (h.counts[b] == 0) continue;
          j.BeginObject();
          if (b > 0 && b + 1 < h.counts.size()) {
            j.Field("lo",
                    LogLinearBuckets::LowerBound(static_cast<int>(b)));
            j.Field("hi",
                    LogLinearBuckets::UpperBound(static_cast<int>(b)));
          }
          j.Field("count", h.counts[b]);
          j.EndObject();
        }
        j.EndArray();
        break;
      }
    }
    j.EndObject();
  }
  j.EndArray();
  j.EndObject();
  return j.str();
}

TelemetryExporter::TelemetryExporter(const Registry* registry,
                                     Options options)
    : registry_(registry),
      options_(std::move(options)),
      loop_("dw-telemetry", [this] { return options_.period; },
            [this] { ExportOnce(); }) {
  DW_CHECK(registry_ != nullptr);
  DW_CHECK_GT(options_.period.count(), 0);
}

TelemetryExporter::~TelemetryExporter() { Stop(); }

void TelemetryExporter::Start() { loop_.Start(); }

void TelemetryExporter::Stop() {
  // The final export runs after the join, on the one Stop() that joined.
  if (loop_.Stop()) ExportOnce();
}

void TelemetryExporter::ExportOnce() {
  const RegistrySnapshot snap = registry_->Snapshot();
  const std::string prom = RenderPrometheus(snap);
  const std::string json = RenderJson(snap);
  if (!options_.prometheus_path.empty()) {
    std::ofstream f(options_.prometheus_path,
                    std::ios::out | std::ios::trunc);
    f << prom;
  }
  if (!options_.json_path.empty()) {
    std::ofstream f(options_.json_path, std::ios::out | std::ios::trunc);
    f << json;
  }
  if (options_.sink) options_.sink(prom, json);
}

}  // namespace dw::obs
