#include "kanon/telemetry/metrics.h"

#include <cmath>

#include "kanon/common/json_text.h"

namespace kanon {

Histogram::Histogram(std::vector<double> bounds, bool deterministic)
    : bounds_(std::move(bounds)),
      deterministic_(deterministic),
      counts_(bounds_.size() + 1, 0) {}

void Histogram::Observe(double value) {
  if (std::isnan(value) || value < 0.0) {
    // Durations only: a NaN or negative sample is a caller bug (backwards
    // clock, bad subtraction) that would permanently corrupt count/sum.
    // Clamp and account for it instead of recording garbage.
    if (bad_samples_ != nullptr) bad_samples_->Add();
    value = 0.0;
  }
  std::lock_guard<std::mutex> lock(mu_);
  size_t bucket = bounds_.size();  // Overflow bucket by default.
  for (size_t i = 0; i < bounds_.size(); ++i) {
    if (value <= bounds_[i]) {
      bucket = i;
      break;
    }
  }
  ++counts_[bucket];
  ++count_;
  sum_ += value;
}

uint64_t Histogram::count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

double Histogram::sum() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sum_;
}

std::vector<uint64_t> Histogram::bucket_counts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counts_;
}

Counter* MetricsRegistry::CounterLocked(const std::string& name,
                                        bool deterministic) {
  std::unique_ptr<Counter>& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>(deterministic);
  return slot.get();
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     bool deterministic) {
  std::lock_guard<std::mutex> lock(mu_);
  return CounterLocked(name, deterministic);
}

Gauge* MetricsRegistry::GetGauge(const std::string& name, bool deterministic) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Gauge>& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>(deterministic);
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> bounds,
                                         bool deterministic) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Histogram>& slot = histograms_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Histogram>(std::move(bounds), deterministic);
    // Nondeterministic so its (wall-clock-provoked) count never enters a
    // ToJson(false) fingerprint. CounterLocked, not GetCounter: mu_ is held.
    slot->bad_samples_ =
        CounterLocked("telemetry.bad_samples", /*deterministic=*/false);
  }
  return slot.get();
}

RollingHistogram* MetricsRegistry::GetRollingHistogram(
    const std::string& name, std::vector<double> bounds,
    double window_seconds, size_t num_slots) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<RollingHistogram>& slot = rolling_[name];
  if (slot == nullptr) {
    slot = std::make_unique<RollingHistogram>(std::move(bounds),
                                              window_seconds, num_slots);
    slot->set_bad_samples_counter(
        CounterLocked("telemetry.bad_samples", /*deterministic=*/false));
  }
  return slot.get();
}

void MetricsRegistry::SetInfo(const std::string& name, InfoLabels labels) {
  std::lock_guard<std::mutex> lock(mu_);
  infos_[name] = std::move(labels);
}

std::vector<std::pair<std::string, Counter*>>
MetricsRegistry::CountersSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, Counter*>> out;
  out.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    out.emplace_back(name, counter.get());
  }
  return out;
}

std::vector<std::pair<std::string, Gauge*>> MetricsRegistry::GaugesSnapshot()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, Gauge*>> out;
  out.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) out.emplace_back(name, gauge.get());
  return out;
}

std::vector<std::pair<std::string, Histogram*>>
MetricsRegistry::HistogramsSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, Histogram*>> out;
  out.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    out.emplace_back(name, histogram.get());
  }
  return out;
}

std::vector<std::pair<std::string, RollingHistogram*>>
MetricsRegistry::RollingSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, RollingHistogram*>> out;
  out.reserve(rolling_.size());
  for (const auto& [name, rolling] : rolling_) {
    out.emplace_back(name, rolling.get());
  }
  return out;
}

std::vector<std::pair<std::string, MetricsRegistry::InfoLabels>>
MetricsRegistry::InfosSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, InfoLabels>> out;
  out.reserve(infos_.size());
  for (const auto& [name, labels] : infos_) out.emplace_back(name, labels);
  return out;
}

std::string MetricsRegistry::ToJson(bool include_nondeterministic) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  // Opens the next "name": entry of the current section.
  const auto key = [&out, &first](const std::string& name) {
    out.append(first ? "\n    " : ",\n    ");
    first = false;
    AppendJsonString(&out, name);
    out.append(": ");
  };
  const auto close_section = [&out, &first] {
    out.append(first ? "}" : "\n  }");
  };
  for (const auto& [name, counter] : counters_) {
    if (!include_nondeterministic && !counter->deterministic()) continue;
    key(name);
    out.append(std::to_string(counter->value()));
  }
  close_section();
  out.append(",\n  \"gauges\": {");
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    if (!include_nondeterministic && !gauge->deterministic()) continue;
    key(name);
    AppendJsonNumber(&out, gauge->value());
  }
  close_section();
  out.append(",\n  \"histograms\": {");
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    if (!include_nondeterministic && !histogram->deterministic()) continue;
    key(name);
    out.append("{\"count\": " + std::to_string(histogram->count()) +
               ", \"sum\": ");
    AppendJsonNumber(&out, histogram->sum());
    out.append(", \"buckets\": [");
    const std::vector<double>& bounds = histogram->bounds();
    const std::vector<uint64_t> counts = histogram->bucket_counts();
    for (size_t i = 0; i < counts.size(); ++i) {
      out.append(i > 0 ? ", {\"le\": " : "{\"le\": ");
      if (i < bounds.size()) {
        AppendJsonNumber(&out, bounds[i]);
      } else {
        out.append("\"inf\"");
      }
      out.append(", \"count\": " + std::to_string(counts[i]) + "}");
    }
    out.append("]}");
  }
  close_section();
  if (include_nondeterministic) {
    // Wall-clock-derived sections: never part of the deterministic
    // fingerprint, so they only exist in the full snapshot.
    out.append(",\n  \"rolling\": {");
    first = true;
    for (const auto& [name, rolling] : rolling_) {
      const RollingHistogram::Snapshot snap = rolling->Snap();
      key(name);
      out.append("{\"window_seconds\": ");
      AppendJsonNumber(&out, rolling->window_seconds());
      out.append(", \"count\": " + std::to_string(snap.count) +
                 ", \"sum\": ");
      AppendJsonNumber(&out, snap.sum);
      out.append(", \"p50\": ");
      AppendJsonNumber(&out, snap.p50);
      out.append(", \"p95\": ");
      AppendJsonNumber(&out, snap.p95);
      out.append(", \"p99\": ");
      AppendJsonNumber(&out, snap.p99);
      out.push_back('}');
    }
    close_section();
    out.append(",\n  \"info\": {");
    first = true;
    for (const auto& [name, labels] : infos_) {
      key(name);
      out.push_back('{');
      bool first_label = true;
      for (const auto& [label, value] : labels) {
        if (!first_label) out.append(", ");
        first_label = false;
        AppendJsonString(&out, label);
        out.append(": ");
        AppendJsonString(&out, value);
      }
      out.push_back('}');
    }
    close_section();
  }
  out.append("\n}\n");
  return out;
}

}  // namespace kanon
