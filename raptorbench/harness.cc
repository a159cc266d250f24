#include "harness.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <thread>

#include "common/table_printer.h"

namespace raptorbench {

using raptor::obs::TraceSpan;

void ParallelFor(size_t n, size_t threads,
                 const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      for (size_t i; (i = next.fetch_add(1)) < n;) fn(i);
    });
  }
  for (std::thread& w : workers) w.join();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0;
}

void RunResult::Fail(const std::string& what) {
  ++failed_;
  failures_.push_back(what);
}

void RunResult::ExactCount(const std::string& name, long long value) {
  auto [it, fresh] = exact_.emplace(name, value);
  if (!fresh && it->second != value) {
    Fail("exact count " + name + " differs between repetitions: " +
         std::to_string(it->second) + " vs " + std::to_string(value));
  }
}

void RunResult::CheckRepeatRecord(const Options& opts) {
  namespace fs = std::filesystem;
  fs::path dir = fs::path(opts.work_dir) / "exact_counts" / opts.code_id;
  fs::path file = dir / (opts.workload + "-seed" +
                         std::to_string(opts.seed) + ".txt");
  std::map<std::string, long long> record;
  {
    std::ifstream in(file);
    std::string name;
    long long value = 0;
    while (in >> name >> value) record[name] = value;
  }
  for (const auto& [name, value] : exact_) {
    auto it = record.find(name);
    if (it != record.end() && it->second != value) {
      Fail("exact count " + name + " = " + std::to_string(value) +
           ", an earlier run of this seed recorded " +
           std::to_string(it->second));
    }
    record[name] = value;
  }
  std::error_code ec;
  fs::create_directories(dir, ec);
  std::ofstream out(file, std::ios::trunc);
  for (const auto& [name, value] : record) out << name << ' ' << value << '\n';
}

namespace {

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void RunResult::Print(const Options& opts) const {
  for (const auto& [name, value] : exact_) {
    std::printf("exact %-32s %lld\n", name.c_str(), value);
  }
  size_t shown = 0;
  for (const std::string& f : failures_) {
    if (++shown > 20) {
      std::printf("FAIL ... %zu more\n", failures_.size() - 20);
      break;
    }
    std::printf("FAIL %s\n", f.c_str());
  }
  for (const auto& [name, m] : info_) {
    std::printf("metric %-32s %.6g %s\n", name.c_str(), m.value,
                m.unit.c_str());
  }
  const std::map<std::string, Metric>& metrics = opts.trace ? layer_ : e2e_;
  std::ostringstream json;
  json << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
       << ", \"attempted\": " << std::max<size_t>(attempted_, 1)
       << ", \"failed\": " << failed_ << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    json << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
         << JsonNumber(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
}

// ------------------------------------------------------------ span tables

namespace {

double SpanEndSeconds(const TraceSpan& s, TraceSpan::Clock::time_point epoch) {
  return std::chrono::duration<double>(s.start() - epoch).count() +
         s.seconds();
}

/// Wall time of `span` not covered by any of its children's windows.
double SelfSeconds(const TraceSpan& span) {
  auto epoch = span.start();
  double end = span.seconds();
  std::vector<std::pair<double, double>> windows;
  for (const auto& child : span.children()) {
    double s = std::chrono::duration<double>(child->start() - epoch).count();
    double e = SpanEndSeconds(*child, epoch);
    windows.emplace_back(std::clamp(s, 0.0, end), std::clamp(e, 0.0, end));
  }
  std::sort(windows.begin(), windows.end());
  double covered = 0, cur_s = 0, cur_e = -1;
  for (const auto& [s, e] : windows) {
    if (s > cur_e) {
      if (cur_e > cur_s) covered += cur_e - cur_s;
      cur_s = s;
      cur_e = e;
    } else {
      cur_e = std::max(cur_e, e);
    }
  }
  if (cur_e > cur_s) covered += cur_e - cur_s;
  return std::max(0.0, end - covered);
}

/// Span names with per-shard/per-worker indices folded: "shard[3]" ->
/// "shard[]", so the table has one row per layer, not per worker.
std::string LayerName(const std::string& name) {
  static const std::regex kIndex("\\[[0-9]+\\]");
  return std::regex_replace(name, kIndex, "[]");
}

struct LayerRow {
  size_t calls = 0;
  double total = 0;
  double self = 0;
};

void Collect(const TraceSpan& span, std::vector<std::string>* order,
             std::map<std::string, LayerRow>* rows) {
  std::string name = LayerName(span.name());
  auto [it, fresh] = rows->emplace(name, LayerRow{});
  if (fresh) order->push_back(name);
  it->second.calls += 1;
  it->second.total += span.seconds();
  it->second.self += SelfSeconds(span);
  for (const auto& child : span.children()) Collect(*child, order, rows);
}

void CollectNamed(const TraceSpan& span, const std::string& name,
                  std::vector<double>* out) {
  if (span.name() == name) out->push_back(span.seconds() * 1e3);
  for (const auto& child : span.children()) CollectNamed(*child, name, out);
}

}  // namespace

std::string SelfTimeTable(const SpanRoots& roots) {
  std::vector<std::string> order;
  std::map<std::string, LayerRow> rows;
  double wall = 0, unattributed = 0;
  for (const auto& root : roots) {
    for (const auto& child : root->children()) Collect(*child, &order, &rows);
    wall += root->seconds();
    unattributed += SelfSeconds(*root);
  }
  raptor::TablePrinter table({"layer", "calls", "total_ms", "self_ms",
                              "self_share"});
  auto share = [&](double s) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f%%", wall > 0 ? 100 * s / wall : 0);
    return std::string(buf);
  };
  auto ms = [](double s) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f", s * 1e3);
    return std::string(buf);
  };
  for (const std::string& name : order) {
    const LayerRow& r = rows[name];
    table.AddRow({name, std::to_string(r.calls), ms(r.total), ms(r.self),
                  share(r.self)});
  }
  table.AddRow({"(unattributed)", "", "", ms(unattributed),
                share(unattributed)});
  table.AddRow({"(wall)", "", ms(wall), "", ""});
  return table.ToString();
}

std::vector<double> SpanMillis(const SpanRoots& roots, const std::string& name) {
  std::vector<double> out;
  for (const auto& root : roots) CollectNamed(*root, name, &out);
  return out;
}

}  // namespace raptorbench
