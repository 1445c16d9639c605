#include "bench_util.hpp"

#include <sys/resource.h>

#include <cstdio>
#include <cstring>

namespace perfbench {

double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto n = static_cast<double>(sorted.size());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  return sorted[std::min(sorted.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double percentile(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  return percentile_sorted(values, p);
}

std::size_t samples_beyond(std::size_t n, double p) {
  if (n == 0) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  return n - std::min(n, std::max<std::size_t>(rank, 1));
}

std::size_t samples_needed(double p, std::size_t beyond) {
  std::size_t n = 1;
  while (samples_beyond(n, p) < beyond) ++n;
  return n;
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  long kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtol(line + 6, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return static_cast<double>(kb) / 1024.0;
}

void Report::fail(std::uint64_t n, const char* what) {
  if (n == 0) return;
  failed += n;
  std::printf("CHECK FAILED: %llu x %s\n", static_cast<unsigned long long>(n),
              what);
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

void Report::print() const {
  for (const auto& [name, m] : metrics)
    std::printf("  %-34s %16.6f %s\n", name.c_str(), m.value, m.unit.c_str());
  std::string json = "{\"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  bool first = true;
  char num[64];
  for (const auto& [name, m] : metrics) {
    std::snprintf(num, sizeof num, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    json += (first ? "\"" : ", \"") + json_escape(name) + "\": {\"value\": " +
            num + ", \"unit\": \"" + json_escape(m.unit) + "\"}";
    first = false;
  }
  json += "}, \"record\": {";
  first = true;
  for (const auto& [k, v] : record) {
    json += (first ? "\"" : ", \"") + json_escape(k) + "\": \"" +
            json_escape(v) + "\"";
    first = false;
  }
  json += "}}";
  std::printf("RESULT %s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
