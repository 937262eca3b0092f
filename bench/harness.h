// The one JSON emitter of the plain-C++ timing programs (bench_scale,
// bench_dynamics). They time whole runs themselves and write the shape
// google-benchmark writes — a context block plus benchmarks[], counters
// flattened into each entry — so their BENCH_*.json files read like the
// library's and need no benchmark dependency to record or to smoke in CI.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "mrca.h"

namespace mrca::bench {

/// CPU time of this process, in milliseconds.
inline double cpu_ms_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

/// Wall and CPU milliseconds since construction.
class Stopwatch {
 public:
  double real_ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - real_begin_)
        .count();
  }
  double cpu_ms() const { return cpu_ms_now() - cpu_begin_; }

 private:
  std::chrono::steady_clock::time_point real_begin_ =
      std::chrono::steady_clock::now();
  double cpu_begin_ = cpu_ms_now();
};

/// One benchmarks[] entry: a single timed iteration plus its counters,
/// written in insertion order after the timing fields.
struct Entry {
  std::string name;
  double real_ms = 0.0;
  double cpu_ms = 0.0;
  std::vector<std::pair<std::string, double>> counters;
};

/// Writes `entries` to `path` as google-benchmark JSON; exits 1 if the
/// file cannot be opened. Strings and numbers go through the library's
/// engine::json_escape / engine::json_number (non-finite -> null). The context reports the build type this program
/// was compiled with (from NDEBUG) and the online CPU count.
inline void write_json(const std::string& path, const char* executable,
                       const std::vector<Entry>& entries) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "%s: cannot open %s\n", executable, path.c_str());
    std::exit(1);
  }
  char date[64] = "1970-01-01T00:00:00+00:00";
  const std::time_t now = std::time(nullptr);
  std::tm utc{};
  if (gmtime_r(&now, &utc) != nullptr) {
    std::strftime(date, sizeof(date), "%FT%T+00:00", &utc);
  }
  char host[256] = {};
  const bool named =
      gethostname(host, sizeof(host) - 1) == 0 && host[0] != '\0';
  const std::string host_name =
      engine::json_escape(named ? host : "(unknown)");
#ifdef NDEBUG
  const char* build_type = "release";
#else
  const char* build_type = "debug";
#endif
  std::fprintf(out,
               "{\n"
               "  \"context\": {\n"
               "    \"date\": \"%s\",\n"
               "    \"host_name\": \"%s\",\n"
               "    \"executable\": \"%s\",\n"
               "    \"num_cpus\": %ld,\n"
               "    \"mhz_per_cpu\": 0,\n"
               "    \"cpu_scaling_enabled\": false,\n"
               "    \"caches\": [\n"
               "    ],\n"
               "    \"load_avg\": [],\n"
               "    \"library_build_type\": \"%s\"\n"
               "  },\n"
               "  \"benchmarks\": [\n",
               date, host_name.c_str(),
               engine::json_escape(executable).c_str(),
               sysconf(_SC_NPROCESSORS_ONLN), build_type);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& entry = entries[i];
    const std::string name = engine::json_escape(entry.name);
    std::fprintf(out,
                 "    {\n"
                 "      \"name\": \"%s\",\n"
                 "      \"family_index\": %zu,\n"
                 "      \"per_family_instance_index\": 0,\n"
                 "      \"run_name\": \"%s\",\n"
                 "      \"run_type\": \"iteration\",\n"
                 "      \"repetitions\": 1,\n"
                 "      \"repetition_index\": 0,\n"
                 "      \"threads\": 1,\n"
                 "      \"iterations\": 1,\n"
                 "      \"real_time\": %s,\n"
                 "      \"cpu_time\": %s,\n"
                 "      \"time_unit\": \"ms\"",
                 name.c_str(), i, name.c_str(),
                 engine::json_number(entry.real_ms).c_str(),
                 engine::json_number(entry.cpu_ms).c_str());
    for (const auto& [key, value] : entry.counters) {
      std::fprintf(out, ",\n      \"%s\": %s",
                   engine::json_escape(key).c_str(),
                   engine::json_number(value).c_str());
    }
    std::fprintf(out, "\n    }%s\n", i + 1 < entries.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
}

}  // namespace mrca::bench
