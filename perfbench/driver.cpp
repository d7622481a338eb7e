// perfbench_driver: runs one iteration of one benchmark workload and
// prints its metrics as a single JSON line.
//
//   perfbench_driver --workload steady|catchup|deepsync --seed N
//                    [--trace 0|1] [--tiny] [--setup-only]
//                    [--exec-width N] --work-dir DIR
//
// run.py repeats iterations, takes medians and prints the benchmark's
// result line; this binary only measures. With --trace 1 the spans are
// written to DIR/trace-<workload>-<seed>.tsv when the iteration ends.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "bench.h"

namespace perfbench {

std::vector<std::int64_t> SpanRecorder::SelfTimesNs() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  for (const Span& s : spans_) {
    if (s.parent != 0) self[s.parent - 1] -= s.end_ns - s.start_ns;
  }
  return self;
}

bool SpanRecorder::WriteTsv(const std::string& path) const {
  std::ofstream out(path);
  out << "name\tstart_ns\tend_ns\tid\tparent\trequest\n";
  for (const Span& s : spans_) {
    out << s.name << '\t' << s.start_ns << '\t' << s.end_ns << '\t' << s.id
        << '\t' << s.parent << '\t' << s.request << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench

namespace {

using perfbench::Options;
using perfbench::Result;

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload steady|catchup|deepsync "
               "--seed N --work-dir DIR [--trace 0|1] [--tiny] "
               "[--setup-only] [--exec-width N]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : std::string();
    };
    if (a == "--workload") {
      opt.workload = value();
    } else if (a == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--trace") {
      opt.trace = value() == "1";
    } else if (a == "--tiny") {
      opt.tiny = true;
    } else if (a == "--setup-only") {
      opt.setup_only = true;
    } else if (a == "--exec-width") {
      opt.exec_width =
          static_cast<unsigned>(std::strtoul(value().c_str(), nullptr, 10));
    } else if (a == "--work-dir") {
      opt.work_dir = value();
    } else {
      return Usage();
    }
  }
  if (opt.work_dir.empty()) return Usage();
  std::filesystem::create_directories(opt.work_dir);

  perfbench::SpanRecorder rec(opt.trace);
  Result r;
  if (opt.workload == "steady" || opt.workload == "catchup") {
    r = perfbench::RunCluster(opt, &rec);
  } else if (opt.workload == "deepsync") {
    r = perfbench::RunDeepsync(opt, &rec);
  } else {
    return Usage();
  }
  r.Wall("peak_rss_mb", PeakRssMb());

  std::string trace_file;
  if (opt.trace && !opt.setup_only) {
    trace_file = opt.work_dir + "/trace-" + opt.workload + "-" +
                 std::to_string(opt.seed) + ".tsv";
    if (!rec.WriteTsv(trace_file)) r.Error("could not write " + trace_file);
  }

  std::string out = "{\"workload\": " + JsonString(opt.workload) +
                    ", \"seed\": " + std::to_string(opt.seed) +
                    ", \"exec_width\": " + std::to_string(r.exec_width) +
                    ", \"compiler\": " + JsonString(PERFBENCH_COMPILER) +
                    ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
                    ", \"attempted\": " + std::to_string(r.attempted) +
                    ", \"failed\": " + std::to_string(r.failed) +
                    ", \"spans\": " + std::to_string(rec.spans().size()) +
                    ", \"trace_file\": " + JsonString(trace_file) +
                    ", \"errors\": [";
  for (std::size_t i = 0; i < r.errors.size(); ++i) {
    out += (i ? ", " : "") + JsonString(r.errors[i]);
  }
  out += "], \"deterministic\": [";
  bool first = true;
  for (const std::string& n : r.deterministic) {
    out += (first ? "" : ", ") + JsonString(n);
    first = false;
  }
  out += "], \"metrics\": {";
  first = true;
  for (const auto& [name, v] : r.metrics) {
    out += (first ? "" : ", ") + JsonString(name) + ": " + JsonNumber(v);
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return r.errors.empty() ? 0 : 1;
}
