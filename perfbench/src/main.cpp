// perfbench ddc_bench -- runs one workload of the DDC benchmark by name.
//
//   ddc_bench --workload bank64|adc_realtime|fanout256 --seed N --seconds S
//             --trace 0|1 [--trace-out FILE]
//
// Prints a record line (host and build facts, workload input properties,
// record-only metrics, notes) and, last, the result line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status: 0 when every output check passed, 1 when one failed, 2 on a
// usage error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "perfbench/src/workloads.hpp"
#include "src/backends/builtin.hpp"
#include "src/common/json.hpp"
#include "src/common/trace.hpp"

namespace {

using perfbench::Metric;
using perfbench::num;

std::string metrics_json(const std::vector<Metric>& metrics) {
  twiddc::JsonLine obj;
  for (const Metric& m : metrics) {
    twiddc::JsonLine v;
    v.raw_field("value", num(m.value)).field("unit", m.unit);
    obj.object(m.name, v);
  }
  return obj.str();
}

int usage() {
  std::fprintf(stderr,
               "usage: ddc_bench --workload bank64|adc_realtime|fanout256 --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  perfbench::RunConfig rc;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      rc.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return usage();
    } else if (key == "--seconds") {
      rc.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(rc.seconds > 0.0 && rc.seconds <= 600.0)) return usage();
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return usage();
      rc.trace = value == "1";
    } else if (key == "--trace-out") {
      rc.trace_out = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0) return usage();

  // End-to-end numbers are measured with the library's own tracing off.
  twiddc::trace::set_enabled(0);
  twiddc::backends::register_builtin();
  perfbench::Result r;
  try {
    if (workload == "bank64") r = perfbench::run_bank64(rc);
    else if (workload == "adc_realtime") r = perfbench::run_adc_realtime(rc);
    else if (workload == "fanout256") r = perfbench::run_fanout256(rc);
    else return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ddc_bench: %s\n", e.what());
    return 1;
  }

  twiddc::JsonLine record;
  record.field("seed", static_cast<std::size_t>(rc.seed))
      .raw_field("seconds", num(rc.seconds))
      .field("trace", rc.trace);
  for (const auto& [k, v] : r.facts) record.field(k, v);
  record.raw_field("extra", metrics_json(r.extra));
  for (const auto& [name, values] : r.series) {
    std::string arr = "[";
    for (std::size_t i = 0; i < values.size(); ++i) arr += (i ? ", " : "") + num(values[i]);
    record.raw_field(name, arr + "]");
  }
  std::string notes = "[";
  for (std::size_t i = 0; i < r.notes.size(); ++i) {
    twiddc::JsonLine n;
    n.field("note", r.notes[i]);
    notes += (i ? ", " : "") + n.str();
  }
  record.raw_field("notes", notes + "]");
  twiddc::JsonLine wrapper;
  wrapper.object("record", record);
  wrapper.print();

  twiddc::JsonLine result;
  result.field("correct", r.correct)
      .field("attempted", static_cast<std::size_t>(r.attempted))
      .field("failed", static_cast<std::size_t>(r.failed))
      .raw_field("metrics", metrics_json(r.metrics));
  result.print();
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
