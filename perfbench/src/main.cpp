// Repo benchmark entry point: runs one workload in this process and prints, as
// the last line of stdout, one JSON object with the keys correct, attempted,
// failed and metrics. perfbench/run.py builds this binary and calls it;
// see perfbench/README.md for the workloads and metrics.
//
// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--commit ID]

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "workloads.h"

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out;
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "perfbench: " << error
            << "\nusage: perfbench --workload NAME --seed N --seconds S --trace 0|1"
               " [--commit ID]\nworkloads:";
  for (const auto& name : perfbench::workload_names()) std::cerr << " " << name;
  std::cerr << "\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  std::string commit = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
        if (!(options.seconds > 0)) usage("--seconds must be positive");
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (flag == "--commit") {
        commit = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");

  std::cout << "host {\"nproc\": " << std::thread::hardware_concurrency()
            << ", \"cpu\": \"" << json_escape(cpu_model()) << "\", \"compiler\": \""
            << PERFBENCH_COMPILER << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
            << "\", \"commit\": \"" << json_escape(commit) << "\"}\n";

  perfbench::RunResult result;
  try {
    result = perfbench::run_workload(options);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }

  for (auto& m : result.metrics) {
    if (!std::isfinite(m.value)) {
      ++result.failed;
      std::cout << "FAILED metric " << m.name << " is not finite\n";
      m.value = 0.0;  // keeps the result line valid JSON
    }
  }
  std::cout << (options.trace ? "per-layer" : "end-to-end") << " metrics, "
            << options.workload << " seed " << options.seed << ":\n";
  for (const auto& m : result.metrics) {
    std::printf("  %-34s %-22s %s\n", m.name.c_str(), number(m.value).c_str(),
                m.unit.c_str());
  }
  std::fflush(stdout);
  std::cout << "ops attempted " << result.attempted << ", failed " << result.failed << "\n";

  std::string json = "{\"correct\": ";
  json += result.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const auto& m = result.metrics[i];
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
  return result.failed == 0 ? 0 : 1;
}
