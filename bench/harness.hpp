// The bench command line: sweep options, the base SystemConfig every
// swept cell starts from, and the strict CLI parser behind amo_bench.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/system_config.hpp"

namespace amo::bench {

/// The paper's processor-count axis (Tables 2/4); Table 3 starts at 16.
std::vector<std::uint32_t> paper_cpu_counts(std::uint32_t min_cpus = 4);

/// Parses --cpus=a,b,c / --episodes=N / --iters=N / --threads=N / --seed=N
/// / --json=path / --config=file.json / --set key=value overrides.
struct CliOptions {
  std::vector<std::uint32_t> cpus;
  int episodes = 0;  // 0 = keep default
  int iters = 0;
  unsigned threads = 1;    // sweep worker threads (1 = serial)
  unsigned sim_threads = 0;  // PDES domains per run (0 = config default)
  std::uint64_t seed = 0;  // 0 = keep the config default
  bool quick = false;      // trimmed sweep for CI
  std::string json_path;   // empty = no machine-readable output
  std::string config_path;  // --config: JSON overrides for SystemConfig
  std::vector<std::pair<std::string, std::string>> sets;  // --set k=v
};

/// A default SystemConfig with every config-side CLI override applied, in
/// order: the --config file, each --set key=value, then --seed. The
/// result is checked by validate_base(); errors (unknown keys,
/// inconsistent knobs) throw core::ConfigError naming the field. Every
/// swept config starts here.
[[nodiscard]] core::SystemConfig base_config(const CliOptions& opt);

/// core::validate() for a config that sweep cells still override: every
/// check but sim_threads against the node count, which a cell's own
/// num_cpus decides (run_spec validates each materialized cell).
void validate_base(const core::SystemConfig& cfg);

/// Strict parser: malformed values (non-numeric, empty, zero CPU counts,
/// out-of-range) throw std::runtime_error with a message naming the flag.
CliOptions parse_cli(int argc, char** argv);

/// Same, but prints the error to stderr and exits(2), so bad input yields
/// a clear message and a non-zero exit code.
CliOptions parse_cli_or_exit(int argc, char** argv);

}  // namespace amo::bench
