// Minimal command-line option parser for the bench and example binaries,
// plus the exit-code contract every binary's main() shares.
//
// Supports `--name value`, `--name=value` and boolean `--flag`. Unknown
// options are an error so typos in sweep scripts fail fast.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace ftcf::util {

class Cli {
 public:
  /// Declare options before parse(); each gets a help line and a default.
  Cli(std::string program, std::string description);

  void add_flag(const std::string& name, const std::string& help);
  void add_option(const std::string& name, const std::string& help,
                  const std::string& default_value);

  /// Parse argv. Returns false (after printing help) when --help was given.
  /// Throws util::Error on unknown/malformed options.
  bool parse(int argc, const char* const* argv);

  [[nodiscard]] bool flag(const std::string& name) const;
  [[nodiscard]] std::string str(const std::string& name) const;
  [[nodiscard]] std::uint64_t uinteger(const std::string& name) const;
  [[nodiscard]] double real(const std::string& name) const;
  /// A message-size option given in KiB, as bytes (see kib_to_bytes).
  [[nodiscard]] std::uint64_t kib_bytes(const std::string& name) const;
  /// A count that must be positive and fit 32 bits (e.g. --trials); throws
  /// util::Error naming the option otherwise.
  [[nodiscard]] std::uint32_t positive_u32(const std::string& name) const;

  /// Comma-separated integer list option ("8,16,32").
  [[nodiscard]] std::vector<std::uint64_t> uint_list(
      const std::string& name) const;

  void print_help(std::ostream& os) const;

 private:
  struct Opt {
    std::string help;
    std::string value;   // current (default until parsed)
    bool is_flag = false;
    bool seen = false;
  };

  const Opt& lookup(const std::string& name) const;

  std::string program_;
  std::string description_;
  std::map<std::string, Opt> opts_;
  std::vector<std::string> declared_order_;
};

/// `kib` KiB in bytes. Throws util::Error naming option --`option` when
/// `kib` is 0 or the byte count does not fit 64 bits.
[[nodiscard]] std::uint64_t kib_to_bytes(std::uint64_t kib,
                                         const std::string& option);

/// Every binary's main(): returns `run(argc, argv)`. A util::Error escaping
/// it (an unknown flag, a malformed spec or input file) prints one
/// "error: ..." line to stderr and exits 2; any other std::exception prints
/// the same line and exits `other_error_code`. Exit 1 otherwise means a
/// failed audit, gate or check.
int guarded_main(int argc, char** argv, int (*run)(int, char**),
                 int other_error_code = 1);

}  // namespace ftcf::util
