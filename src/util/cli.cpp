#include "util/cli.hpp"

#include <charconv>
#include <iostream>

#include "util/error.hpp"
#include "util/expects.hpp"

namespace ftcf::util {

Cli::Cli(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {
  add_flag("help", "print this help and exit");
}

void Cli::add_flag(const std::string& name, const std::string& help) {
  expects(!opts_.contains(name), "duplicate CLI option");
  opts_[name] = Opt{.help = help, .value = "false", .is_flag = true};
  declared_order_.push_back(name);
}

void Cli::add_option(const std::string& name, const std::string& help,
                     const std::string& default_value) {
  expects(!opts_.contains(name), "duplicate CLI option");
  opts_[name] = Opt{.help = help, .value = default_value, .is_flag = false};
  declared_order_.push_back(name);
}

bool Cli::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0)
      throw Error("unexpected positional argument: " + arg);
    arg.erase(0, 2);
    std::string value;
    bool has_value = false;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.erase(eq);
      has_value = true;
    }
    const auto it = opts_.find(arg);
    if (it == opts_.end()) throw Error("unknown option: --" + arg);
    Opt& opt = it->second;
    if (opt.is_flag) {
      if (has_value) throw Error("flag --" + arg + " takes no value");
      opt.value = "true";
    } else {
      if (!has_value) {
        if (i + 1 >= argc) throw Error("option --" + arg + " needs a value");
        value = argv[++i];
      }
      opt.value = value;
    }
    opt.seen = true;
  }
  if (flag("help")) {
    print_help(std::cout);
    return false;
  }
  return true;
}

const Cli::Opt& Cli::lookup(const std::string& name) const {
  const auto it = opts_.find(name);
  expects(it != opts_.end(), "CLI option was never declared");
  return it->second;
}

bool Cli::flag(const std::string& name) const {
  return lookup(name).value == "true";
}

std::string Cli::str(const std::string& name) const {
  return lookup(name).value;
}

namespace {
template <typename T>
T parse_number(const std::string& name, const std::string& text) {
  T out{};
  const char* begin = text.data();
  const char* end = begin + text.size();
  const auto [ptr, ec] = std::from_chars(begin, end, out);
  if (ec != std::errc{} || ptr != end)
    throw Error("option --" + name + ": cannot parse number '" + text + "'");
  return out;
}
}  // namespace

std::uint64_t Cli::uinteger(const std::string& name) const {
  return parse_number<std::uint64_t>(name, lookup(name).value);
}

double Cli::real(const std::string& name) const {
  const std::string& text = lookup(name).value;
  try {
    std::size_t pos = 0;
    const double v = std::stod(text, &pos);
    if (pos != text.size()) throw std::invalid_argument(text);
    return v;
  } catch (const std::exception&) {
    throw Error("option --" + name + ": cannot parse real '" + text + "'");
  }
}

std::vector<std::uint64_t> Cli::uint_list(const std::string& name) const {
  const std::string& text = lookup(name).value;
  std::vector<std::uint64_t> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const auto comma = text.find(',', start);
    const auto piece = text.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!piece.empty()) out.push_back(parse_number<std::uint64_t>(name, piece));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

void Cli::print_help(std::ostream& os) const {
  os << program_ << " — " << description_ << "\n\noptions:\n";
  for (const auto& name : declared_order_) {
    const Opt& opt = opts_.at(name);
    os << "  --" << name;
    if (!opt.is_flag) os << " <value> (default: " << opt.value << ")";
    os << "\n      " << opt.help << '\n';
  }
}

int guarded_main(int argc, char** argv, int (*run)(int, char**),
                 int other_error_code) {
  try {
    return run(argc, argv);
  } catch (const Error& ex) {
    std::cerr << "error: " << ex.what() << '\n';
    return 2;
  } catch (const std::exception& ex) {
    std::cerr << "error: " << ex.what() << '\n';
    return other_error_code;
  }
}

}  // namespace ftcf::util
