#include "common/cli.h"

#include <cstdlib>

#include "common/error.h"

namespace eblcio {

CliArgs::CliArgs(int argc, char** argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[arg] = argv[++i];
    } else {
      flags_[arg] = "true";
    }
  }
}

const std::string* CliArgs::find(const std::string& name) const {
  read_.insert(name);
  auto it = flags_.find(name);
  return it == flags_.end() ? nullptr : &it->second;
}

bool CliArgs::has(const std::string& name) const {
  return find(name) != nullptr;
}

std::string CliArgs::get(const std::string& name,
                         const std::string& def) const {
  const std::string* v = find(name);
  return v ? *v : def;
}

double CliArgs::get_double(const std::string& name, double def) const {
  const std::string* v = find(name);
  return v ? std::strtod(v->c_str(), nullptr) : def;
}

int CliArgs::get_int(const std::string& name, int def) const {
  const std::string* v = find(name);
  return v ? static_cast<int>(std::strtol(v->c_str(), nullptr, 10)) : def;
}

bool CliArgs::get_bool(const std::string& name, bool def) const {
  const std::string* v = find(name);
  if (!v) return def;
  return *v == "true" || *v == "1" || *v == "yes";
}

void CliArgs::reject_unknown() const {
  std::string unknown;
  for (const auto& [name, value] : flags_)
    if (!read_.count(name)) unknown += (unknown.empty() ? "--" : ", --") + name;
  EBLCIO_CHECK_ARG(unknown.empty(), "unknown flag(s): " + unknown);
}

}  // namespace eblcio
