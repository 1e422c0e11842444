// Minimal command-line flag parsing shared by benches and examples.
//
// Supports `--name=value`, `--name value` and boolean `--name` forms.
// Every has/get* call records the flag as read, so reject_unknown() can
// refuse a misspelt flag; read a CliArgs from one thread only.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

namespace eblcio {

class CliArgs {
 public:
  CliArgs(int argc, char** argv);

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& def = "") const;
  double get_double(const std::string& name, double def) const;
  int get_int(const std::string& name, int def) const;
  bool get_bool(const std::string& name, bool def = false) const;

  // Throws InvalidArgument naming every given flag that no has/get* call
  // has read. Call it after the last flag read.
  void reject_unknown() const;

  // Non-flag positional arguments, in order.
  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& program() const { return program_; }

 private:
  // The flag's value, or nullptr; records `name` as read.
  const std::string* find(const std::string& name) const;

  std::string program_;
  std::map<std::string, std::string> flags_;
  mutable std::set<std::string> read_;
  std::vector<std::string> positional_;
};

}  // namespace eblcio
