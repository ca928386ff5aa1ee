#include "src/serve/options.h"

#include "src/support/str.h"

namespace vserve {

vl::DiagnosticList SessionOptions::Validate() const {
  vl::DiagnosticList diags;
  if (capacity_blocks == 0) {
    diags.AddRule("VS002", vl::Severity::kError, vl::Span{},
                  "the block cache needs capacity_blocks > 0");
  }
  if (max_queued == 0) {
    diags.AddRule("VS004", vl::Severity::kError, vl::Span{},
                  "max_queued must be >= 1 (admission control needs a queue slot)");
  }
  if (shard.find('|') != std::string::npos ||
      shard.find_first_of(" \t\n") != std::string::npos) {
    diags.AddRule("VS005", vl::Severity::kError, vl::Span{},
                  "shard names may not contain '|' or whitespace "
                  "(they key stats and metrics series)");
  }
  diags.Sort();
  return diags;
}

std::string SessionOptions::ValidationText() const {
  vl::DiagnosticList diags = Validate();
  if (diags.errors() == 0) {
    return "";
  }
  std::string out;
  for (const vl::Diagnostic& d : diags.diags()) {
    out += vl::StrFormat("%s[%s]: %s\n", std::string(vl::SeverityName(d.severity)).c_str(),
                         d.rule.c_str(), d.message.c_str());
  }
  return out;
}

}  // namespace vserve
