#include "analysis/report.h"

#include <algorithm>

namespace dnsttl::analysis {
namespace {

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* hex = "0123456789abcdef";
          out += "\\u00";
          out += hex[(static_cast<unsigned char>(c) >> 4) & 0xf];
          out += hex[static_cast<unsigned char>(c) & 0xf];
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string findings_to_json(const Findings& findings) {
  Findings sorted = findings;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Finding& a, const Finding& b) {
                     if (a.file != b.file) return a.file < b.file;
                     if (a.line != b.line) return a.line < b.line;
                     return a.rule < b.rule;
                   });
  std::string out = "{\n  \"version\": 1,\n  \"count\": " +
                    std::to_string(sorted.size()) + ",\n  \"findings\": [";
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const Finding& f = sorted[i];
    out += (i == 0 ? "\n" : ",\n");
    out += "    {\"rule\": \"" + escape(f.rule) + "\", \"file\": \"" +
           escape(f.file) + "\", \"line\": " + std::to_string(f.line) +
           ", \"excerpt\": \"" + escape(f.excerpt) + "\", \"message\": \"" +
           escape(f.message) + "\"}";
  }
  out += sorted.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

}  // namespace dnsttl::analysis
