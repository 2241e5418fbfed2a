#include "analyze/report.h"

#include <cstdio>
#include <regex>
#include <sstream>

namespace fats::analyze {
namespace {

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string ToJson(const std::vector<Finding>& findings) {
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    if (i) os << ",";
    os << "\n  {\"rule\": \"" << JsonEscape(f.rule) << "\", \"file\": \""
       << JsonEscape(f.file) << "\", \"line\": " << f.line
       << ", \"suppressed\": " << (f.suppressed ? "true" : "false")
       << ", \"message\": \"" << JsonEscape(f.message) << "\"}";
  }
  os << (findings.empty() ? "]" : "\n]");
  os << "\n";
  return os.str();
}

int ActiveCount(const std::vector<Finding>& findings) {
  int n = 0;
  for (const Finding& f : findings) {
    if (!f.suppressed) ++n;
  }
  return n;
}

bool ParseBaseline(std::string_view json,
                   std::vector<BaselineEntry>* entries) {
  entries->clear();
  const std::string text(json);
  // Accept exactly the shape we emit: an array of flat objects with string
  // "rule"/"file" and optional integer "line".  Anything else is malformed.
  static const std::regex kNonSpace(R"(\S)");
  std::smatch first;
  if (!std::regex_search(text, first, kNonSpace)) return true;  // empty file
  if (*first[0].first != '[') return false;

  static const std::regex kObject(R"(\{[^{}]*\})");
  static const std::regex kRule(R"re("rule"\s*:\s*"([^"]*)")re");
  static const std::regex kFile(R"re("file"\s*:\s*"([^"]*)")re");
  static const std::regex kLine(R"("line"\s*:\s*(\d+))");
  for (std::sregex_iterator it(text.begin(), text.end(), kObject), end;
       it != end; ++it) {
    const std::string obj = it->str();
    std::smatch rule_m, file_m, line_m;
    if (!std::regex_search(obj, rule_m, kRule) ||
        !std::regex_search(obj, file_m, kFile)) {
      entries->clear();
      return false;
    }
    BaselineEntry entry;
    entry.rule = rule_m[1].str();
    entry.file = file_m[1].str();
    if (std::regex_search(obj, line_m, kLine)) {
      entry.line = std::stoi(line_m[1].str());
    }
    entries->push_back(std::move(entry));
  }
  return true;
}

int ApplyBaseline(const std::vector<BaselineEntry>& entries,
                  std::vector<Finding>* findings) {
  int stale = 0;
  for (const BaselineEntry& entry : entries) {
    bool matched = false;
    for (Finding& f : *findings) {
      if (f.rule != entry.rule || f.file != entry.file) continue;
      if (entry.line != 0 && f.line != entry.line) continue;
      f.suppressed = true;
      matched = true;
    }
    if (!matched) ++stale;
  }
  return stale;
}

std::string ToSarif(const std::vector<Finding>& findings,
                    const std::vector<std::string>& rules) {
  std::ostringstream out;
  out << "{\n"
      << "  \"$schema\": \"https://raw.githubusercontent.com/oasis-tcs/"
         "sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\n"
      << "  \"version\": \"2.1.0\",\n"
      << "  \"runs\": [\n"
      << "    {\n"
      << "      \"tool\": {\n"
      << "        \"driver\": {\n"
      << "          \"name\": \"fats_analyze\",\n"
      << "          \"informationUri\": "
         "\"https://example.invalid/fats/DESIGN.md\",\n"
      << "          \"rules\": [\n";
  for (size_t i = 0; i < rules.size(); ++i) {
    out << "            {\"id\": \"" << JsonEscape(rules[i]) << "\"}"
        << (i + 1 < rules.size() ? "," : "") << "\n";
  }
  out << "          ]\n"
      << "        }\n"
      << "      },\n"
      << "      \"results\": [\n";
  for (size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out << "        {\n"
        << "          \"ruleId\": \"" << JsonEscape(f.rule) << "\",\n"
        << "          \"level\": \"" << (f.suppressed ? "note" : "error")
        << "\",\n"
        << "          \"message\": {\"text\": \"" << JsonEscape(f.message)
        << "\"},\n"
        << "          \"locations\": [\n"
        << "            {\n"
        << "              \"physicalLocation\": {\n"
        << "                \"artifactLocation\": {\"uri\": \""
        << JsonEscape(f.file) << "\"},\n"
        << "                \"region\": {\"startLine\": " << f.line << "}\n"
        << "              }\n"
        << "            }\n"
        << "          ]";
    if (f.suppressed) {
      out << ",\n          \"suppressions\": [{\"kind\": \"inSource\"}]";
    }
    out << "\n        }" << (i + 1 < findings.size() ? "," : "") << "\n";
  }
  out << "      ]\n"
      << "    }\n"
      << "  ]\n"
      << "}\n";
  return out.str();
}

}  // namespace fats::analyze
