#pragma once
/// \file json_out.h
/// \brief Minimal ordered JSON object writer for the benchmark's report
/// lines (numbers keep all their digits; keys are written in insertion
/// order).

#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class JsonObject {
 public:
  void str(const std::string& key, const std::string& value) {
    fields_.emplace_back(key, quote(value));
  }
  void num(const std::string& key, double value) {
    char buf[40];
    if (!std::isfinite(value)) {
      value = 0.0;  // JSON has no NaN/Inf; a non-finite metric reads as 0
    }
    if (value == std::floor(value) && std::fabs(value) < 9e15) {
      std::snprintf(buf, sizeof buf, "%.0f", value);
    } else {
      std::snprintf(buf, sizeof buf, "%.17g", value);
    }
    fields_.emplace_back(key, buf);
  }
  /// \p json must already be valid JSON (an object, true/false, ...).
  void raw(const std::string& key, std::string json) {
    fields_.emplace_back(key, std::move(json));
  }

  std::string dump() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i != 0) out += ", ";
      out += quote(fields_[i].first) + ": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char hex[8];
        std::snprintf(hex, sizeof hex, "\\u%04x", c);
        out += hex;
      } else {
        out += c;
      }
    }
    return out + "\"";
  }

  std::vector<std::pair<std::string, std::string>> fields_;
};

}  // namespace perfbench
