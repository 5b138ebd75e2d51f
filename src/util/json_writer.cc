#include "util/json_writer.h"

#include <cmath>
#include <cstdio>

namespace dw {

void JsonWriter::BeforeValue() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // the key already placed the comma
  }
  if (!has_value_.empty()) {
    if (has_value_.back()) out_ += ',';
    has_value_.back() = true;
  }
}

void JsonWriter::Escape(const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\n': out_ += "\\n"; break;
      case '\r': out_ += "\\r"; break;
      case '\t': out_ += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out_ += buf;
        } else {
          out_ += c;
        }
    }
  }
}

JsonWriter& JsonWriter::BeginObject() {
  BeforeValue();
  out_ += '{';
  has_value_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  has_value_.pop_back();
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  BeforeValue();
  out_ += '[';
  has_value_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  has_value_.pop_back();
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::Key(const std::string& name) {
  if (!has_value_.empty()) {
    if (has_value_.back()) out_ += ',';
    has_value_.back() = true;
  }
  out_ += '"';
  Escape(name);
  out_ += "\":";
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(const std::string& v) {
  BeforeValue();
  out_ += '"';
  Escape(v);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::Number(double v) {
  BeforeValue();
  if (!std::isfinite(v)) {
    // JSON has no inf/nan; null is the conventional stand-in.
    out_ += "null";
    return *this;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::Number(int64_t v) {
  BeforeValue();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::Number(uint64_t v) {
  BeforeValue();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::Bool(bool v) {
  BeforeValue();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Null() {
  BeforeValue();
  out_ += "null";
  return *this;
}

}  // namespace dw
