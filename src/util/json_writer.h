// Minimal JSON emitter (obs::RenderJson renders telemetry snapshots with
// it). Emits compact, valid JSON with comma bookkeeping handled by a
// nesting stack; no parsing, no DOM -- callers only ever append.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dw {

class JsonWriter {
 public:
  /// Value writers. Inside an object, every value must be preceded by
  /// Key(); inside an array, values follow one another directly.
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  JsonWriter& Key(const std::string& name);
  JsonWriter& String(const std::string& v);
  JsonWriter& Number(double v);
  JsonWriter& Number(int64_t v);
  JsonWriter& Number(uint64_t v);
  JsonWriter& Number(int v) { return Number(static_cast<int64_t>(v)); }
  JsonWriter& Bool(bool v);
  JsonWriter& Null();

  /// Convenience for the common "key": value pairs.
  JsonWriter& Field(const std::string& name, const std::string& v) {
    return Key(name).String(v);
  }
  JsonWriter& Field(const std::string& name, const char* v) {
    return Key(name).String(v);
  }
  JsonWriter& Field(const std::string& name, double v) {
    return Key(name).Number(v);
  }
  JsonWriter& Field(const std::string& name, int64_t v) {
    return Key(name).Number(v);
  }
  JsonWriter& Field(const std::string& name, uint64_t v) {
    return Key(name).Number(v);
  }
  JsonWriter& Field(const std::string& name, int v) {
    return Key(name).Number(v);
  }
  JsonWriter& Field(const std::string& name, bool v) {
    return Key(name).Bool(v);
  }

  /// The document so far. Valid JSON once every Begin has its End.
  const std::string& str() const { return out_; }

 private:
  void BeforeValue();
  void Escape(const std::string& s);

  std::string out_;
  /// One entry per open scope: whether a value was already emitted there
  /// (controls the comma).
  std::vector<bool> has_value_;
  bool pending_key_ = false;
};

}  // namespace dw
