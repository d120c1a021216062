#pragma once
// Small binary/text file helpers shared by weight serialization, the xmodel
// format, and the image writers.

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

namespace seneca::util {

/// Reads a whole file; throws std::runtime_error if it cannot be opened.
std::vector<std::uint8_t> read_file(const std::filesystem::path& path);

/// Writes a whole file, creating parent directories; throws on failure.
void write_file(const std::filesystem::path& path,
                const void* data, std::size_t size);
void write_text_file(const std::filesystem::path& path, const std::string& text);

/// Streaming little-endian binary writer/reader for (de)serialization.
class BinaryWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void f32(float v);
  void bytes(const void* data, std::size_t size);
  void str(const std::string& s);

  const std::vector<std::uint8_t>& data() const { return buf_; }

 private:
  std::vector<std::uint8_t> buf_;
};

class BinaryReader {
 public:
  explicit BinaryReader(std::vector<std::uint8_t> data) : buf_(std::move(data)) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  float f32();
  void bytes(void* out, std::size_t size);
  std::string str();

  std::size_t remaining() const { return buf_.size() - pos_; }

 private:
  void require(std::size_t n) const;
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;
};

}  // namespace seneca::util
