// Byte digests of the sweep outputs.
//
// DigestStream is a std::ostream that keeps only a byte count and an
// FNV-1a digest of what is written to it. The timed sweeps write through
// it, so the library's sinks and writers run unchanged while the
// filesystem's writeback stays out of the measurement.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <streambuf>
#include <string>

namespace perfbench {

/// FNV-1a 64: a short printable witness of an output's bytes.
class Digest {
 public:
  void add(const char* bytes, std::size_t size) {
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= static_cast<unsigned char>(bytes[i]);
      hash_ *= 0x100000001b3ULL;
    }
  }
  std::string hex() const {
    char text[17];
    std::snprintf(text, sizeof text, "%016llx",
                  static_cast<unsigned long long>(hash_));
    return text;
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

inline std::string digest(const std::string& bytes) {
  Digest digest;
  digest.add(bytes.data(), bytes.size());
  return digest.hex();
}

/// Buffers writes like a file stream and folds each full buffer into the
/// digest.
class DigestBuf final : public std::streambuf {
 public:
  DigestBuf() { setp(buffer_, buffer_ + sizeof buffer_); }

  /// Digest and size of everything written so far.
  std::string hex() {
    drain();
    return digest_.hex();
  }
  std::size_t bytes() {
    drain();
    return bytes_;
  }

 protected:
  int_type overflow(int_type ch) override {
    drain();
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(ch);
      pbump(1);
    }
    return traits_type::not_eof(ch);
  }
  int sync() override {
    drain();
    return 0;
  }

 private:
  void drain() {
    const std::size_t size = static_cast<std::size_t>(pptr() - pbase());
    digest_.add(pbase(), size);
    bytes_ += size;
    setp(buffer_, buffer_ + sizeof buffer_);
  }

  char buffer_[1 << 16];
  Digest digest_;
  std::size_t bytes_ = 0;
};

/// Holds the buffer in a base so it is built before the stream uses it.
struct DigestBufHolder {
  DigestBuf buf_;
};

class DigestStream : private DigestBufHolder, public std::ostream {
 public:
  DigestStream() : std::ostream(&buf_) {}
  /// "<digest>:<bytes>" of everything written so far.
  std::string witness() {
    flush();
    return buf_.hex() + ":" + std::to_string(buf_.bytes());
  }
};

}  // namespace perfbench
