// sfm::string — the 8-byte string skeleton of the SFM format (paper §4.1).
//
// Layout (matching Fig. 7 byte for byte):
//   uint32 length_   bytes occupied by the content INCLUDING the terminating
//                    zero and padding up to a 4-byte boundary ("rgb8" -> 8)
//   uint32 offset_   distance from the address of offset_ itself to the
//                    first content byte (relative => position-independent;
//                    resolved through sfm/relative.h)
//
// The interface mirrors std::string closely enough that existing ROS code
// compiles unchanged (the paper's transparency requirement).  Content space
// is claimed from the owning message's arena through sfm::gmm on first
// assignment; a second assignment violates the One-Shot String Assignment
// Assumption and raises an alert (with an in-place/re-expansion fallback
// under non-throwing alert policies).
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "sfm/alert.h"
#include "sfm/message_manager.h"
#include "sfm/relative.h"

namespace sfm {

class string {
 public:
  using value_type = char;
  using size_type = size_t;
  using const_iterator = const char*;
  static constexpr size_type npos = static_cast<size_type>(-1);

  string() noexcept = default;

  string& operator=(const char* text) {
    Assign(text, std::strlen(text));
    return *this;
  }
  string& operator=(const std::string& text) {
    Assign(text.data(), text.size());
    return *this;
  }
  string& operator=(std::string_view text) {
    Assign(text.data(), text.size());
    return *this;
  }
  string& operator=(const string& other) {
    if (this != &other) Assign(other.data(), other.size());
    return *this;
  }
  // Copying the 8-byte skeleton raw would carry a dangling relative offset
  // into another arena; route construction through assignment instead.
  string(const string& other) = delete;

  void assign(const char* text, size_type count) { Assign(text, count); }

  /// Logical length (strlen semantics), NOT the padded wire length.
  [[nodiscard]] size_type size() const noexcept {
    return length_ == 0 ? 0 : std::strlen(c_str());
  }
  [[nodiscard]] size_type length() const noexcept { return size(); }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }

  /// Wire-level content capacity (content + NUL + padding); what the
  /// skeleton's first word stores.  0 means never assigned.
  [[nodiscard]] uint32_t wire_length() const noexcept { return length_; }
  [[nodiscard]] uint32_t wire_offset() const noexcept { return offset_; }

  [[nodiscard]] const char* c_str() const noexcept {
    return length_ == 0 ? "" : ContentPtr();
  }
  [[nodiscard]] const char* data() const noexcept { return c_str(); }

  char operator[](size_type i) const noexcept { return c_str()[i]; }
  [[nodiscard]] char at(size_type i) const {
    if (i >= size()) throw std::out_of_range("sfm::string::at");
    return c_str()[i];
  }
  [[nodiscard]] char front() const noexcept { return c_str()[0]; }
  [[nodiscard]] char back() const noexcept { return c_str()[size() - 1]; }

  [[nodiscard]] const_iterator begin() const noexcept { return c_str(); }
  [[nodiscard]] const_iterator end() const noexcept { return c_str() + size(); }
  [[nodiscard]] const_iterator cbegin() const noexcept { return begin(); }
  [[nodiscard]] const_iterator cend() const noexcept { return end(); }

  // NOLINTNEXTLINE(google-explicit-constructor): transparency requires the
  // same implicit conversions std::string offers.
  operator std::string() const { return std::string(c_str(), size()); }
  operator std::string_view() const noexcept {  // NOLINT
    return std::string_view(c_str(), size());
  }

  [[nodiscard]] int compare(std::string_view other) const noexcept {
    return std::string_view(c_str(), size()).compare(other);
  }

  [[nodiscard]] size_type find(char c, size_type pos = 0) const noexcept {
    const std::string_view view(c_str(), size());
    const size_t found = view.find(c, pos);
    return found;
  }

  [[nodiscard]] std::string substr(size_type pos = 0,
                                   size_type count = npos) const {
    return std::string(std::string_view(c_str(), size()).substr(pos, count));
  }

  friend bool operator==(const string& a, std::string_view b) noexcept {
    return std::string_view(a.c_str(), a.size()) == b;
  }
  friend bool operator==(std::string_view a, const string& b) noexcept {
    return b == a;
  }
  friend bool operator==(const string& a, const string& b) noexcept {
    return a == std::string_view(b.c_str(), b.size());
  }
  friend bool operator==(const string& a, const char* b) noexcept {
    return a == std::string_view(b);
  }

 private:
  [[nodiscard]] const char* ContentPtr() const noexcept {
    return detail::ResolveRelative<const char>(&offset_, offset_);
  }
  [[nodiscard]] char* ContentPtr() noexcept {
    return detail::ResolveRelative<char>(&offset_, offset_);
  }

  void Assign(const char* text, size_type count) {
    const auto needed =
        static_cast<uint32_t>(((count + 1 + 3) / 4) * 4);  // NUL + pad to 4
    if (length_ != 0) {
      RaiseAlert(Violation::kStringReassignment,
                 "sfm::string assigned a second time (see paper §4.3.3); "
                 "restructure the code to assign once");
      // Fallback (kLog / kSilent): reuse the existing content block when the
      // new value fits; otherwise claim a fresh block, abandoning the old
      // one inside the arena (wasteful but correct).
      if (needed <= length_) {
        std::memcpy(ContentPtr(), text, count);
        std::memset(ContentPtr() + count, 0, length_ - count);
        return;
      }
    }
    char* dst = static_cast<char*>(gmm().Expand(&offset_, needed, 4));
    std::memcpy(dst, text, count);
    // Expand() zeroed the block, so NUL and padding are already in place.
    offset_ = detail::RelativeOffset(&offset_, dst);
    length_ = needed;
  }

  uint32_t length_ = 0;
  uint32_t offset_ = 0;
};

static_assert(sizeof(string) == 8, "sfm::string skeleton must be 8 bytes");

inline std::string to_string(const string& s) { return std::string(s); }

}  // namespace sfm
