// sfm::vector<T> — the 8-byte vector skeleton of the SFM format (§4.1).
//
// Layout (matching Fig. 7):
//   uint32 count_    number of elements
//   uint32 offset_   distance from the address of offset_ to element 0
//                    (resolved through sfm/relative.h)
//
// Elements are stored contiguously in the owning message's arena, so they
// are accessed exactly like a C++ array (the paper's third format feature).
// When T is itself an SFM message, only its fixed-size skeleton is stored
// inline; its own strings/vectors expand the same whole message on demand.
//
// resize() may be called once (One-Shot Vector Resizing Assumption); the
// modifier interfaces of std::vector that would trigger reallocation
// (push_back, pop_back, insert, erase, ...) are deliberately not provided —
// using them is a compile error, which is the enforcement mechanism the
// paper prescribes for the No Modifier Assumption.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "sfm/alert.h"
#include "sfm/message_manager.h"
#include "sfm/relative.h"

namespace sfm {

/// Detects generated SFM message types (they carry kIsSfmMessage).
template <typename T>
concept SkeletonMessage = requires { T::kIsSfmMessage; };

template <typename T>
class vector {
 public:
  using value_type = T;
  using size_type = size_t;
  using reference = T&;
  using const_reference = const T&;
  using iterator = T*;
  using const_iterator = const T*;

  vector() noexcept = default;
  vector(const vector&) = delete;  // see sfm::string: assign, don't copy raw

  vector& operator=(const vector& other) {
    if (this != &other) AssignFrom(other.data(), other.size());
    return *this;
  }

  /// Transparency helper: `msg.data = std_vector;` works as it does in ROS.
  template <typename U>
  vector& operator=(const std::vector<U>& other) {
    AssignFrom(other.data(), other.size());
    return *this;
  }

  /// One-shot sizing.  New elements are value-initialized (zeroed).
  void resize(size_type n) {
    if (count_ != 0) {
      RaiseAlert(Violation::kVectorMultiResize,
                 "sfm::vector resized a second time (see paper §4.3.3); "
                 "size the vector once up front");
      // Fallback (kLog / kSilent): shrink in place, or claim a fresh block
      // and deep-copy the surviving prefix.
      if (n <= count_) {
        count_ = static_cast<uint32_t>(n);
        return;
      }
      Regrow(n);
      return;
    }
    if (n == 0) return;  // stays unassigned; a later resize is the first one
    void* dst = gmm().Expand(&offset_, n * sizeof(T), alignof(T));
    offset_ = detail::RelativeOffset(&offset_, dst);
    count_ = static_cast<uint32_t>(n);
  }

  [[nodiscard]] size_type size() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }

  [[nodiscard]] uint32_t wire_count() const noexcept { return count_; }
  [[nodiscard]] uint32_t wire_offset() const noexcept { return offset_; }

  [[nodiscard]] T* data() noexcept { return count_ == 0 ? nullptr : Elems(); }
  [[nodiscard]] const T* data() const noexcept {
    return count_ == 0 ? nullptr : Elems();
  }

  reference operator[](size_type i) noexcept { return Elems()[i]; }
  const_reference operator[](size_type i) const noexcept { return Elems()[i]; }

  reference at(size_type i) {
    if (i >= count_) throw std::out_of_range("sfm::vector::at");
    return Elems()[i];
  }
  const_reference at(size_type i) const {
    if (i >= count_) throw std::out_of_range("sfm::vector::at");
    return Elems()[i];
  }

  reference front() noexcept { return Elems()[0]; }
  const_reference front() const noexcept { return Elems()[0]; }
  reference back() noexcept { return Elems()[count_ - 1]; }
  const_reference back() const noexcept { return Elems()[count_ - 1]; }

  iterator begin() noexcept { return data(); }
  iterator end() noexcept { return data() + count_; }
  const_iterator begin() const noexcept { return data(); }
  const_iterator end() const noexcept { return data() + count_; }
  const_iterator cbegin() const noexcept { return begin(); }
  const_iterator cend() const noexcept { return end(); }

  // ---- No Modifier Assumption: these MUST NOT compile (paper §4.3.3). ----
  void push_back(const T&) = delete;
  void emplace_back(...) = delete;
  void pop_back() = delete;
  void insert(...) = delete;
  void erase(...) = delete;
  void clear() = delete;
  void reserve(size_type) = delete;
  void shrink_to_fit() = delete;

 private:
  [[nodiscard]] T* Elems() noexcept {
    return detail::ResolveRelative<T>(&offset_, offset_);
  }
  [[nodiscard]] const T* Elems() const noexcept {
    return detail::ResolveRelative<const T>(&offset_, offset_);
  }

  template <typename U>
  void AssignFrom(const U* src, size_type n) {
    resize(n);
    CopyInto(Elems(), src, n);
  }

  void Regrow(size_type n) {
    T* dst = static_cast<T*>(gmm().Expand(&offset_, n * sizeof(T), alignof(T)));
    const T* old = Elems();
    CopyInto(dst, old, count_);
    offset_ = detail::RelativeOffset(&offset_, dst);
    count_ = static_cast<uint32_t>(n);
  }

  // Element copy: raw memcpy is only valid for types without internal
  // relative offsets.  Skeleton messages (and any U != T) go element-wise
  // through operator=, which deep-copies payloads into this arena.
  template <typename U>
  static void CopyInto(T* dst, const U* src, size_type n) {
    if (n == 0) return;
    if constexpr (std::is_same_v<T, U> && !SkeletonMessage<T> &&
                  std::is_trivially_copyable_v<T>) {
      std::memcpy(dst, src, n * sizeof(T));
    } else if constexpr (std::is_same_v<T, U>) {
      // Skeleton messages: operator= deep-copies payloads into this arena.
      for (size_type i = 0; i < n; ++i) dst[i] = src[i];
    } else {
      for (size_type i = 0; i < n; ++i) dst[i] = static_cast<T>(src[i]);
    }
  }

  uint32_t count_ = 0;
  uint32_t offset_ = 0;
};

template <typename T>
inline constexpr bool is_sfm_vector_v = false;
template <typename T>
inline constexpr bool is_sfm_vector_v<vector<T>> = true;

}  // namespace sfm
