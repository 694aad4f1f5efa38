// Receiver-side endianness conversion for SFM messages (paper §4.4.1).
//
// An SFM message travels in the publisher's byte order.  When the two ends
// disagree, the subscriber must swap every multi-byte scalar — including
// the {length, offset} words of string/vector skeletons — before the
// message can be interpreted in place.  The paper discusses this as the
// cost that "could even counteract the efficiency brought by
// serialization-free frameworks"; this module implements the conversion so
// that cost can be measured (see bench/ablation_micro).
//
// ConvertEndianness walks the message through the generated for_each_field
// visitor.  It must run on a message whose skeleton words are still in
// *foreign* order, so lengths/offsets are swapped before being used to
// locate payloads.  The message must be mutable and arena-backed.
#pragma once

#include <type_traits>

#include "common/clock.h"
#include "common/endian.h"
#include "serialization/field_model.h"
#include "sfm/relative.h"
#include "sfm/string.h"
#include "sfm/vector.h"

namespace sfm {

/// Which way the message is being converted.  The walker must read vector
/// counts and offsets in HOST order: converting a received foreign message
/// means the host values only exist AFTER the skeleton words are swapped;
/// converting an outgoing message to foreign order means they only exist
/// BEFORE.
enum class SwapDirection {
  kFromForeign,  // received bytes -> host order (the §4.4.1 receiver step)
  kToForeign,    // host order -> foreign bytes (tests / symmetric peers)
};

namespace internal {

template <typename T>
void SwapScalarInPlace(T& value) noexcept {
  if constexpr (sizeof(T) == 1) {
    (void)value;
  } else if constexpr (std::is_same_v<T, ::rsf::Time>) {
    value.sec = ::rsf::ByteSwap(value.sec);
    value.nsec = ::rsf::ByteSwap(value.nsec);
  } else {
    using U = std::conditional_t<
        sizeof(T) == 2, uint16_t,
        std::conditional_t<sizeof(T) == 4, uint32_t, uint64_t>>;
    U raw;
    std::memcpy(&raw, &value, sizeof(T));
    raw = ::rsf::ByteSwap(raw);
    std::memcpy(&value, &raw, sizeof(T));
  }
}

/// Swaps a skeleton word pair in place and returns the HOST-order values
/// (post-swap when converting from foreign, pre-swap when converting to).
inline std::pair<uint32_t, uint32_t> SwapSkeletonWords(void* skeleton,
                                                       SwapDirection dir) {
  auto* words = static_cast<uint32_t*>(skeleton);
  const uint32_t pre0 = words[0];
  const uint32_t pre1 = words[1];
  words[0] = ::rsf::ByteSwap(words[0]);
  words[1] = ::rsf::ByteSwap(words[1]);
  if (dir == SwapDirection::kFromForeign) return {words[0], words[1]};
  return {pre0, pre1};
}

template <typename T>
void ConvertField(T& field, SwapDirection dir);

template <rsf::ser::Message M>
void ConvertMessage(M& msg, SwapDirection dir) {
  msg.for_each_field(
      [dir](const char*, auto& field) { ConvertField(field, dir); });
}

template <typename T>
void ConvertField(T& field, SwapDirection dir) {
  if constexpr (rsf::ser::is_scalar_v<T>) {
    SwapScalarInPlace(field);
  } else if constexpr (std::is_same_v<T, string>) {
    // Strings: only the skeleton words need swapping (content is bytes).
    SwapSkeletonWords(&field, dir);
  } else if constexpr (is_sfm_vector_v<T>) {
    using E = typename T::value_type;
    const auto [count, offset] = SwapSkeletonWords(&field, dir);
    if (count == 0 || offset == 0) return;
    // The offset word (the skeleton's second) is the base the offset is
    // relative to; its in-object value may be foreign-order, so use the
    // host-order copy.
    auto* elements = detail::ResolveRelative<E>(
        reinterpret_cast<const uint32_t*>(&field) + 1, offset);
    for (uint32_t i = 0; i < count; ++i) {
      if constexpr (rsf::ser::is_scalar_v<E>) {
        SwapScalarInPlace(elements[i]);
      } else {
        ConvertMessage(elements[i], dir);
      }
    }
  } else if constexpr (rsf::ser::is_std_array_v<T>) {
    for (auto& element : field) {
      if constexpr (rsf::ser::is_scalar_v<typename T::value_type>) {
        SwapScalarInPlace(element);
      } else {
        ConvertMessage(element, dir);
      }
    }
  } else {
    ConvertMessage(field, dir);  // nested message
  }
}

}  // namespace internal

/// Converts an SFM message, in place, between byte orders.  Converting a
/// message kToForeign and then kFromForeign restores the original bytes.
/// Call with kFromForeign on a received message whose publisher had the
/// opposite endianness, BEFORE reading any field.
template <rsf::ser::Message M>
void ConvertEndianness(M& msg,
                       SwapDirection dir = SwapDirection::kFromForeign) {
  static_assert(is_sfm_message_v<M>, "ConvertEndianness is for SFM messages");
  internal::ConvertMessage(msg, dir);
}

}  // namespace sfm
