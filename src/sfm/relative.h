// Relative-offset addressing for the SFM skeletons (paper §4.1).
//
// sfm::string and sfm::vector store, in their second word, the distance
// from that word's own address to the content in the message arena.  The
// arithmetic runs on uintptr_t rather than on the word's pointer: the
// content lives elsewhere in the arena, so `&offset_ + offset_` would form
// a pointer past a 4-byte subobject, which the optimizer may assume never
// happens (GCC's -Wstringop-overflow/-Warray-bounds flag exactly that).
#pragma once

#include <cstdint>

namespace sfm::detail {

/// The address `offset` bytes past the offset word at `field`.
template <typename T>
[[nodiscard]] inline T* ResolveRelative(const uint32_t* field,
                                        uint32_t offset) noexcept {
  return reinterpret_cast<T*>(reinterpret_cast<uintptr_t>(field) + offset);
}

/// The offset word value that makes ResolveRelative(field, ·) yield `target`.
[[nodiscard]] inline uint32_t RelativeOffset(const uint32_t* field,
                                             const void* target) noexcept {
  return static_cast<uint32_t>(reinterpret_cast<uintptr_t>(target) -
                               reinterpret_cast<uintptr_t>(field));
}

}  // namespace sfm::detail
