// flatbuf_mini — a miniature of Google FlatBuffers (the paper's second
// serialization-free comparator, §3.3 / Fig. 6), with the builder-and-
// accessor programming model the paper contrasts against SFM's
// transparency.
//
// Buffer layout (structurally matching Fig. 6):
//   [0,4)   uint32 position of the root table
//   ...     payloads: strings as [uint32 length][bytes][NUL][pad4],
//           vectors as [uint32 count][elements], sub-tables for nested
//           messages
//   table   int32 "offset to vtable" (table_pos - vtable_pos is stored, so
//           readers compute vtable_pos = table_pos - value, the "negative
//           offset" of Fig. 6), then one slot per present field: scalars
//           inline, reference fields as uint32 distance back to the payload
//   vtable  uint16 vtable size, uint16 table size,
//           uint16 slot offset per field (0 = absent)
//
// Deviation from stock FlatBuffers: we build front-to-back (payloads first,
// table, then vtable) instead of back-to-front, so reference offsets point
// backwards.  The indirection structure — and therefore the access cost the
// paper measures — is identical.  Field values can only be reached through
// vtable lookups, which is precisely the transparency failure of §3.3.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/endian.h"
#include "common/status.h"
#include "serialization/field_model.h"

namespace rsf::ser::fb {

/// Position of a finished payload or table within the buffer under
/// construction (used where stock FlatBuffers uses Offset<T>).
struct Ref {
  uint32_t pos = 0;
  [[nodiscard]] bool valid() const noexcept { return pos != 0; }
};

class Builder {
 public:
  Builder() : buffer_(4, 0) {}  // room for the root-position word

  /// Appends a string payload; returns its position.
  Ref CreateString(std::string_view text);

  /// Appends a vector of scalars; returns its position.
  template <typename T>
  Ref CreateVector(const T* data, size_t count) {
    static_assert(is_scalar_v<T>);
    AlignTo(4);
    const auto pos = static_cast<uint32_t>(buffer_.size());
    AppendScalar<uint32_t>(static_cast<uint32_t>(count));
    const size_t bytes = count * sizeof(T);
    const size_t at = buffer_.size();
    buffer_.resize(at + bytes);
    if (bytes > 0) std::memcpy(buffer_.data() + at, data, bytes);
    AlignTo(4);
    return Ref{pos};
  }

  /// Appends an uninitialized scalar vector and exposes its storage, so
  /// callers can generate content directly into the message (FlatBuffers'
  /// CreateUninitializedVector — the API its zero-copy construction needs).
  template <typename T>
  std::pair<Ref, T*> CreateUninitializedVector(size_t count) {
    static_assert(is_scalar_v<T>);
    AlignTo(4);
    const auto pos = static_cast<uint32_t>(buffer_.size());
    AppendScalar<uint32_t>(static_cast<uint32_t>(count));
    const size_t at = buffer_.size();
    buffer_.resize(at + count * sizeof(T));
    AlignTo(4);
    return {Ref{pos}, reinterpret_cast<T*>(buffer_.data() + at)};
  }

  /// Appends a vector of references (tables or strings).
  Ref CreateRefVector(const std::vector<Ref>& refs);

  /// Starts a table with `field_count` slots; add fields then FinishTable.
  void StartTable(size_t field_count);
  void AddScalarSlot(size_t slot, const void* value, size_t size,
                     size_t align);
  template <typename T>
  void AddScalar(size_t slot, T value) {
    static_assert(is_scalar_v<T>);
    AddScalarSlot(slot, &value, sizeof(T), alignof(T));
  }
  void AddRef(size_t slot, Ref ref);
  /// Writes table + vtable; returns the table position.
  Ref FinishTable();

  /// Stamps `root` into the header word and releases the buffer.
  std::vector<uint8_t> Finish(Ref root);

  [[nodiscard]] size_t size() const noexcept { return buffer_.size(); }

 private:
  struct PendingField {
    size_t slot = 0;
    bool is_ref = false;
    Ref ref;
    size_t size = 0;
    size_t align = 0;
    uint8_t inline_value[8] = {};
  };

  void AlignTo(size_t align);
  template <typename T>
  void AppendScalar(T value) {
    const size_t at = buffer_.size();
    buffer_.resize(at + sizeof(T));
    StoreLE(buffer_.data() + at, value);
  }

  std::vector<uint8_t> buffer_;
  std::vector<PendingField> pending_;
  size_t pending_field_count_ = 0;
  bool table_open_ = false;
};

/// Read-side accessors (stock FlatBuffers' generated accessors do exactly
/// these lookups).
class TableView {
 public:
  TableView() = default;
  TableView(const uint8_t* buffer, uint32_t table_pos)
      : buffer_(buffer), table_pos_(table_pos) {}

  [[nodiscard]] bool valid() const noexcept { return buffer_ != nullptr; }

  /// Slot offset within the table; 0 if the field is absent.
  [[nodiscard]] uint16_t SlotOffset(size_t slot) const;

  template <typename T>
  [[nodiscard]] T GetScalar(size_t slot, T fallback = T{}) const {
    const uint16_t off = SlotOffset(slot);
    if (off == 0) return fallback;
    return LoadLE<T>(buffer_ + table_pos_ + off);
  }

  [[nodiscard]] std::string_view GetString(size_t slot) const;

  template <typename T>
  [[nodiscard]] std::pair<const T*, size_t> GetVector(size_t slot) const {
    const uint32_t payload = RefTarget(slot);
    if (payload == 0) return {nullptr, 0};
    const auto count = LoadLE<uint32_t>(buffer_ + payload);
    return {reinterpret_cast<const T*>(buffer_ + payload + 4), count};
  }

  [[nodiscard]] TableView GetTable(size_t slot) const;
  [[nodiscard]] TableView GetTableElement(size_t slot, size_t index) const;
  [[nodiscard]] size_t GetRefVectorSize(size_t slot) const;

  [[nodiscard]] uint32_t table_pos() const noexcept { return table_pos_; }

 private:
  // Absolute position of the payload a reference slot points to; 0 = absent.
  [[nodiscard]] uint32_t RefTarget(size_t slot) const;

  const uint8_t* buffer_ = nullptr;
  uint32_t table_pos_ = 0;
};

/// Root table of a finished buffer.
TableView GetRoot(const uint8_t* buffer, size_t size);

// ---- generic bridges (tests + benches): struct <-> flatbuffer ----

namespace internal {

template <Message M>
Ref BuildTable(Builder& builder, const M& msg);

template <typename T>
Ref BuildPayload(Builder& builder, const T& field) {
  if constexpr (is_string_like_v<T>) {
    return builder.CreateString(std::string_view(field.data(), field.size()));
  } else if constexpr (is_vector_like_v<T> || is_std_array_v<T>) {
    using E = element_of_t<T>;
    if constexpr (is_scalar_v<E>) {
      return builder.CreateVector(field.data(), field.size());
    } else {
      std::vector<Ref> refs;
      refs.reserve(field.size());
      for (const auto& element : field) {
        refs.push_back(BuildPayload(builder, element));
      }
      return builder.CreateRefVector(refs);
    }
  } else {
    return BuildTable(builder, field);
  }
}

template <Message M>
Ref BuildTable(Builder& builder, const M& msg) {
  // Reference payloads must be finished before the table that points at
  // them (same ordering constraint stock FlatBuffers imposes).
  std::vector<Ref> refs;
  msg.for_each_field([&](const char*, const auto& field) {
    using T = std::decay_t<decltype(field)>;
    if constexpr (!is_scalar_v<T>) {
      refs.push_back(BuildPayload(builder, field));
    }
  });

  builder.StartTable(FieldCount(msg));
  size_t slot = 0;
  size_t ref_index = 0;
  msg.for_each_field([&](const char*, const auto& field) {
    using T = std::decay_t<decltype(field)>;
    if constexpr (is_scalar_v<T>) {
      builder.AddScalar(slot, field);
    } else {
      builder.AddRef(slot, refs[ref_index++]);
    }
    ++slot;
  });
  return builder.FinishTable();
}

template <Message M>
Status ReadTable(const TableView& table, M& msg);

template <typename T>
Status ReadPayload(const TableView& table, size_t slot, T& field) {
  if constexpr (is_scalar_v<T>) {
    field = table.GetScalar<T>(slot);
    return Status::Ok();
  } else if constexpr (is_string_like_v<T>) {
    field = table.GetString(slot);
    return Status::Ok();
  } else if constexpr (is_vector_like_v<T> || is_std_array_v<T>) {
    using E = element_of_t<T>;
    if constexpr (is_scalar_v<E>) {
      const auto [data, count] = table.GetVector<E>(slot);
      if constexpr (is_std_array_v<T>) {
        if (count != field.size()) {
          return InvalidArgumentError("fixed array count mismatch");
        }
        std::memcpy(field.data(), data, count * sizeof(E));
      } else {
        field.resize(count);
        if (count > 0) std::memcpy(field.data(), data, count * sizeof(E));
      }
      return Status::Ok();
    } else {
      const size_t count = table.GetRefVectorSize(slot);
      field.resize(count);
      for (size_t i = 0; i < count; ++i) {
        RSF_RETURN_IF_ERROR(
            ReadTable(table.GetTableElement(slot, i), field[i]));
      }
      return Status::Ok();
    }
  } else {
    return ReadTable(table.GetTable(slot), field);
  }
}

template <Message M>
Status ReadTable(const TableView& table, M& msg) {
  if (!table.valid()) return InvalidArgumentError("absent sub-table");
  Status status;
  size_t slot = 0;
  msg.for_each_field([&](const char*, auto& field) {
    if (status.ok()) status = ReadPayload(table, slot, field);
    ++slot;
  });
  return status;
}

}  // namespace internal

/// Builds a flatbuffer from any generated message struct.
template <Message M>
std::vector<uint8_t> BuildFromMessage(const M& msg) {
  Builder builder;
  const Ref root = internal::BuildTable(builder, msg);
  return builder.Finish(root);
}

/// Reconstructs a struct from a flatbuffer (round-trip testing; real
/// FlatBuffers consumers would stay on the accessor API instead).
template <Message M>
Status ReadIntoMessage(const uint8_t* buffer, size_t size, M& msg) {
  const TableView root = GetRoot(buffer, size);
  if (!root.valid()) return InvalidArgumentError("bad flatbuffer root");
  return internal::ReadTable(root, msg);
}

}  // namespace rsf::ser::fb
