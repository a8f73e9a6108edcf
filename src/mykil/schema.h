// The field-list codec behind every format Mykil defines for itself
// (DESIGN.md 3.7): the messages (messages.h) and the records (records.h).
//
// A format is a struct whose MYKIL_FIELDS or MYKIL_RECORD line lists its
// fields in declaration order, which is also wire order. That one list
// drives both directions, encode(ticket) and decode<Ticket>(bytes); the
// field codecs, one per C++ shape, are listed in DESIGN.md 3.7.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <tuple>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "common/error.h"
#include "common/wire.h"
#include "lkh/member_state.h"
#include "lkh/rekey.h"

namespace mykil::core {

template <typename... T>
struct TypeList {};
template <typename... A, typename... B>  // type-level only, inside decltype
TypeList<A..., B...> operator+(TypeList<A...>, TypeList<B...>);
/// The TypeList of an X-macro list of formats.
#define MYKIL_APPEND_TYPE(T) +::mykil::core::TypeList<T>{}
#define MYKIL_TYPE_LIST(X) \
  decltype(::mykil::core::TypeList<>{} X(MYKIL_APPEND_TYPE))

/// Declares a format's ordered fields, spliced inline where it is a field.
#define MYKIL_FIELDS(...)                                            \
  auto fields() { return ::mykil::core::schema::tie(__VA_ARGS__); } \
  auto fields() const { return ::mykil::core::schema::tie(__VA_ARGS__); }
/// Declares a record: a format of its own, length-prefixed where another
/// format holds it.
#define MYKIL_RECORD(...)               \
  static constexpr bool kRecord = true; \
  MYKIL_FIELDS(__VA_ARGS__)

/// A nested format that fills the rest of the body: no length prefix.
template <typename T>
struct Bare {
  T value;
};

using KeyPath = std::vector<lkh::PathKey>;

namespace schema {

/// Whether a format is in a schema list (messages.h, records.h). encode and
/// decode take nothing else, so no format escapes the tests that iterate
/// the lists.
template <typename T>
inline constexpr bool kListed = false;
#define MYKIL_LISTED(T) \
  template <>           \
  inline constexpr bool kListed<T> = true;

/// A field list: references to the fields, adapters by value.
template <typename... F>
auto tie(F&&... f) {
  return std::tuple<F...>(std::forward<F>(f)...);
}

template <typename T, template <typename...> class Of>
inline constexpr bool is_a = false;
template <template <typename...> class Of, typename... A>
inline constexpr bool is_a<Of<A...>, Of> = true;

// Formats owned by lkh travel as their serialized form.
inline Bytes nested(const KeyPath& p) { return lkh::serialize_path(p); }
inline Bytes nested(const lkh::RekeyMessage& m) { return m.serialize(); }
inline Bytes nested(const lkh::MemberKeyState& k) { return k.serialize(); }
inline void read(ByteView b, KeyPath& p) { p = lkh::deserialize_path(b); }
inline void read(ByteView b, lkh::RekeyMessage& m) {
  m = lkh::RekeyMessage::deserialize(b);
}
inline void read(ByteView b, lkh::MemberKeyState& k) {
  k = lkh::MemberKeyState::deserialize(b);
}

template <typename F>
void put(WireWriter& w, const F& f);
template <typename F>
void get(WireReader& r, F& f);

template <typename R>
void put_fields(WireWriter& w, const R& rec) {
  std::apply([&](const auto&... x) { (put(w, x), ...); }, rec.fields());
}

/// Reads the fields in order, then runs the format's own check, if any.
template <typename R>
void get_fields(WireReader& r, R& rec) {
  std::apply([&](auto&&... x) { (get(r, x), ...); }, rec.fields());
  if constexpr (requires { rec.validate(); }) rec.validate();
}

/// Reads `n` elements. Each takes at least one byte, so a count beyond the
/// bytes left is rejected before anything is allocated.
template <typename V>
void get_elements(WireReader& r, V& items, std::uint32_t n) {
  if (n > r.remaining()) throw WireError("count exceeds buffer");
  items.clear();
  for (std::uint32_t i = 0; i < n; ++i) {
    if constexpr (is_a<V, std::vector>) {
      get(r, items.emplace_back());
    } else {
      typename V::key_type key{};
      get(r, key);
      if (items.lower_bound(key) != items.end())
        throw WireError("keys out of order");
      if constexpr (is_a<V, std::map>)
        get(r, items.emplace_hint(items.end(), std::move(key),
                                  typename V::mapped_type{})->second);
      else
        items.emplace_hint(items.end(), std::move(key));
    }
  }
}

template <typename F>
void put(WireWriter& w, const F& f) {
  if constexpr (std::is_same_v<F, bool> || std::is_enum_v<F>)
    w.u8(static_cast<std::uint8_t>(f));
  else if constexpr (std::is_unsigned_v<F> && sizeof(F) == 4)
    w.u32(f);
  else if constexpr (std::is_unsigned_v<F> && sizeof(F) == 8)
    w.u64(f);
  else if constexpr (std::is_same_v<F, Bytes> || std::is_same_v<F, ByteView>)
    w.bytes(f);
  else if constexpr (is_a<F, Bare>)
    w.raw(nested(f.value));
  else if constexpr (requires { nested(f); })
    w.bytes(nested(f));
  else if constexpr (is_a<F, std::pair>)  // a map entry
    put(w, f.first), put(w, f.second);
  else if constexpr (is_a<F, std::optional>)
    f ? (w.u8(1), put(w, *f)) : w.u8(0);
  else if constexpr (is_a<F, std::variant>)
    std::visit(
        [&](const auto& alt) {
          w.u8(static_cast<std::uint8_t>(f.index()));
          put(w, alt);
        },
        f);
  else if constexpr (is_a<F, std::vector> || is_a<F, std::map> ||
                     is_a<F, std::set>) {
    w.u32(static_cast<std::uint32_t>(f.size()));
    for (const auto& x : f) put(w, x);
  } else if constexpr (requires { F::kRecord; }) {
    WireWriter inner;
    put_fields(inner, f);
    w.bytes(inner.data());
  } else {
    put_fields(w, f);
  }
}

/// A bool or presence byte: 0 or 1 only, so no two encodings decode alike
/// and a changed byte never passes unnoticed.
inline bool get_flag(WireReader& r) {
  std::uint8_t v = r.u8();
  if (v > 1) throw WireError("flag byte is neither 0 nor 1");
  return v == 1;
}

template <typename F>
void get(WireReader& r, F& f) {
  if constexpr (std::is_same_v<F, bool>) {
    f = get_flag(r);
  } else if constexpr (std::is_enum_v<F>) {
    static_assert(sizeof(F) == 1, "an enum field travels as one byte");
    std::uint8_t v = r.u8();
    if (v > static_cast<std::uint8_t>(last_value(F{})))
      throw WireError("unknown enumerator");
    f = static_cast<F>(v);
  } else if constexpr (std::is_unsigned_v<F> && sizeof(F) == 4) {
    f = r.u32();
  } else if constexpr (std::is_unsigned_v<F> && sizeof(F) == 8) {
    f = r.u64();
  } else if constexpr (std::is_same_v<F, Bytes>) {
    f = r.bytes();
  } else if constexpr (std::is_same_v<F, ByteView>) {
    f = r.view();
  } else if constexpr (is_a<F, Bare>) {
    read(r.rest(), f.value);
  } else if constexpr (requires { read(r.view(), f); }) {
    read(r.view(), f);
  } else if constexpr (is_a<F, std::optional>) {
    get_flag(r) ? get(r, f.emplace()) : f.reset();
  } else if constexpr (is_a<F, std::variant>) {
    [&]<std::size_t... I>(std::uint8_t kind, std::index_sequence<I...>) {
      if (kind >= sizeof...(I)) throw WireError("unknown message kind");
      ((kind == I ? get(r, f.template emplace<I>()) : void()), ...);
    }(r.u8(), std::make_index_sequence<std::variant_size_v<F>>{});
  } else if constexpr (is_a<F, std::vector> || is_a<F, std::map> ||
                       is_a<F, std::set>) {
    get_elements(r, f, r.u32());
  } else if constexpr (requires { F::kRecord; }) {
    WireReader inner(r.view());
    get_fields(inner, f);
    inner.expect_done();
  } else {
    get_fields(r, f);
  }
}

/// Whether any field is a view into the buffer it was decoded from.
template <typename M>
constexpr bool has_views = []<typename... F>(std::tuple<F...>*) {
  return (std::is_same_v<std::remove_cvref_t<F>, ByteView> || ...);
}(static_cast<decltype(std::declval<M&>().fields())*>(nullptr));

}  // namespace schema

/// The fields of `m`, encoded: for a message, no MAC and no envelope.
template <typename M>
Bytes encode(const M& m) {
  static_assert(schema::kListed<M>, "not a schema message or record");
  WireWriter w;
  schema::put_fields(w, m);
  return w.take();
}

/// Encode record R from values held elsewhere, in R's field order. They
/// must have R's field types, so only same-typed neighbours could trade
/// places. A primary encodes its snapshot straight from its roster.
template <typename R, typename... F>
Bytes encode_fields(const F&... f) {
  static_assert(schema::kListed<R>, "not a schema record");
  static_assert(std::is_same_v<std::tuple<const F&...>,
                               decltype(std::declval<const R&>().fields())>,
                "the values must have R's field types, in order");
  WireWriter w;
  (schema::put(w, f), ...);
  return w.take();
}

/// Decode what encode() wrote, trailing bytes rejected. Views in the result
/// point into `bytes`, so a temporary is rejected at compile time.
template <typename M>
M decode(ByteView bytes) {
  static_assert(schema::kListed<M>, "not a schema message or record");
  WireReader r(bytes);
  M m{};
  schema::get_fields(r, m);
  r.expect_done();
  return m;
}
template <typename M>
  requires schema::has_views<M>
M decode(Bytes&&) = delete;

}  // namespace mykil::core
