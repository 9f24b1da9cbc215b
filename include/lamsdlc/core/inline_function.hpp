#pragma once
/// \file inline_function.hpp
/// \brief Move-only `void()` callable with small-buffer-optimized storage.
///
/// `std::function` heap-allocates for captures beyond ~2 pointers, and its
/// copyability forces every target to be copy-constructible.  The event
/// kernel needs neither: simulator callbacks are scheduled once, moved
/// through the heap, invoked once and destroyed.  `InlineFunction` stores
/// targets up to `SboBytes` (pointer-aligned, nothrow-movable) directly in
/// the object — the common protocol lambdas (`this` plus a couple of ints,
/// or `this` + epoch + a pool index) never touch the allocator.  Fat or
/// throwing-move targets fall back to a single heap allocation, so any
/// callable still works.
///
/// The type-erasure is a three-entry ops table (invoke / relocate /
/// destroy); relocation is what the kernel pays to move an event into its
/// slot and out again to fire it.  A target that is trivially copyable and
/// destructible (the usual `this` + integers capture) and a heap target's
/// pointer relocate by a plain copy of the buffer with nothing to destroy,
/// so their null table entries spare the indirect calls; other inline
/// targets relocate with their own move constructor.

#include <cstddef>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace lamsdlc::core {

template <std::size_t SboBytes = 48>
class InlineFunction {
  static_assert(SboBytes >= sizeof(void*), "buffer must hold a heap pointer");

 public:
  InlineFunction() noexcept = default;

  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, InlineFunction> &&
             std::is_invocable_r_v<void, std::decay_t<F>&>)
  InlineFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    using T = std::decay_t<F>;
    if constexpr (fits_inline<T>()) {
      ::new (static_cast<void*>(buf_)) T(std::forward<F>(f));
      ops_ = &inline_ops<T>;
    } else {
      ::new (static_cast<void*>(buf_)) T*(new T(std::forward<F>(f)));
      ops_ = &heap_ops<T>;
    }
  }

  InlineFunction(InlineFunction&& o) noexcept : ops_{o.ops_} {
    if (ops_ != nullptr) {
      relocate_from(o);
      o.ops_ = nullptr;
    }
  }

  InlineFunction& operator=(InlineFunction&& o) noexcept {
    if (this != &o) {
      reset();
      ops_ = o.ops_;
      if (ops_ != nullptr) {
        relocate_from(o);
        o.ops_ = nullptr;
      }
    }
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { reset(); }

  void operator()() { ops_->invoke(buf_); }

  [[nodiscard]] explicit operator bool() const noexcept {
    return ops_ != nullptr;
  }

  /// True when the target lives in the inline buffer (diagnostic; lets the
  /// tests pin down which captures are allocation-free).
  [[nodiscard]] bool is_inline() const noexcept {
    return ops_ != nullptr && ops_->inline_storage;
  }

  /// Largest inline-stored target size, for static_asserts at call sites.
  static constexpr std::size_t capacity() noexcept { return SboBytes; }

 private:
  struct Ops {
    void (*invoke)(void*);
    /// Move-construct the target from `src` storage into `dst` storage and
    /// destroy the source (an event moving into or out of its slot).
    void (*relocate)(void* dst, void* src) noexcept;  ///< Null: copy bytes.
    void (*destroy)(void*) noexcept;                   ///< Null: no-op.
    bool inline_storage;
  };

  template <typename T>
  static constexpr bool fits_inline() {
    return sizeof(T) <= SboBytes && alignof(T) <= alignof(void*) &&
           std::is_nothrow_move_constructible_v<T>;
  }

  template <typename T>
  static constexpr bool trivial() {
    return std::is_trivially_copyable_v<T> &&
           std::is_trivially_destructible_v<T>;
  }

  template <typename T>
  static constexpr Ops inline_ops = {
      [](void* p) { (*std::launder(reinterpret_cast<T*>(p)))(); },
      trivial<T>() ? nullptr
                   : +[](void* dst, void* src) noexcept {
                       T* s = std::launder(reinterpret_cast<T*>(src));
                       ::new (dst) T(std::move(*s));
                       s->~T();
                     },
      trivial<T>() ? nullptr
                   : +[](void* p) noexcept {
                       std::launder(reinterpret_cast<T*>(p))->~T();
                     },
      true,
  };

  template <typename T>
  static constexpr Ops heap_ops = {
      [](void* p) { (**std::launder(reinterpret_cast<T**>(p)))(); },
      nullptr,  // the buffer holds just the pointer
      [](void* p) noexcept { delete *std::launder(reinterpret_cast<T**>(p)); },
      false,
  };

  void relocate_from(InlineFunction& o) noexcept {
    if (ops_->relocate != nullptr) {
      ops_->relocate(buf_, o.buf_);
    } else {
      // The whole buffer, so the copy is a fixed handful of moves; bytes
      // past the target's size are unused and may be indeterminate.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
      std::memcpy(buf_, o.buf_, SboBytes);
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
    }
  }

  void reset() noexcept {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  alignas(void*) std::byte buf_[SboBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace lamsdlc::core
