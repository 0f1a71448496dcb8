// The DES handler type: a move-only void() callable with a small buffer.
//
// A header of its own so the Env timer interface (net/env.hpp) can take
// the engine's handler type without including the engine: a SimEnv timer
// goes into the calendar as-is, so no timer is type-erased twice.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace gc::des {

/// Move-only callable of signature void() with a small-buffer optimization
/// sized so every handler the middleware schedules on its message path
/// (including SimEnv's delivery lambda, which carries a whole Envelope)
/// stays inline. Larger callables fall back to one heap allocation, like
/// std::function.
class EventFn {
 public:
  EventFn() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, EventFn> &&
                std::is_invocable_v<std::remove_cvref_t<F>&>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor): drop-in for
                    // std::function at every schedule_* call site
    using Fn = std::remove_cvref_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      invoke_ = [](void* p) { (*std::launder(reinterpret_cast<Fn*>(p)))(); };
      relocate_ = [](void* dst, void* src) {
        Fn* from = std::launder(reinterpret_cast<Fn*>(src));
        ::new (dst) Fn(std::move(*from));
        from->~Fn();
      };
      destroy_ = [](void* p) { std::launder(reinterpret_cast<Fn*>(p))->~Fn(); };
    } else {
      Fn* heap = new Fn(std::forward<F>(f));
      std::memcpy(storage_, &heap, sizeof heap);
      invoke_ = [](void* p) {
        Fn* fn;
        std::memcpy(&fn, p, sizeof fn);
        (*fn)();
      };
      relocate_ = [](void* dst, void* src) {
        std::memcpy(dst, src, sizeof(Fn*));  // ownership moves with the ptr
      };
      destroy_ = [](void* p) {
        Fn* fn;
        std::memcpy(&fn, p, sizeof fn);
        delete fn;
      };
    }
  }

  EventFn(EventFn&& other) noexcept { move_from(other); }

  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { reset(); }

  /// Destroys the held callable (releasing its captures) immediately.
  void reset() noexcept {
    if (destroy_ != nullptr) destroy_(storage_);
    invoke_ = nullptr;
    relocate_ = nullptr;
    destroy_ = nullptr;
  }

  [[nodiscard]] explicit operator bool() const noexcept {
    return invoke_ != nullptr;
  }

  void operator()() { invoke_(storage_); }

 private:
  /// Sized for SimEnv's per-message delivery lambda in GC_CHECK builds
  /// (captured Envelope + stream bookkeeping = 88 bytes since the
  /// envelope gained its out-of-band flag).
  static constexpr std::size_t kInlineBytes = 88;

  void move_from(EventFn& other) noexcept {
    invoke_ = other.invoke_;
    relocate_ = other.relocate_;
    destroy_ = other.destroy_;
    if (relocate_ != nullptr) relocate_(storage_, other.storage_);
    other.invoke_ = nullptr;
    other.relocate_ = nullptr;
    other.destroy_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  void (*invoke_)(void*) = nullptr;
  /// Move-constructs the payload into dst and destroys the src payload.
  void (*relocate_)(void* dst, void* src) = nullptr;
  void (*destroy_)(void*) = nullptr;
};

}  // namespace gc::des
