// Fixed-buffer move-only callable, the event queue's workhorse.
//
// Every scheduled event used to carry a std::function whose capture state
// lived in a fresh heap block; at millions of events per second the
// allocator became a first-order cost. InlineFn stores its callable
// directly inside the object and never allocates: a callable that does
// not fit Capacity bytes is a compile error, not a silent heap box.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace prism::sim {

template <typename Sig, std::size_t Capacity = 120>
class InlineFn;

/// Move-only callable wrapper with `Capacity` bytes of inline storage.
///
/// Only a callable that fits is accepted: at most Capacity bytes,
/// aligned no stricter than max_align_t, and nothrow-move-constructible
/// (moves happen inside noexcept queue operations). The constructor is
/// constrained on that contract, so for anything else it does not exist
/// (std::is_constructible_v is false) and the call site fails to
/// compile. Unlike std::function, InlineFn never copies — which is
/// exactly what a fire-once event callback needs.
template <typename R, typename... Args, std::size_t Capacity>
class InlineFn<R(Args...), Capacity> {
 public:
  static constexpr std::size_t kInlineCapacity = Capacity;

  /// Whether a callable of type D meets the storage contract.
  template <typename D>
  static constexpr bool fits_inline() noexcept {
    return sizeof(D) <= Capacity &&
           alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  InlineFn() noexcept = default;
  InlineFn(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F, typename D = std::decay_t<F>>
    requires(!std::is_same_v<D, InlineFn> &&
             std::is_invocable_r_v<R, D&, Args...> && fits_inline<D>())
  InlineFn(F&& f) {  // NOLINT(google-explicit-constructor)
    emplace(std::forward<F>(f));
  }

  InlineFn(InlineFn&& other) noexcept { steal(other); }

  InlineFn& operator=(InlineFn&& other) noexcept {
    if (this != &other) {
      reset();
      steal(other);
    }
    return *this;
  }

  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;

  ~InlineFn() { reset(); }

  /// Destroys the held callable, then constructs `f` directly in this
  /// object's storage — no temporary InlineFn, no relocation. If the
  /// construction throws, the object is left empty.
  template <typename F, typename D = std::decay_t<F>>
    requires(!std::is_same_v<D, InlineFn> &&
             std::is_invocable_r_v<R, D&, Args...> && fits_inline<D>())
  void emplace(F&& f) {
    reset();
    ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
    ops_ = &kOps<D>;
  }

  /// Destroys the held callable (no-op when empty).
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  R operator()(Args... args) {
    return ops_->invoke(buf_, std::forward<Args>(args)...);
  }

 private:
  struct Ops {
    R (*invoke)(void*, Args&&...);
    /// Move-constructs the callable at dst from src, destroying src.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void*) noexcept;
  };

  template <typename D>
  static constexpr Ops kOps = {
      [](void* p, Args&&... args) -> R {
        return (*static_cast<D*>(p))(std::forward<Args>(args)...);
      },
      [](void* dst, void* src) noexcept {
        D* s = static_cast<D*>(src);
        ::new (dst) D(std::move(*s));
        s->~D();
      },
      [](void* p) noexcept { static_cast<D*>(p)->~D(); },
  };

  void steal(InlineFn& other) noexcept {
    if (other.ops_ != nullptr) {
      other.ops_->relocate(buf_, other.buf_);
      ops_ = other.ops_;
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[Capacity];
  const Ops* ops_ = nullptr;
};

}  // namespace prism::sim
