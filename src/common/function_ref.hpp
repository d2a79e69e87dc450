// FunctionRef: a non-owning reference to a callable.
//
// Hot query paths take short-lived predicates (the Correlator-List cache's
// shard-absence probe, a serving loop's "would I fetch this file?" test)
// that only live for one call. std::function would allocate or copy the
// closure; a FunctionRef is two words, a context pointer and a trampoline,
// and never allocates. Like std::string_view it must not outlive what it
// refers to: bind it to a callable that stays alive for the whole call, as
// a lambda passed straight into the function taking it does.
#pragma once

#include <concepts>
#include <type_traits>
#include <utility>

namespace farmer {

template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  // Constrained so this can never hijack copy construction (Fn =
  // FunctionRef) or bind a non-callable: the stored pointer must address a
  // genuine R(Args...) callable that outlives the reference.
  template <typename Fn>
    requires(!std::same_as<std::remove_cvref_t<Fn>, FunctionRef> &&
             std::is_invocable_r_v<R, const Fn&, Args...>)
  FunctionRef(const Fn& fn) noexcept  // NOLINT(google-explicit-constructor)
      : ctx_(&fn), call_([](const void* ctx, Args... args) -> R {
          return (*static_cast<const Fn*>(ctx))(std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(ctx_, std::forward<Args>(args)...);
  }

 private:
  const void* ctx_;
  R (*call_)(const void*, Args...);
};

}  // namespace farmer
