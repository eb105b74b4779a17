#ifndef CQLOPT_UTIL_CANCEL_H_
#define CQLOPT_UTIL_CANCEL_H_

#include <atomic>
#include <memory>

namespace cqlopt {

/// A copyable cancellation handle shared between the thread running a
/// cooperative operation (the bottom-up fixpoints of eval/seminaive.h) and
/// any thread that may want to abort it. The default-constructed token is
/// *inert*: it can never be cancelled and costs nothing to check, so
/// embedding one in EvalOptions leaves ungoverned evaluations untouched.
///
/// Usage:
///   CancelToken token = CancelToken::Cancellable();
///   options.cancel = token;                // copies share the flag
///   ... from another thread: token.RequestCancel();
///
/// Cancellation is cooperative and sticky: once requested it cannot be
/// withdrawn, and the governed operation observes it at its next check
/// point (iteration and rule-batch boundaries, and every few dozen
/// derivations inside rule application), returning StatusCode::kCancelled.
class CancelToken {
 public:
  /// Inert token: cancel_requested() is permanently false.
  CancelToken() = default;

  /// A live token whose copies all observe the same flag.
  static CancelToken Cancellable() {
    CancelToken token;
    token.flag_ = std::make_shared<std::atomic<bool>>(false);
    return token;
  }

  /// Requests cancellation. No-op on an inert token.
  void RequestCancel() const {
    if (flag_ != nullptr) flag_->store(true, std::memory_order_relaxed);
  }

  bool cancel_requested() const {
    return flag_ != nullptr && flag_->load(std::memory_order_relaxed);
  }

  /// True when this token can ever fire (i.e. was made Cancellable).
  bool can_cancel() const { return flag_ != nullptr; }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

}  // namespace cqlopt

#endif  // CQLOPT_UTIL_CANCEL_H_
