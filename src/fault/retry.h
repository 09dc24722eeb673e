// Shared retry discipline for fault-tolerant layers (RPC, staged copies).
//
// Backoff jitter comes from the armed plan's PRNG via fault::mix — never
// from wall time — so a retried schedule replays exactly alongside the
// fault schedule that triggered it.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "src/common/clock.h"
#include "src/common/status.h"
#include "src/common/thread_annotations.h"

namespace griddles::fault {

/// Capped exponential backoff with deterministic jitter.
struct RetryPolicy {
  int max_attempts = 4;
  Duration initial_backoff = from_seconds_d(0.002);
  double multiplier = 2.0;
  Duration max_backoff = from_seconds_d(0.050);

  /// Transient codes worth retrying. kDataLoss is deliberately excluded:
  /// a verifiably-wrong payload needs a different source (failover or
  /// stage re-run), not the same request again. kResourceExhausted and
  /// kDeadlineExceeded are excluded by design: a shed response means
  /// the server is overloaded *right now*, and retrying it is exactly
  /// the storm the RetryBudget below exists to prevent; an exhausted
  /// budget cannot be fixed by burning more of it.
  static bool retryable(ErrorCode code) noexcept {
    return code == ErrorCode::kUnavailable || code == ErrorCode::kTimeout;
  }

  /// Backoff before attempt `attempt` (1-based: the wait after the
  /// attempt-th failure). Exponential, capped, scaled by a jitter factor
  /// in [0.5, 1.0) derived from mix(plan seed, jitter_key, attempt) — a
  /// pure function, so replays are byte-identical.
  Duration backoff(int attempt, std::uint64_t jitter_key) const;
};

/// Bumps the process-wide `retry.attempts` counter (call once per retry,
/// i.e. per attempt after the first).
void note_retry_attempt();

/// Anti-retry-storm token buckets, one per peer key (DESIGN.md §14).
///
/// Every *fresh* request earns `earn_per_fresh` tokens for its peer
/// (capped at `burst`); every retry spends one whole token. When a
/// peer's bucket is dry the retry is denied — the caller surfaces the
/// original error instead — so in steady state retries can never exceed
/// `earn_per_fresh` of the fresh-request rate toward that peer, no
/// matter how many independent retry loops share it.
class RetryBudget {
 public:
  struct Options {
    double earn_per_fresh = 0.1;  // tokens earned per fresh request
    double burst = 8.0;           // bucket cap (and initial fill)
  };

  RetryBudget() : RetryBudget(Options()) {}
  explicit RetryBudget(Options options) : options_(options) {}

  /// The process-wide budget shared by RPC clients and the copier.
  static RetryBudget& global();

  /// Credits one fresh (non-retry) request toward `peer_key`.
  void note_fresh(std::uint64_t peer_key);

  /// Spends one token for a retry; false (and a bump of
  /// `retry.budget.exhausted`) when the peer's bucket is dry.
  bool acquire(std::uint64_t peer_key);

  /// Current balance (tests); new buckets start at `burst`.
  double tokens(std::uint64_t peer_key) const;

  /// Refills every bucket (tests).
  void reset();

 private:
  double& bucket_locked(std::uint64_t peer_key) REQUIRES(mu_);

  const Options options_;
  mutable Mutex mu_ ACQUIRED_BEFORE("MetricsRegistry::mu_");
  std::unordered_map<std::uint64_t, double> tokens_ GUARDED_BY(mu_);
};

}  // namespace griddles::fault
