// serving::InferenceServer — the request-level serving runtime above
// nn::BatchedGenerationScheduler (docs/serving.md).
//
// The server is the one owner of every request, from submit() to its
// result; the scheduler holds only the slots it seats admissions in. This
// layer adds the notion of a *request* arriving, waiting, being
// admitted, timing out, being cancelled — the continuous-batching
// runtime that keeps the fused decode tick's batch full under real
// traffic (the throughput story of serving-oriented transformer stacks,
// Li et al. 2021):
//
//   - a bounded admission queue with explicit backpressure: submit() on a
//     full queue finishes the request immediately with
//     StopReason::kRejected instead of growing without bound;
//   - priority classes (interactive > normal > bulk), FIFO within class;
//   - per-request deadlines — a queue-wait budget and an end-to-end
//     budget, both checked at admission and at the top of every tick;
//   - cancellation of queued or active requests (emitted tokens kept);
//   - streaming per-token callbacks, invoked on the drive thread in
//     deterministic (admission) order;
//   - a MetricsRegistry snapshot of the whole lifecycle.
//
// Overload and fault resilience (docs/robustness.md) — three mechanisms,
// one state machine:
//   - priority preemption with recompute-resume: when a strictly
//     higher-priority arrival finds every slot occupied, the
//     lowest-priority, most-recently-admitted active request is
//     preempted — its KV slot released, the request requeued at the HEAD
//     of its class carrying its transcript; on re-admission the
//     scheduler replays that transcript through the fused tick to
//     rebuild the KV, so the resumed transcript is bit-identical to an
//     uninterrupted run. A per-request preemption cap turns the
//     (cap+1)th preemption into StopReason::kPreemptionLimit;
//   - fault retry with bounded backoff: a kernel-fault retirement with
//     retry budget left becomes a requeue-with-recompute after
//     retry_backoff_ticks instead of a terminal kKernelFault;
//   - load shedding: submit() estimates queue wait from per-class queue
//     depths and fast-rejects requests whose queue budget cannot be met
//     (RejectReason::kShed), and health() summarizes the server as
//     healthy / degraded / overloaded in the metrics snapshot.
//
// Time is LOGICAL: the clock is the server's own tick counter, so a
// fixed arrival script and thread count reproduce the same admissions,
// expiries, transcripts and metrics bit for bit, run after run — the
// repo's determinism spine extended to the serving layer. Budgets are
// therefore expressed in ticks (one tick ≈ one decoded token per active
// request); wall-clock serving would wrap this runtime and map budgets
// through its token cadence.
//
// Threading model: the drive loop (tick/drain/wait) is single-threaded —
// host parallelism lives inside the scheduler's ExecContext-partitioned
// kernels (docs/threading.md), which is what keeps the runtime
// TSan-clean and its output thread-count-independent. submit/cancel/poll
// are called from the same thread between ticks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <string_view>
#include <vector>

#include "core/exec_context.hpp"
#include "nn/batched_generation.hpp"
#include "serving/metrics.hpp"

namespace et::serving {

/// Admission priority class. Lower value = served first; FIFO within a
/// class. A full queue rejects regardless of class (backpressure is
/// about total memory, not importance); a sustained stream of
/// interactive arrivals can starve bulk — by design, bulk work should
/// carry deadlines.
enum class Priority : std::uint8_t {
  kInteractive = 0,
  kNormal = 1,
  kBulk = 2,
};

inline constexpr std::size_t kPriorityClasses = 3;

[[nodiscard]] constexpr std::string_view to_string(Priority p) noexcept {
  switch (p) {
    case Priority::kInteractive: return "interactive";
    case Priority::kNormal: return "normal";
    case Priority::kBulk: return "bulk";
  }
  return "?";
}

/// "No budget": the request waits / runs for as long as it takes.
inline constexpr std::size_t kNoBudget = static_cast<std::size_t>(-1);

/// Sentinel tick for "never happened" in RequestStatus.
inline constexpr std::size_t kNoTick = static_cast<std::size_t>(-1);

/// Streaming sink: called once per emitted token, on the drive thread,
/// in deterministic order (admission order within a tick). `index` is
/// the token's position in the request's output (0-based).
using TokenCallback =
    std::function<void(std::uint64_t request_id, std::int32_t token,
                       std::size_t index)>;

/// One serving request: the shared nn::DecodeParams generation job
/// (first_token / max_new_tokens / embed / select / eos_token — the same
/// fields the scheduler's GenerationRequest carries, by construction)
/// plus the serving envelope below.
struct Request : nn::DecodeParams {
  Priority priority = Priority::kNormal;
  /// Max whole ticks the request may wait in the queue before admission;
  /// exceeded => StopReason::kDeadlineExceeded with no tokens. After a
  /// preemption or retry the budget applies to each queue STINT, not the
  /// cumulative wait — a preempted request is not punished for time it
  /// already spent decoding.
  std::size_t queue_budget_ticks = kNoBudget;
  /// Max ticks from submission to completion; exceeded => the request
  /// finishes with kDeadlineExceeded, keeping the tokens emitted so far.
  std::size_t total_budget_ticks = kNoBudget;
  /// Kernel-fault retries this request may spend. A fault retirement with
  /// budget left is requeued (recompute-resume) instead of finishing with
  /// StopReason::kKernelFault; only when the budget is exhausted does the
  /// fault become terminal.
  std::size_t retry_budget = 0;
  /// Ticks a faulted request sits out before it is eligible for
  /// re-admission (bounded backoff; 0 = next tick).
  std::size_t retry_backoff_ticks = 0;
  /// Optional streaming sink.
  TokenCallback on_token;
};

struct RequestHandle {
  std::uint64_t id = 0;
  friend bool operator==(RequestHandle, RequestHandle) = default;
};

/// kPreempted is "queued again with progress": the request sits in its
/// class queue carrying the tokens an earlier slot tenure emitted, and
/// will rebuild its KV by replaying them on re-admission. A retrying
/// (faulted) request goes back to plain kQueued — the distinction is
/// WHY the slot was lost, and kPreempted is the one callers may want to
/// observe (e.g. to stop feeding a repeatedly-displaced bulk job).
enum class RequestState : std::uint8_t {
  kQueued,
  kActive,
  kPreempted,
  kFinished,
};

[[nodiscard]] constexpr std::string_view to_string(RequestState s) noexcept {
  switch (s) {
    case RequestState::kQueued: return "queued";
    case RequestState::kActive: return "active";
    case RequestState::kPreempted: return "preempted";
    case RequestState::kFinished: return "finished";
  }
  return "?";
}

/// Why submit() refused admission (kNone for everything admitted).
/// kShed is the load-shedding fast path: the queue had room, but even a
/// lower-bound estimate of the queue wait (eligible backlog at or above
/// the request's class vs the capacity the next tick frees — free
/// slots, expiring occupants, preemptible victims — then max_batch
/// admissions per tick) already exceeded the request's queue budget, so
/// it was refused at the door instead of being left to expire after
/// waiting.
enum class RejectReason : std::uint8_t { kNone, kQueueFull, kShed };

[[nodiscard]] constexpr std::string_view to_string(RejectReason r) noexcept {
  switch (r) {
    case RejectReason::kNone: return "none";
    case RejectReason::kQueueFull: return "queue_full";
    case RejectReason::kShed: return "shed";
  }
  return "?";
}

/// Coarse load summary exported as the `health` gauge (0/1/2):
/// healthy = nothing waiting; degraded = a backlog exists but the queue
/// has room; overloaded = the queue is at (or beyond) capacity, so new
/// arrivals are being rejected or shed.
enum class ServerHealth : std::uint8_t { kHealthy, kDegraded, kOverloaded };

[[nodiscard]] constexpr std::string_view to_string(ServerHealth h) noexcept {
  switch (h) {
    case ServerHealth::kHealthy: return "healthy";
    case ServerHealth::kDegraded: return "degraded";
    case ServerHealth::kOverloaded: return "overloaded";
  }
  return "?";
}

/// Poll view of one request's lifecycle.
struct RequestStatus {
  RequestState state = RequestState::kQueued;
  RejectReason reject_reason = RejectReason::kNone;
  Priority priority = Priority::kNormal;
  std::size_t submitted_tick = 0;
  std::size_t admitted_tick = kNoTick;  ///< kNoTick until first admission
  std::size_t finished_tick = kNoTick;  ///< kNoTick until finished
  std::size_t tokens_emitted = 0;
  std::size_t preemptions = 0;  ///< times displaced by a higher class
  std::size_t retries = 0;      ///< kernel-fault retries consumed
};

struct ServerConfig {
  std::size_t max_batch = 8;      ///< decode slots (scheduler batch)
  std::size_t queue_capacity = 64;  ///< bounded admission queue, all classes
  /// Let strictly higher-priority arrivals displace active work when no
  /// slot is free (recompute-resume; docs/robustness.md).
  bool enable_preemption = true;
  /// Times one request may be preempted before the next displacement
  /// finishes it with StopReason::kPreemptionLimit instead (the bound
  /// that keeps churn from starving a bulk job forever).
  std::size_t preemption_limit = 2;
  /// Fast-reject requests whose queue budget the current backlog already
  /// makes unmeetable (RejectReason::kShed).
  bool enable_shedding = true;
  /// Paged KV pool shape (block size, physical block count, prefix
  /// sharing) handed straight to the scheduler — see core::PagedKVOptions
  /// and docs/serving.md "Paged KV and prefix sharing". Sharing changes
  /// kv_bytes_used only; transcripts and every other metric are
  /// bit-identical with it on or off.
  core::PagedKVOptions kv{};
};

class InferenceServer {
 public:
  /// Constructed from the validated nn::Model handle — weights, options
  /// and the per-slot KV capacity (model.max_context()) all arrive
  /// through the one construction point every decode entry path shares.
  /// The model is copied; the layer vector it borrows must outlive the
  /// server. Throws std::invalid_argument on anything the scheduler
  /// rejects (zero batch).
  InferenceServer(const nn::Model& model, ServerConfig cfg);

  /// Submit a request. Never blocks; on a full queue the request is
  /// REJECTED: it finishes immediately with StopReason::kRejected and
  /// status().reject_reason == kQueueFull. A total budget of zero ticks
  /// likewise finishes immediately (kDeadlineExceeded) — it could never
  /// complete. With shedding enabled, a finite queue budget smaller than
  /// a lower-bound queue-wait estimate is refused up front with
  /// kRejected / RejectReason::kShed: wait 0 iff the eligible backlog
  /// at or above the request's class fits the capacity the next tick
  /// frees (free slots + expiring occupants + preemptible victims),
  /// else 1 + ⌈remainder / max_batch⌉-style ticks beyond that — so a
  /// shed request provably could not have met its budget given the
  /// current queue/slot state (a future cancel() excepted). Throws
  /// std::invalid_argument when max_new_tokens > 0 but embed/select are
  /// empty.
  RequestHandle submit(Request req);

  /// Cancel a queued or active request: it finishes with
  /// StopReason::kCancelled, keeping tokens emitted so far. Returns
  /// false when the request already finished (cancel lost the race).
  bool cancel(RequestHandle h);

  /// One continuous-batching drive step:
  ///   1. expire queued/active requests whose budgets ran out,
  ///   2. backfill every free slot from the queues (priority order,
  ///      FIFO within class),
  ///   3. run one scheduler tick (fused batched decode),
  ///   4. deliver streaming tokens and retire finished requests,
  ///   5. refresh the gauges.
  /// If the scheduler tick throws, the tick still completes steps 4 and
  /// 5, charges the device time recorded before the throw and advances
  /// now(); then the exception propagates.
  void tick(core::ExecContext& ctx);

  /// Drive until every submitted request has finished.
  void drain(core::ExecContext& ctx);

  /// Drive until `h` finishes; returns its result.
  const nn::GenerationResult& wait(RequestHandle h, core::ExecContext& ctx);

  [[nodiscard]] bool finished(RequestHandle h) const;
  [[nodiscard]] RequestStatus status(RequestHandle h) const;
  /// Throws std::logic_error until the request finishes.
  [[nodiscard]] const nn::GenerationResult& result(RequestHandle h) const;

  [[nodiscard]] bool idle() const noexcept;
  [[nodiscard]] std::size_t queue_depth() const noexcept;
  /// Coarse load state derived from the queue backlog (also exported as
  /// the `health` gauge each tick).
  [[nodiscard]] ServerHealth health() const noexcept;
  /// The batched scheduler underneath: slot occupancy, tick counters
  /// and the KV pool.
  [[nodiscard]] const nn::BatchedGenerationScheduler& scheduler()
      const noexcept {
    return sched_;
  }
  /// The logical clock: number of completed drive ticks.
  [[nodiscard]] std::size_t now() const noexcept { return tick_; }

  [[nodiscard]] MetricsRegistry& metrics() noexcept { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const noexcept {
    return metrics_;
  }

 private:
  struct Record {
    Request req;  // embed/select kept until finish (re-admission needs them)
    RequestState state = RequestState::kQueued;
    RejectReason reject_reason = RejectReason::kNone;
    std::size_t submitted_tick = 0;
    std::size_t admitted_tick = kNoTick;  // first admission only
    std::size_t finished_tick = kNoTick;
    std::size_t slot = 0;           // scheduler slot while active
    std::size_t streamed = 0;       // tokens already delivered to on_token
    std::size_t preemptions = 0;    // slot tenures lost to a higher class
    std::size_t retries = 0;        // kernel-fault retries consumed
    std::size_t queued_since_tick = 0;     // start of the current queue stint
    std::size_t earliest_admit_tick = 0;   // retry backoff gate
    std::size_t replay_len = 0;  // transcript length at latest admission
    double admit_device_us = 0.0;   // engine clock at latest admission
    // While the request waits: its transcript (the tokens earlier slot
    // tenures emitted). While a slot holds it: empty — admission moved
    // the transcript into the seat. Once finished: the final outcome.
    nn::GenerationResult result;
  };

  void expire_queued(std::size_t t);
  void expire_active(std::size_t t);
  void admit_from_queues(std::size_t t);
  void harvest(std::size_t t);
  void refresh_gauges();

  /// Seat a request the admission pass took off its queue in a scheduler
  /// slot (DecodeParams are COPIED — a later preemption/retry seats them
  /// again; the transcript is moved into the seat as its replay prefix).
  void admit_one(std::uint64_t id, std::size_t t);
  /// Index into active_ of the preemption victim for an arrival of class
  /// `cls`: lowest priority strictly below `cls`, most recently admitted
  /// among those. active_.size() when nobody is preemptible.
  [[nodiscard]] std::size_t pick_victim(Priority cls) const noexcept;
  /// Displace active_[victim]: release its slot and requeue it at the
  /// head of its class with its transcript as the replay prefix — unless
  /// its preemption cap is already spent, in which case it finishes with
  /// StopReason::kPreemptionLimit. Either way one slot is free after.
  void preempt(std::size_t victim, std::size_t t);
  /// Put an active request back at the head of its class queue in
  /// `state`, holding `transcript`, seatable from `earliest_admit` on.
  void requeue(std::uint64_t id, std::vector<std::int32_t> transcript,
               RequestState state, std::size_t queued_since,
               std::size_t earliest_admit);

  /// Finish a request that is not in a slot (reject / shed / cancel /
  /// queue expiry, and the tail of finish_admitted). The transcript it
  /// holds stays the result's token stream, so a request cancelled while
  /// preempted keeps everything it emitted.
  void finish(std::uint64_t id, nn::StopReason reason, std::size_t t);
  /// Finish an admitted request with the result its slot handed back.
  void finish_admitted(std::uint64_t id, std::size_t t,
                       nn::GenerationResult result, double device_us);

  Record& record(RequestHandle h) { return records_.at(h.id); }
  [[nodiscard]] const Record& record(RequestHandle h) const {
    return records_.at(h.id);
  }

  nn::BatchedGenerationScheduler sched_;
  ServerConfig cfg_;
  std::vector<Record> records_;                       // index == handle id
  std::deque<std::uint64_t> queues_[kPriorityClasses];  // FIFO per class
  std::vector<std::uint64_t> active_;  // admitted, unfinished; admission order
  std::size_t tick_ = 0;
  // This engine's own modeled device time: the change in the device total
  // across each of its scheduler ticks. Engines that share a device
  // (net::Gateway's live and draining engines) and launches made before
  // the engine existed are not charged to it.
  double device_us_ = 0.0;

  MetricsRegistry metrics_;
  // Named handles into metrics_, bound once in the constructor.
  Counter* submitted_ = nullptr;
  Counter* admitted_ = nullptr;
  Counter* completed_ = nullptr;
  Counter* rejected_ = nullptr;
  Counter* cancelled_ = nullptr;
  Counter* expired_ = nullptr;
  Counter* kernel_faults_ = nullptr;
  Counter* preemptions_ = nullptr;
  Counter* retries_ = nullptr;
  Counter* shed_ = nullptr;
  Counter* tokens_emitted_ = nullptr;
  Counter* ticks_ = nullptr;
  Counter* stop_reason_[nn::kStopReasonCount] = {};
  Gauge* queue_depth_gauge_ = nullptr;
  Gauge* active_slots_gauge_ = nullptr;
  Gauge* kv_bytes_gauge_ = nullptr;
  Gauge* kv_bytes_used_gauge_ = nullptr;
  Gauge* throughput_gauge_ = nullptr;
  Gauge* health_gauge_ = nullptr;
  Histogram* queue_wait_ = nullptr;
  Histogram* ttft_ = nullptr;
  Histogram* e2e_ = nullptr;
  Histogram* tokens_per_sec_ = nullptr;
  // Paged-KV observability (registered after everything above so older
  // scalar snapshots stay a prefix of newer ones). kv_bytes_used_peak is
  // the gauge the shared-prefix ablation row gates on: block-granular
  // residency at the tickwise high-water mark, where aliased prefixes
  // count once.
  Gauge* kv_bytes_used_peak_gauge_ = nullptr;
  Gauge* prefix_hits_gauge_ = nullptr;
  Gauge* prefix_shared_tokens_gauge_ = nullptr;
  Gauge* cow_splits_gauge_ = nullptr;
  double kv_used_peak_ = 0.0;
};

}  // namespace et::serving
