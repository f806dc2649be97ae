#include "serving/server.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <utility>

namespace et::serving {

namespace {

/// Power-of-two tick buckets: latency budgets are tick counts, so the
/// interesting range is 1..a few hundred ticks regardless of model size.
std::vector<double> tick_bounds() {
  return {1, 2, 4, 8, 16, 32, 64, 128, 256};
}

/// Decode-rate buckets (tokens per modeled-device second) span the gap
/// between a heavyweight model on one slot and a slim model on a full
/// batch — log-spaced decades.
std::vector<double> rate_bounds() {
  return {1e2, 1e3, 1e4, 1e5, 1e6, 1e7};
}

}  // namespace

InferenceServer::InferenceServer(const nn::Model& model, ServerConfig cfg)
    : sched_(model, cfg.max_batch, cfg.kv), cfg_(cfg) {
  // Registration order fixes the snapshot's field order — the contract
  // et_cli --serve --json and bench/ablation_serving share.
  submitted_ = &metrics_.counter("requests_submitted");
  admitted_ = &metrics_.counter("requests_admitted");
  completed_ = &metrics_.counter("requests_completed");
  rejected_ = &metrics_.counter("requests_rejected");
  cancelled_ = &metrics_.counter("requests_cancelled");
  expired_ = &metrics_.counter("requests_expired");
  kernel_faults_ = &metrics_.counter("kernel_faults");
  preemptions_ = &metrics_.counter("preemptions");
  retries_ = &metrics_.counter("retries");
  shed_ = &metrics_.counter("shed");
  tokens_emitted_ = &metrics_.counter("tokens_emitted");
  ticks_ = &metrics_.counter("ticks");
  for (std::size_t r = 0; r < nn::kStopReasonCount; ++r) {
    stop_reason_[r] = &metrics_.counter(
        "stop_" + std::string(to_string(static_cast<nn::StopReason>(r))));
  }
  queue_depth_gauge_ = &metrics_.gauge("queue_depth");
  active_slots_gauge_ = &metrics_.gauge("active_slots");
  kv_bytes_gauge_ = &metrics_.gauge("kv_bytes");
  kv_bytes_used_gauge_ = &metrics_.gauge("kv_bytes_used");
  throughput_gauge_ = &metrics_.gauge("throughput_tokens_per_sec");
  health_gauge_ = &metrics_.gauge("health");
  queue_wait_ = &metrics_.histogram("queue_wait_ticks", tick_bounds());
  ttft_ = &metrics_.histogram("ttft_ticks", tick_bounds());
  e2e_ = &metrics_.histogram("e2e_ticks", tick_bounds());
  tokens_per_sec_ = &metrics_.histogram("tokens_per_sec", rate_bounds());
  // Paged-KV fields register LAST so older snapshots remain a prefix of
  // the scalar order above (the --json field-order contract).
  kv_bytes_used_peak_gauge_ = &metrics_.gauge("kv_bytes_used_peak");
  prefix_hits_gauge_ = &metrics_.gauge("prefix_hits");
  prefix_shared_tokens_gauge_ = &metrics_.gauge("prefix_shared_tokens");
  cow_splits_gauge_ = &metrics_.gauge("cow_splits");

  kv_bytes_gauge_->set(static_cast<double>(sched_.pool().memory_bytes()));
}

RequestHandle InferenceServer::submit(Request req) {
  if (req.max_new_tokens > 0 && (!req.embed || !req.select)) {
    throw std::invalid_argument(
        "InferenceServer::submit: embed and select are required when "
        "max_new_tokens > 0");
  }
  const RequestHandle h{records_.size()};
  Record rec;
  rec.submitted_tick = tick_;
  rec.queued_since_tick = tick_;
  rec.req = std::move(req);
  records_.push_back(std::move(rec));
  submitted_->inc();

  Record& r = records_.back();
  if (r.req.max_new_tokens == 0) {
    // Nothing to decode: the empty happy path completes without touching
    // the queue or a slot, mirroring the scheduler's own semantics.
    finish(h.id, nn::StopReason::kMaxTokens, tick_);
    completed_->inc();
    return h;
  }
  if (queue_depth() >= cfg_.queue_capacity) {
    // Backpressure: the bounded queue is the only buffer this runtime
    // owns; when it is full the honest answer is an immediate typed
    // rejection, not unbounded growth or silent blocking.
    r.reject_reason = RejectReason::kQueueFull;
    finish(h.id, nn::StopReason::kRejected, tick_);
    rejected_->inc();
    return h;
  }
  if (r.req.total_budget_ticks == 0) {
    // Deadline checked at admission: a zero end-to-end budget can never
    // produce a token, so it expires before it wastes queue space.
    finish(h.id, nn::StopReason::kDeadlineExceeded, tick_);
    expired_->inc();
    return h;
  }
  if (cfg_.enable_shedding && r.req.queue_budget_ticks != kNoBudget) {
    // Load shedding: estimate the queue wait from below, so a shed is
    // provably unmeetable given the current queue and slot state (a
    // future cancel() is the one thing the bound cannot foresee). The
    // request is admitted this very tick (wait 0) iff the eligible
    // backlog at or above its class fits the capacity the next tick
    // frees; otherwise later ticks admit at most max_batch each. If
    // even that optimistic estimate blows the queue budget, refusing
    // now is strictly better than letting the request occupy queue
    // space until it expires — the caller learns immediately and the
    // queue keeps its room for requests that can still make their
    // deadlines.
    //
    // "Eligible" backlog: entries already past a budget expire before
    // the next admission pass, and entries sitting out a retry backoff
    // cannot take a slot next tick — dropping both can only lower the
    // estimate, which keeps it a lower bound.
    std::size_t ahead = 0;
    for (std::size_t c = 0; c <= static_cast<std::size_t>(r.req.priority);
         ++c) {
      for (const std::uint64_t qid : queues_[c]) {
        const Record& o = records_[qid];
        const bool queue_out =
            o.req.queue_budget_ticks != kNoBudget &&
            tick_ - o.queued_since_tick > o.req.queue_budget_ticks;
        const bool total_out =
            o.req.total_budget_ticks != kNoBudget &&
            tick_ - o.submitted_tick >= o.req.total_budget_ticks;
        if (!queue_out && !total_out && o.earliest_admit_tick <= tick_) {
          ++ahead;
        }
      }
    }
    // Next-tick capacity: free slots, plus slots whose occupant's total
    // budget expires at the next tick, plus (with preemption on) every
    // active request this class strictly outranks — displaced or
    // finished at its preemption cap, either way its slot frees.
    std::size_t capacity = sched_.max_batch() - sched_.active();
    for (const std::uint64_t aid : active_) {
      const Record& o = records_[aid];
      const bool expiring =
          o.req.total_budget_ticks != kNoBudget &&
          tick_ - o.submitted_tick >= o.req.total_budget_ticks;
      const bool outranked =
          cfg_.enable_preemption &&
          static_cast<std::uint8_t>(o.req.priority) >
              static_cast<std::uint8_t>(r.req.priority);
      if (expiring || outranked) ++capacity;
    }
    const std::size_t est_wait =
        ahead < capacity ? 0
                         : 1 + (ahead - capacity) / sched_.max_batch();
    if (est_wait > r.req.queue_budget_ticks) {
      r.reject_reason = RejectReason::kShed;
      finish(h.id, nn::StopReason::kRejected, tick_);
      shed_->inc();
      return h;
    }
  }
  queues_[static_cast<std::size_t>(r.req.priority)].push_back(h.id);
  return h;
}

bool InferenceServer::cancel(RequestHandle h) {
  Record& r = record(h);
  if (r.state == RequestState::kFinished) return false;
  if (r.state == RequestState::kQueued ||
      r.state == RequestState::kPreempted) {
    // Both live in a class queue; a preempted request keeps the tokens
    // its earlier slot tenure emitted (finish_unadmitted moves them
    // into the result).
    auto& q = queues_[static_cast<std::size_t>(r.req.priority)];
    q.erase(std::find(q.begin(), q.end(), h.id));
    finish(h.id, nn::StopReason::kCancelled, tick_);
    cancelled_->inc();
    return true;
  }
  // Active: retire the slot now; tokens already emitted are kept (and
  // were already streamed after the tick that produced them).
  finish_admitted(h.id, tick_,
                  sched_.cancel(r.slot, nn::StopReason::kCancelled),
                  /*device_us=*/-1.0);
  cancelled_->inc();
  return true;
}

void InferenceServer::expire_queued(std::size_t t) {
  for (auto& q : queues_) {
    for (std::size_t i = 0; i < q.size();) {
      Record& r = records_[q[i]];
      // The queue budget bounds each queue STINT (a preempted or
      // retrying request starts a fresh stint when requeued); the total
      // budget always runs from submission.
      const std::size_t stint = t - r.queued_since_tick;
      const std::size_t waited = t - r.submitted_tick;
      const bool queue_out = r.req.queue_budget_ticks != kNoBudget &&
                             stint > r.req.queue_budget_ticks;
      const bool total_out = r.req.total_budget_ticks != kNoBudget &&
                             waited >= r.req.total_budget_ticks;
      if (queue_out || total_out) {
        const std::uint64_t id = q[i];
        q.erase(q.begin() + static_cast<std::ptrdiff_t>(i));
        finish(id, nn::StopReason::kDeadlineExceeded, t);
        expired_->inc();
      } else {
        ++i;
      }
    }
  }
}

void InferenceServer::expire_active(std::size_t t) {
  // Collect first: finishing erases from active_.
  std::vector<std::uint64_t> out;
  for (const std::uint64_t id : active_) {
    const Record& r = records_[id];
    if (r.req.total_budget_ticks != kNoBudget &&
        t - r.submitted_tick >= r.req.total_budget_ticks) {
      out.push_back(id);
    }
  }
  for (const std::uint64_t id : out) {
    finish_admitted(
        id, t,
        sched_.cancel(records_[id].slot, nn::StopReason::kDeadlineExceeded),
        /*device_us=*/-1.0);
    expired_->inc();
  }
}

void InferenceServer::admit_from_queues(std::size_t t) {
  std::size_t free = sched_.max_batch() - sched_.active();
  std::vector<std::uint64_t> admitted;  // admission order
  for (auto& q : queues_) {  // class order: interactive, normal, bulk
    for (std::size_t i = 0; free > 0 && i < q.size();) {
      if (records_[q[i]].earliest_admit_tick > t) {
        // Still serving its retry backoff — skip it without blocking the
        // rest of the class (it keeps its place for when it is ready).
        ++i;
        continue;
      }
      admitted.push_back(q[i]);
      q.erase(q.begin() + static_cast<std::ptrdiff_t>(i));
      --free;
    }
  }
  // Preemption pass. Every slot is promised by now (an eligible waiter
  // plus a free slot would have been matched above), so a request whose
  // class strictly outranks some active request's class may displace it:
  // the victim's slot is released and the victim requeued with its
  // tokens as a replay prefix (recompute-resume). Bulk, the lowest
  // class, never preempts. Displacement cascades deterministically — a
  // normal request preempted by an interactive one may in turn displace
  // an active bulk request this same tick. A request admitted in this
  // pass is never a victim: it is of the candidate's class or higher.
  for (std::size_t c = 0; cfg_.enable_preemption && c + 1 < kPriorityClasses;
       ++c) {
    auto& q = queues_[c];
    for (std::size_t i = 0; i < q.size();) {
      if (records_[q[i]].earliest_admit_tick > t) {
        ++i;
        continue;
      }
      const std::size_t victim = pick_victim(static_cast<Priority>(c));
      if (victim == active_.size()) break;  // nothing below class c runs
      preempt(victim, t);
      admitted.push_back(q[i]);
      q.erase(q.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }
  // Seat after the whole pass, in admission order, so every release the
  // tick made (expiry, preemption) precedes every acquisition: the LIFO
  // free list and prefix aliasing then see one order.
  for (const std::uint64_t id : admitted) admit_one(id, t);
}

void InferenceServer::admit_one(std::uint64_t id, std::size_t t) {
  Record& r = records_[id];
  nn::GenerationRequest g;
  // The generation job is the shared DecodeParams slice of the serving
  // Request — COPIED, not moved: a later preemption or fault retry seats
  // the same job again, so the record keeps its params until the request
  // is terminal. The transcript moves: the seat holds it until the slot
  // hands the whole result back.
  static_cast<nn::DecodeParams&>(g) =
      static_cast<const nn::DecodeParams&>(r.req);
  r.replay_len = r.result.tokens.size();
  g.resume_tokens = std::exchange(r.result.tokens, {});
  r.slot = sched_.admit(std::move(g));
  if (r.admitted_tick == kNoTick) r.admitted_tick = t;
  r.admit_device_us = device_us_;
  r.state = RequestState::kActive;
  active_.push_back(id);
  admitted_->inc();  // counts every admission, re-admissions included
  queue_wait_->observe(static_cast<double>(t - r.queued_since_tick));
}

std::size_t InferenceServer::pick_victim(Priority cls) const noexcept {
  // Lowest priority strictly below `cls`; among equals the most recently
  // admitted (active_ is admission-ordered, so the LAST match) — the one
  // with the least sunk decode work to replay.
  std::size_t best = active_.size();
  auto best_pri = static_cast<std::uint8_t>(cls);
  for (std::size_t i = 0; i < active_.size(); ++i) {
    const auto p =
        static_cast<std::uint8_t>(records_[active_[i]].req.priority);
    if (p > best_pri || (p == best_pri && best != active_.size())) {
      best = i;
      best_pri = p;
    }
  }
  return best;
}

void InferenceServer::preempt(std::size_t victim, std::size_t t) {
  const std::uint64_t id = active_[victim];
  Record& r = records_[id];
  if (r.preemptions >= cfg_.preemption_limit) {
    // The cap converts endless churn into an honest terminal state: the
    // request keeps every token it emitted, typed kPreemptionLimit.
    finish_admitted(id, t,
                    sched_.cancel(r.slot, nn::StopReason::kPreemptionLimit),
                    /*device_us=*/-1.0);
    return;
  }
  ++r.preemptions;
  preemptions_->inc();
  // Retire the slot (KV released back to the pool); the transcript
  // becomes the replay prefix that rebuilds the KV on re-admission. Head
  // of its class, in a fresh queue stint: the victim outranks everything
  // waiting behind it (it had already been admitted once).
  requeue(id, sched_.cancel(r.slot, nn::StopReason::kCancelled).tokens,
          RequestState::kPreempted, t, 0);
}

void InferenceServer::requeue(std::uint64_t id,
                              std::vector<std::int32_t> transcript,
                              RequestState state, std::size_t queued_since,
                              std::size_t earliest_admit) {
  Record& r = records_[id];
  r.result = nn::GenerationResult{};
  r.result.tokens = std::move(transcript);
  r.state = state;
  r.queued_since_tick = queued_since;
  r.earliest_admit_tick = earliest_admit;
  std::erase(active_, id);
  queues_[static_cast<std::size_t>(r.req.priority)].push_front(id);
}

void InferenceServer::harvest(std::size_t t) {
  std::vector<nn::RetiredSlot> retired = sched_.take_retired();
  std::vector<std::pair<std::uint64_t, nn::GenerationResult>> done;
  for (const std::uint64_t id : active_) {
    Record& r = records_[id];
    const auto it = std::find_if(
        retired.begin(), retired.end(),
        [&r](const nn::RetiredSlot& x) { return x.slot == r.slot; });
    const std::vector<std::int32_t>& toks =
        it != retired.end() ? it->result.tokens : sched_.tokens(r.slot);
    // The transcript holds earlier tenures too: only what lies past
    // `streamed` is new, so each token is delivered (and counted) once.
    for (std::size_t j = r.streamed; j < toks.size(); ++j) {
      if (j == 0) {
        ttft_->observe(static_cast<double>(t + 1 - r.submitted_tick));
      }
      if (r.req.on_token) r.req.on_token(id, toks[j], j);
    }
    tokens_emitted_->inc(toks.size() - r.streamed);
    r.streamed = toks.size();
    if (it != retired.end()) done.emplace_back(id, std::move(it->result));
  }
  for (auto& [id, res] : done) {
    Record& r = records_[id];
    if (res.stop_reason == nn::StopReason::kKernelFault) {
      kernel_faults_->inc();  // every fault event, retried or terminal
      if (r.retries < r.req.retry_budget) {
        // Fault retry with recompute: requeue at the head of the class
        // (the request has seniority — it was admitted once already),
        // gated by the backoff before it may take a slot again. The
        // transcript becomes the replay prefix, so the resumed
        // transcript is bit-identical to a fault-free run.
        ++r.retries;
        retries_->inc();
        requeue(id, std::move(res.tokens), RequestState::kQueued, t + 1,
                t + 1 + r.req.retry_backoff_ticks);
        continue;
      }
    }
    finish_admitted(id, t + 1, std::move(res), device_us_);
    completed_->inc();
  }
}

void InferenceServer::finish(std::uint64_t id, nn::StopReason reason,
                             std::size_t t) {
  Record& r = records_[id];
  // The transcript earlier slot tenures emitted stays: a request
  // cancelled or expired while preempted keeps its output.
  r.result.stop_reason = reason;
  r.state = RequestState::kFinished;
  r.finished_tick = t;
  stop_reason_[static_cast<std::size_t>(reason)]->inc();
  r.req.embed = nullptr;
  r.req.select = nullptr;
  r.req.on_token = nullptr;
}

void InferenceServer::finish_admitted(std::uint64_t id, std::size_t t,
                                      nn::GenerationResult result,
                                      double device_us) {
  Record& r = records_[id];
  r.result = std::move(result);
  std::erase(active_, id);
  e2e_->observe(static_cast<double>(t - r.submitted_tick));
  // kernel_faults is counted per fault EVENT in harvest (a retried fault
  // still counts), not here at the terminal.
  //
  // Decode throughput counts only the tokens this final tenure newly
  // generated (result minus its replay prefix) — admit_device_us resets
  // on every re-admission, so charging replayed tokens from earlier
  // tenures against the last tenure's span would overstate the rate.
  const std::size_t fresh = r.result.tokens.size() > r.replay_len
                                ? r.result.tokens.size() - r.replay_len
                                : 0;
  if (device_us >= 0.0 && fresh > 0) {
    const double span = device_us - r.admit_device_us;
    if (span > 0.0) {
      tokens_per_sec_->observe(1e6 * static_cast<double>(fresh) / span);
    }
  }
  finish(id, r.result.stop_reason, t);
}

void InferenceServer::refresh_gauges() {
  queue_depth_gauge_->set(static_cast<double>(queue_depth()));
  active_slots_gauge_->set(static_cast<double>(sched_.active()));
  // Block-granular residency: aliased prefix blocks count ONCE, which is
  // why a common-prefix storm's peak drops with sharing on (the
  // ablation_serving gate). The peak is tickwise — sampled here, after
  // the tick's retirements, so it is a stable function of the schedule.
  const double used = static_cast<double>(sched_.pool().used_bytes());
  kv_bytes_used_gauge_->set(used);
  if (used > kv_used_peak_) kv_used_peak_ = used;
  kv_bytes_used_peak_gauge_->set(kv_used_peak_);
  const core::PagedKVStats& kv = sched_.pool().stats();
  prefix_hits_gauge_->set(static_cast<double>(kv.prefix_hits));
  prefix_shared_tokens_gauge_->set(
      static_cast<double>(kv.prefix_shared_tokens));
  cow_splits_gauge_->set(static_cast<double>(kv.cow_splits));
  health_gauge_->set(static_cast<double>(static_cast<std::uint8_t>(health())));
  throughput_gauge_->set(
      device_us_ > 0.0
          ? 1e6 * static_cast<double>(tokens_emitted_->value()) / device_us_
          : 0.0);
}

void InferenceServer::tick(core::ExecContext& ctx) {
  const std::size_t t = tick_;
  expire_queued(t);
  expire_active(t);
  admit_from_queues(t);
  ticks_->inc();
  // A scheduler tick that throws finishes like any other before the
  // exception reaches the caller: its device time so far is charged, the
  // slots it retired before the throw (its capacity pre-check runs first)
  // finish, so a cancel() on one loses the race, and the clock advances,
  // so other requests' budgets keep running down.
  std::exception_ptr failure;
  if (sched_.active() > 0) {
    const gpusim::Device& dev = ctx.device();
    const double before = dev.total_time_us();
    try {
      sched_.tick(ctx);
    } catch (...) {
      failure = std::current_exception();
    }
    // device_us_ += after - before, grouped so that while nothing else
    // launches on the device (one server, fresh device) device_us_ equals
    // before and the sum stays bit-identical to the device total.
    device_us_ = (device_us_ - before) + dev.total_time_us();
  }
  harvest(t);
  ++tick_;
  refresh_gauges();
  if (failure) std::rethrow_exception(failure);
}

void InferenceServer::drain(core::ExecContext& ctx) {
  while (!idle()) tick(ctx);
}

const nn::GenerationResult& InferenceServer::wait(RequestHandle h,
                                                  core::ExecContext& ctx) {
  while (record(h).state != RequestState::kFinished) tick(ctx);
  return record(h).result;
}

bool InferenceServer::finished(RequestHandle h) const {
  return record(h).state == RequestState::kFinished;
}

RequestStatus InferenceServer::status(RequestHandle h) const {
  const Record& r = record(h);
  RequestStatus s;
  s.state = r.state;
  s.reject_reason = r.reject_reason;
  s.priority = r.req.priority;
  s.submitted_tick = r.submitted_tick;
  s.admitted_tick = r.admitted_tick;
  s.finished_tick = r.finished_tick;
  s.tokens_emitted = r.state == RequestState::kFinished
                         ? r.result.tokens.size()
                         : r.streamed;
  s.preemptions = r.preemptions;
  s.retries = r.retries;
  return s;
}

const nn::GenerationResult& InferenceServer::result(RequestHandle h) const {
  const Record& r = record(h);
  if (r.state != RequestState::kFinished) {
    throw std::logic_error("InferenceServer::result: request " +
                           std::to_string(h.id) + " has not finished");
  }
  return r.result;
}

bool InferenceServer::idle() const noexcept {
  return active_.empty() && queue_depth() == 0;
}

std::size_t InferenceServer::queue_depth() const noexcept {
  std::size_t n = 0;
  for (const auto& q : queues_) n += q.size();
  return n;
}

ServerHealth InferenceServer::health() const noexcept {
  const std::size_t depth = queue_depth();
  if (depth >= cfg_.queue_capacity) return ServerHealth::kOverloaded;
  return depth > 0 ? ServerHealth::kDegraded : ServerHealth::kHealthy;
}

}  // namespace et::serving
