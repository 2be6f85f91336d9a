#include "cluster/traffic.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <utility>

#include "storage/block_device.h"

namespace deepnote::cluster {

namespace {

double zeta(std::uint64_t n, double theta) {
  double sum = 0.0;
  for (std::uint64_t i = 1; i <= n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i), theta);
  }
  return sum;
}

}  // namespace

ZipfGenerator::ZipfGenerator(std::uint64_t n, double theta)
    : n_(n), theta_(theta) {
  if (n_ == 0) throw std::invalid_argument("zipf: empty keyspace");
  if (theta_ <= 0.0 || theta_ >= 1.0) {
    throw std::invalid_argument("zipf: theta must be in (0, 1)");
  }
  zetan_ = zeta(n_, theta_);
  zeta2_ = zeta(2, theta_);
  alpha_ = 1.0 / (1.0 - theta_);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
         (1.0 - zeta2_ / zetan_);
}

std::uint64_t ZipfGenerator::next(sim::Rng& rng) const {
  // Gray et al.'s approximate Zipf sampler, as popularized by YCSB.
  const double u = rng.next_double();
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
  const auto rank = static_cast<std::uint64_t>(
      static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return rank >= n_ ? n_ - 1 : rank;
}

ZipfAliasSampler::ZipfAliasSampler(std::uint64_t n, double theta)
    : n_(n), theta_(theta) {
  if (n_ == 0) throw std::invalid_argument("zipf: empty keyspace");
  if (n_ > 0xffffffffull) {
    throw std::invalid_argument("zipf: alias table caps at 2^32 ranks");
  }
  if (theta_ <= 0.0 || theta_ >= 1.0) {
    throw std::invalid_argument("zipf: theta must be in (0, 1)");
  }
  mod_n_ = sim::FastMod(n_);
  // One pass for the normalizer, one to split buckets into under/over
  // full, one to pair them up (Vose). All index order, fully
  // deterministic.
  std::vector<double> weight(n_);
  double sum = 0.0;
  for (std::uint64_t i = 0; i < n_; ++i) {
    weight[i] = 1.0 / std::pow(static_cast<double>(i + 1), theta_);
    sum += weight[i];
  }
  zetan_ = sum;
  accept_.assign(n_, 1.0);
  alias_.assign(n_, 0);
  // Scale so the average bucket holds exactly 1.0 of probability mass.
  const double scale = static_cast<double>(n_) / sum;
  std::vector<std::uint32_t> small;
  std::vector<std::uint32_t> large;
  small.reserve(n_);
  large.reserve(n_);
  for (std::uint64_t i = 0; i < n_; ++i) {
    weight[i] *= scale;
    if (weight[i] < 1.0) {
      small.push_back(static_cast<std::uint32_t>(i));
    } else {
      large.push_back(static_cast<std::uint32_t>(i));
    }
  }
  while (!small.empty() && !large.empty()) {
    const std::uint32_t s = small.back();
    const std::uint32_t l = large.back();
    small.pop_back();
    accept_[s] = weight[s];
    alias_[s] = l;
    weight[l] -= 1.0 - weight[s];
    if (weight[l] < 1.0) {
      large.pop_back();
      small.push_back(l);
    }
  }
  // Leftovers (floating-point dust): their buckets are full.
  for (const std::uint32_t i : large) accept_[i] = 1.0;
  for (const std::uint32_t i : small) accept_[i] = 1.0;
}

double ZipfAliasSampler::probability(std::uint64_t rank) const {
  return 1.0 / (std::pow(static_cast<double>(rank + 1), theta_) * zetan_);
}

void ClosedLoopPopulation::push_pending(std::uint32_t client,
                                        sim::SimTime at) {
  at_ns_[client] = at.ns();
  // A completion stamped before the cursor (a batch replaying earlier
  // arrivals) is past due: it joins the cursor bucket and goes out with
  // the next harvest.
  const std::int64_t bucket = std::max(cursor_, bucket_of(at.ns()));
  std::uint32_t& head = bucket < cursor_ + kRing ? slot(bucket) : far_head_;
  next_[client] = head;
  head = client;
}

void ClosedLoopPopulation::rescan_far(std::int64_t bucket) {
  rescan_at_ = bucket + kRing / 2;
  std::uint32_t* link = &far_head_;
  while (*link != kNil) {
    const std::uint32_t client = *link;
    const std::int64_t due = bucket_of(at_ns_[client]);
    if (due < bucket + kRing) {
      *link = next_[client];
      std::uint32_t& head = slot(due);
      next_[client] = head;
      head = client;
    } else {
      link = &next_[client];
    }
  }
}

void ClosedLoopPopulation::reset(const TrafficConfig& traffic,
                                 std::size_t clients,
                                 const resilience::BackoffConfig& backoff,
                                 resilience::RetryBudget* budget,
                                 sim::SimTime start) {
  if (clients == 0) {
    throw std::invalid_argument("closed loop: needs at least one client");
  }
  if (traffic.arrival_rate_per_s <= 0.0) {
    throw std::invalid_argument("closed loop: arrival rate must be positive");
  }
  if (backoff.base.ns() <= 0) {
    // A zero delay would let a retry re-enter the very round that shed
    // it — livelock fuel; the engine's round loop relies on every
    // re-issue moving strictly forward in time.
    throw std::invalid_argument("closed loop: backoff base must be positive");
  }
  if (backoff.jitter < 0.0 || backoff.jitter > 1.0) {
    throw std::invalid_argument("closed loop: jitter must be in [0, 1]");
  }
  think_mean_s_ = static_cast<double>(clients) / traffic.arrival_rate_per_s;
  read_fraction_ = traffic.read_fraction;
  backoff_ = backoff;
  budget_ = budget;
  retries_ = 0;
  clients_.assign(clients, Client{});
  at_ns_.assign(clients, 0);
  next_.assign(clients, kNil);
  heads_.assign(static_cast<std::size_t>(kRing), kNil);
  far_head_ = kNil;
  origin_ns_ = start.ns();
  cursor_ = 0;
  rescan_at_ = kRing / 2;
  sim::Rng master(traffic.seed);
  for (std::uint32_t i = 0; i < clients_.size(); ++i) {
    Client& c = clients_[i];
    c.rng = master.fork();
    // Jitter draws must not consume the key stream: fork a private
    // splitmix64 state per client off the traffic seed.
    c.jitter_state =
        traffic.seed ^ (0x9e3779b97f4a7c15ull * (std::uint64_t{i} + 1));
    push_pending(i, start + sim::Duration::from_seconds(
                               c.rng.exponential(think_mean_s_)));
  }
}

void ClosedLoopPopulation::collect_due(sim::SimTime horizon,
                                       const ZipfAliasSampler& zipf,
                                       std::vector<ClientIssue>& out) {
  const std::size_t first = out.size();
  const std::int64_t limit = horizon.ns();
  const std::int64_t last = std::max(cursor_, bucket_of(limit - 1));
  std::int64_t bucket = cursor_;
  // Every bucket before `last` is wholly due. Those go kLanes at a time,
  // their chains walked in lockstep so one chain's cache misses overlap
  // the others'.
  constexpr int kLanes = 8;
  for (; bucket + kLanes <= last; bucket += kLanes) {
    if (bucket + kLanes > rescan_at_) rescan_far(bucket);
    std::uint32_t lane[kLanes];
    for (int l = 0; l < kLanes; ++l) {
      lane[l] = std::exchange(slot(bucket + l), kNil);
    }
    for (bool busy = true; busy;) {
      busy = false;
      for (std::uint32_t& client : lane) {
        if (client == kNil) continue;
        busy = true;
        out.push_back(ClientIssue{sim::SimTime{at_ns_[client]}, client});
        client = next_[client];
      }
    }
  }
  // The rest one at a time; `last` may straddle the horizon, so its
  // not-yet-due clients stay linked.
  for (; bucket <= last; ++bucket) {
    if (bucket >= rescan_at_) rescan_far(bucket);
    std::uint32_t* link = &slot(bucket);
    while (*link != kNil) {
      const std::uint32_t client = *link;
      if (at_ns_[client] < limit) {
        *link = next_[client];
        out.push_back(ClientIssue{sim::SimTime{at_ns_[client]}, client});
      } else {
        link = &next_[client];
      }
    }
  }
  cursor_ = last;
  // (at, client) pairs are unique, so this order is canonical: it does
  // not depend on bucket layout or link order.
  const auto begin = out.begin() + static_cast<std::ptrdiff_t>(first);
  std::sort(begin, out.end(), [](const ClientIssue& a, const ClientIssue& b) {
    return a.at == b.at ? a.client < b.client : a.at < b.at;
  });
  // Second pass in issue order: each Client is an independent load, so
  // fetch a few ahead while the current one draws.
  constexpr std::ptrdiff_t kAhead = 8;
  for (auto it = begin; it != out.end(); ++it) {
    if (out.end() - it > kAhead) {
      __builtin_prefetch(&clients_[it[kAhead].client]);
    }
    Client& c = clients_[it->client];
    if (c.has_retry == 0) {
      // Drawn against the client's own forked stream, so the order
      // clients are visited in cannot matter.
      c.key = zipf.next(c.rng);
      c.is_read = c.rng.bernoulli(read_fraction_) ? 1 : 0;
      c.attempts = 0;
      if (budget_ != nullptr) budget_->earn();
    }
    it->key = c.key;
    it->is_read = c.is_read != 0;
    // The client is now in flight: it re-enters the queue at complete().
  }
}

void ClosedLoopPopulation::complete(std::uint32_t client, sim::SimTime when,
                                    OutcomeKind outcome) {
  Client& c = clients_[client];
  const bool retryable =
      outcome == OutcomeKind::kShed ||
      (backoff_.retry_failures && (outcome == OutcomeKind::kFailed ||
                                   outcome == OutcomeKind::kTimedOut));
  if (retryable && c.attempts < backoff_.max_retries &&
      (budget_ == nullptr || budget_->try_spend())) {
    ++c.attempts;
    ++retries_;
    c.has_retry = 1;
    push_pending(client,
                 when + resilience::backoff_delay(
                            backoff_, c.attempts,
                            resilience::next_jitter_word(c.jitter_state)));
    return;
  }
  c.has_retry = 0;
  push_pending(client, when + sim::Duration::from_seconds(
                           c.rng.exponential(think_mean_s_)));
}

TrafficRunner::TrafficRunner(Balancer& balancer, TrafficConfig config)
    : balancer_(balancer), config_(config) {
  if (config_.clients == 0) {
    throw std::invalid_argument("traffic: needs at least one client");
  }
  if (config_.arrival_rate_per_s <= 0.0) {
    throw std::invalid_argument("traffic: arrival rate must be positive");
  }
  if (config_.read_fraction < 0.0 || config_.read_fraction > 1.0) {
    throw std::invalid_argument("traffic: read fraction must be in [0, 1]");
  }
}

TrafficReport TrafficRunner::run(sim::SimTime start, SloTracker& slo,
                                 std::vector<TimelineAction> actions) {
  const sim::SimTime end = start + config_.duration;
  const double per_client_mean_s =
      static_cast<double>(config_.clients) / config_.arrival_rate_per_s;
  const ZipfGenerator zipf(config_.keyspace, config_.zipf_theta);

  struct Client {
    sim::Rng rng{0};
    sim::SimTime next_arrival = sim::SimTime::zero();
  };
  sim::Rng master(config_.seed);
  std::vector<Client> clients(config_.clients);
  for (Client& c : clients) {
    c.rng = master.fork();
    c.next_arrival =
        start + sim::Duration::from_seconds(
                    c.rng.exponential(per_client_mean_s));
  }

  const std::size_t object_bytes =
      static_cast<std::size_t>(balancer_.config().object_sectors) *
      storage::kBlockSectorSize;
  std::vector<std::byte> buffer(object_bytes, std::byte{0x5a});

  TrafficReport report;
  std::size_t next_action = 0;
  // Latest completion handed out so far. Timeline actions fire no
  // earlier than this: a device whose last command finished at T must
  // not see its environment change at T' < T.
  sim::SimTime frontier = start;

  while (true) {
    // Min-scan merge of the client streams, ties broken by index.
    std::size_t who = 0;
    for (std::size_t c = 1; c < clients.size(); ++c) {
      if (clients[c].next_arrival < clients[who].next_arrival) who = c;
    }
    Client& client = clients[who];
    const sim::SimTime arrival = client.next_arrival;
    if (arrival >= end) break;

    while (next_action < actions.size() && actions[next_action].at <= arrival) {
      actions[next_action].fn(sim::max(actions[next_action].at, frontier));
      ++next_action;
    }
    balancer_.run_probes(arrival);

    const std::uint64_t key = zipf.next(client.rng);
    const bool is_read = client.rng.bernoulli(config_.read_fraction);
    RequestOutcome outcome;
    if (is_read) {
      ++report.reads;
      outcome = balancer_.read(arrival, key, buffer);
    } else {
      ++report.writes;
      outcome = balancer_.write(arrival, key, buffer);
    }
    ++report.requests;
    frontier = sim::max(frontier, outcome.complete);
    if (outcome.ok) {
      slo.record_success(arrival, outcome.complete - arrival);
    } else {
      slo.record_failure(arrival);
    }

    client.next_arrival =
        arrival + sim::Duration::from_seconds(
                      client.rng.exponential(per_client_mean_s));
  }

  // Fire any trailing actions (e.g. attack off after the last arrival).
  while (next_action < actions.size() && actions[next_action].at < end) {
    actions[next_action].fn(sim::max(actions[next_action].at, frontier));
    ++next_action;
  }
  return report;
}

}  // namespace deepnote::cluster
