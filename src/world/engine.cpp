#include "world/engine.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <exception>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <utility>

#include "core/correlator.hpp"
#include "obs/fleet/aggregate.hpp"
#include "obs/fleet/slo.hpp"
#include "obs/fleet/summary.hpp"
#include "sim/check.hpp"
#include "sim/random.hpp"
#include "sim/runner.hpp"
#include "sim/wall_clock.hpp"

namespace athena::world {
namespace {

/// Seed sub-stream tags: the world seed fans out into disjoint per-UE
/// streams (session internals fork further from the per-UE seed).
constexpr std::uint64_t kChannelStream = 1'000'000;
constexpr std::uint64_t kHandoverStream = 2'000'000;

}  // namespace

struct WorldEngine::Shard {
  std::unique_ptr<sim::Simulator> sim;
  /// Inbound messages not yet due (plus everything collected at the last
  /// barrier). Only touched by this shard's worker.
  std::vector<WorldMsg> pending;
  /// Due messages for the window in flight; a deque so addresses stay
  /// stable while delivery events hold pointers into it.
  std::deque<WorldMsg> delivery;
  /// Outbound messages per destination shard, filled by entity posts
  /// during the window, swapped into the exchange at publish time.
  std::vector<std::vector<WorldMsg>> outbox;
  std::uint64_t delivered_msgs = 0;
  std::uint64_t stranded = 0;  ///< UEs this shard marked unreachable (quarantine)
};

WorldEngine::WorldEngine(WorldConfig config) : config_(std::move(config)) {
  // Fail at construction, not first Run(): a config that cannot build a
  // world should never look like a valid engine.
  ATHENA_CHECK(config_.ues > 0, "world needs at least one UE");
  ATHENA_CHECK(config_.cells > 0, "world needs at least one cell");
  ATHENA_CHECK(config_.shards > 0, "world needs at least one shard");
  ATHENA_CHECK(config_.shards <= config_.cells,
               "shards > cells leaves empty shards; clamp before building");
  ATHENA_CHECK(config_.duration.count() > 0, "world duration must be positive");
  ATHENA_CHECK(config_.link_latency.count() > 0,
               "link_latency is the lookahead; it must be positive");
  ATHENA_CHECK(config_.link_latency <= config_.duration,
               "lookahead exceeds the run duration: not even one window fits");
  ATHENA_CHECK(config_.handover_latency.count() >= 0,
               "handover_latency cannot be negative");
  ATHENA_CHECK(config_.crash_shard == WorldConfig::kNoCrash || config_.crash_window >= 1,
               "crash_window is 1-based: the shard dies entering that window");
  for (const auto& q : config_.quarantines) {
    ATHENA_CHECK(q.cell < config_.cells, "quarantine names a cell outside the world");
  }
}
WorldEngine::~WorldEngine() = default;

Entity* WorldEngine::EntityFor(EntityId id) {
  const std::size_t ues = sessions_.size();
  if (id < ues) return sessions_[id].get();
  return cells_[id - ues].get();
}

void WorldEngine::Build() {
  const std::size_t ues = config_.ues;
  const std::size_t cells = config_.cells;
  shard_count_ = config_.shards;
  const std::size_t shard_count = shard_count_;

  // Crash points name a logical shard; clamp to the layout so the same
  // fault spec stays meaningful (and deterministic) at any shard count.
  if (config_.crash_shard != WorldConfig::kNoCrash) {
    crash_shard_ = config_.crash_shard % shard_count;
  }

  quarantine_at_us_.assign(cells, kNeverQuarantined);
  for (const auto& q : config_.quarantines) {
    quarantine_at_us_[q.cell] = std::min(quarantine_at_us_[q.cell], q.at.us());
    earliest_quarantine_us_ = std::min(earliest_quarantine_us_, q.at.us());
  }

  shards_.reserve(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->sim = std::make_unique<sim::Simulator>();
    shard->outbox.resize(shard_count);
    shards_.push_back(std::move(shard));
  }
  exchange_.resize(shard_count);
  for (auto& row : exchange_) row.resize(shard_count);

  // Layout: cell c → shard c mod S; UE u starts on cell u mod C and is
  // pinned to that cell's shard for the whole run (only its radio state
  // migrates on handover).
  shard_of_.resize(ues + cells);
  for (std::size_t c = 0; c < cells; ++c) {
    shard_of_[ues + c] = static_cast<std::uint16_t>(c % shard_count);
  }
  for (std::size_t u = 0; u < ues; ++u) shard_of_[u] = shard_of_[ues + (u % cells)];

  auto make_post = [this](std::size_t s) {
    return [this, s](WorldMsg&& msg) {
      Shard& shard = *shards_[s];
      ATHENA_CHECK(msg.arrival >= shard.sim->Now() + config_.link_latency,
                   "posted arrival violates the conservative lookahead");
      shard.outbox[shard_of_[msg.dst]].push_back(std::move(msg));
    };
  };

  cells_.reserve(cells);
  for (std::size_t c = 0; c < cells; ++c) {
    const std::size_t s = c % shard_count;
    Cell::Context ctx;
    ctx.sim = shards_[s]->sim.get();
    ctx.id = static_cast<EntityId>(ues + c);
    ctx.post = make_post(s);
    ctx.lookahead = config_.link_latency;
    ctx.handover_latency = config_.handover_latency;
    cells_.push_back(MakeNrCell(std::move(ctx), config_.cell));
    if (config_.outage_cell == c) {
      cells_.back()->SetOutage(config_.outage_start, config_.outage_end);
    }
    if (quarantine_at_us_[c] != kNeverQuarantined) {
      // A quarantined cell is permanently dark from its activation time
      // (this overrides any chaos outage window on the same cell).
      cells_.back()->SetOutage(sim::TimePoint{sim::Duration{quarantine_at_us_[c]}},
                               sim::kEpoch + config_.duration + config_.link_latency);
    }
  }

  // A planned handover needs detach + transfer + attach round trips to
  // finish before the run ends (the conservation invariant requires
  // every UE to be attached somewhere at the final barrier).
  const std::int64_t handover_cost_us =
      4 * (config_.handover_latency.count() + config_.link_latency.count());
  const std::int64_t latest_handover_us = config_.duration.count() - handover_cost_us;

  sessions_.reserve(ues);
  initial_cell_.resize(ues);
  for (std::size_t u = 0; u < ues; ++u) {
    const std::size_t cell_index = u % cells;
    initial_cell_[u] = static_cast<EntityId>(cell_index);
    const std::size_t s = shard_of_[u];

    UeSession::Config sc;
    sc.ue = static_cast<std::uint32_t>(u);
    sc.initial_cell = static_cast<EntityId>(ues + cell_index);
    sc.seed = sim::DeriveSeed(config_.seed, u);
    sc.lookahead = config_.link_latency;
    sc.wan_delay = config_.wan_delay;
    sc.wan_jitter = config_.wan_jitter;
    sc.feedback_delay = config_.feedback_delay;
    sc.sender = config_.sender;
    sc.receiver = config_.receiver;
    sc.gcc = config_.gcc;

    if (config_.handover_every > 0 && cells > 1 && u % config_.handover_every == 0 &&
        latest_handover_us > 0) {
      // Handover time is seed-derived in the middle of the run, clamped
      // so the choreography completes well before the end.
      sim::Rng hr{sim::DeriveSeed(config_.seed, kHandoverStream + u)};
      const double frac = hr.Uniform(0.25, 0.6);
      const auto at_us = std::min(
          static_cast<std::int64_t>(frac * static_cast<double>(config_.duration.count())),
          latest_handover_us);
      sc.handovers.push_back(UeSession::HandoverPlan{
          sim::TimePoint{sim::Duration{at_us}},
          static_cast<EntityId>(ues + (cell_index + 1) % cells)});
    }

    sessions_.push_back(
        std::make_unique<UeSession>(*shards_[s]->sim, std::move(sc), make_post(s)));

    ran::UeRadioState radio;
    radio.channel =
        ran::ChannelModel{config_.channel, sim::Rng{sim::DeriveSeed(config_.seed, kChannelStream + u)}};
    cells_[cell_index]->AttachInitial(static_cast<std::uint32_t>(u), std::move(radio));
  }
}

void WorldEngine::RunShardWindow(std::size_t s, std::uint64_t window,
                                 sim::TimePoint window_end) {
  // Deterministic crash point: the shard dies the moment it enters the
  // configured window — before delivering any of that window's mail, so
  // windows 1..crash_window-1 are exactly what an uninterrupted run saw.
  if (s == crash_shard_ && window == config_.crash_window) {
    throw ShardCrash(s, window,
                     "injected crash: shard " + std::to_string(s) +
                         " died entering window " + std::to_string(window));
  }

  Shard& shard = *shards_[s];
  // All of last window's delivery events have fired; reclaim the slab.
  shard.delivery.clear();

  // Pull due inbound mail and schedule it in the canonical order. The
  // sort erases any trace of the physical route (same-shard loopback vs.
  // cross-shard exchange), which is what keeps the digest layout-stable.
  auto due = std::stable_partition(
      shard.pending.begin(), shard.pending.end(),
      [&](const WorldMsg& m) { return m.arrival > window_end; });
  std::sort(due, shard.pending.end(), MsgOrder{});
  for (auto it = due; it != shard.pending.end(); ++it) {
    shard.delivery.push_back(std::move(*it));
    WorldMsg* msg = &shard.delivery.back();
    Entity* entity = EntityFor(msg->dst);
    shard.sim->ScheduleAt(msg->arrival, [entity, msg] { entity->OnMessage(*msg); });
    ++shard.delivered_msgs;
  }
  shard.pending.erase(due, shard.pending.end());

  shard.sim->RunUntil(window_end);

  if (window_end.us() >= earliest_quarantine_us_) SweepQuarantined(s, window_end);
}

void WorldEngine::SweepQuarantined(std::size_t s, sim::TimePoint window_end) {
  // Evacuation sweep: at every boundary past a quarantine's activation,
  // each UE still served by (or just handed over into) a quarantined
  // cell schedules a forced handover to a surviving cell. Runs on the
  // shard's own worker over its own sessions in UE order — the decisions
  // depend only on layout-invariant session state, so the schedule (and
  // therefore the digest) is identical at every shard count.
  const std::size_t ues = sessions_.size();

  // A forced handover needs the full 4-message dance to finish before
  // the final barrier, or conservation would see mail in transit.
  const std::int64_t handover_cost_us =
      4 * (config_.handover_latency.count() + config_.link_latency.count());
  const bool time_left =
      window_end.us() + handover_cost_us + config_.link_latency.count() <=
      config_.duration.count();

  std::vector<EntityId> survivors;
  for (std::size_t c = 0; c < cells_.size(); ++c) {
    if (quarantine_at_us_[c] == kNeverQuarantined) {
      survivors.push_back(static_cast<EntityId>(ues + c));
    }
  }

  for (std::size_t u = 0; u < ues; ++u) {
    if (shard_of_[u] != s) continue;
    UeSession& session = *sessions_[u];
    if (session.in_handover() || session.evacuation_pending() || session.stranded()) {
      continue;
    }
    const std::size_t serving = session.serving_cell() - ues;
    if (window_end.us() < quarantine_at_us_[serving]) continue;
    if (!time_left || survivors.empty()) {
      // Unreachable: the UE cannot complete a handover before the run
      // ends (or nowhere is left to go). It stays attached — its queued
      // packets remain in_flight, so the ledger still balances.
      session.MarkStranded();
      ++shards_[s]->stranded;
      continue;
    }
    session.ScheduleEvacuation(survivors[u % survivors.size()], window_end);
  }
}

void WorldEngine::Publish(std::size_t s) {
  Shard& shard = *shards_[s];
  for (std::size_t d = 0; d < shard_count_; ++d) {
    if (shard.outbox[d].empty()) continue;
    if (exchange_[s][d].empty()) {
      exchange_[s][d].swap(shard.outbox[d]);
    } else {
      for (auto& m : shard.outbox[d]) exchange_[s][d].push_back(std::move(m));
      shard.outbox[d].clear();
    }
  }
}

void WorldEngine::Collect(std::size_t s) {
  Shard& shard = *shards_[s];
  for (std::size_t src = 0; src < shard_count_; ++src) {
    auto& inbox = exchange_[src][s];
    if (inbox.empty()) continue;
    for (auto& m : inbox) shard.pending.push_back(std::move(m));
    inbox.clear();
  }
}

void WorldEngine::RunSequential(const sim::WindowSchedule& schedule,
                                sim::BusyRecorder& busy) {
  for (std::uint64_t k = 1; k <= schedule.windows; ++k) {
    const sim::TimePoint window_end = schedule.WindowEnd(k);
    for (std::size_t s = 0; s < shard_count_; ++s) {
      const auto t0 = sim::WallClock::now();
      RunShardWindow(s, k, window_end);
      busy.Record(s, k, sim::SecondsSince(t0));
    }
    for (std::size_t s = 0; s < shard_count_; ++s) Publish(s);
    for (std::size_t s = 0; s < shard_count_; ++s) Collect(s);
    if (window_hook_) window_hook_(k);
  }
}

void WorldEngine::RunThreaded(const sim::WindowSchedule& schedule,
                              sim::BusyRecorder& busy) {
  const std::size_t shard_count = shard_count_;
  sim::WindowBarrier barrier(static_cast<unsigned>(shard_count));
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mu;

  std::vector<std::thread> workers;
  workers.reserve(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    workers.emplace_back([&, s] {
      for (std::uint64_t k = 1; k <= schedule.windows; ++k) {
        if (!failed.load(std::memory_order_relaxed)) {
          try {
            const auto t0 = sim::WallClock::now();
            RunShardWindow(s, k, schedule.WindowEnd(k));
            busy.Record(s, k, sim::SecondsSince(t0));
          } catch (...) {
            std::lock_guard<std::mutex> lock(error_mu);
            if (!first_error) first_error = std::current_exception();
            failed.store(true, std::memory_order_relaxed);
          }
        }
        // Keep the barrier protocol alive even after a failure so no
        // worker deadlocks waiting for a peer that bailed.
        Publish(s);
        barrier.PublishDone();
        Collect(s);
        barrier.CollectDone();
        if (window_hook_) {
          // Phase C: every worker is parked past CollectDone, so worker
          // 0 observes all shards with full memory visibility (the
          // barriers order the accesses); Sync() releases the others.
          // Hook failures abort the run like a shard crash.
          if (s == 0 && !failed.load(std::memory_order_relaxed)) {
            try {
              window_hook_(k);
            } catch (...) {
              std::lock_guard<std::mutex> lock(error_mu);
              if (!first_error) first_error = std::current_exception();
              failed.store(true, std::memory_order_relaxed);
            }
          }
          barrier.Sync();
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  if (first_error) std::rethrow_exception(first_error);
}

void WorldEngine::CheckConservation(WorldResult& result) {
  auto fail = [&](std::string msg) {
    if (result.conservation_error.empty()) result.conservation_error = std::move(msg);
  };

  // Whatever is still in transit at the final barrier is mail posted in
  // the last window — legal for data, never for handover choreography.
  std::unordered_map<std::uint32_t, std::uint64_t> transit_up;
  std::unordered_map<std::uint32_t, std::uint64_t> transit_down;
  for (const auto& shard : shards_) {
    for (const WorldMsg& m : shard->pending) {
      switch (m.kind) {
        case WorldMsg::Kind::kUplink:
          ++transit_up[m.ue];
          ++result.in_transit_uplink;
          break;
        case WorldMsg::Kind::kCoreDelivery:
          ++transit_down[m.ue];
          ++result.in_transit_delivery;
          break;
        default:
          fail("handover message for UE " + std::to_string(m.ue) +
               " still in transit at end of run");
      }
    }
  }

  for (std::size_t u = 0; u < sessions_.size(); ++u) {
    const UeSession& session = *sessions_[u];
    const ran::UeRadioState* radio = nullptr;
    std::size_t homes = 0;
    for (const auto& cell : cells_) {
      if (const ran::UeRadioState* st = cell->FindUe(static_cast<std::uint32_t>(u))) {
        radio = st;
        ++homes;
      }
    }
    if (homes != 1) {
      fail("UE " + std::to_string(u) + " attached to " + std::to_string(homes) +
           " cells (expected exactly 1)");
      continue;
    }
    if (session.in_handover()) fail("UE " + std::to_string(u) + " stuck in handover");
    if (session.buffered_pending() != 0) {
      fail("UE " + std::to_string(u) + " ended with buffered uplink datagrams");
    }

    const std::uint64_t in_flight = radio->in_flight.size();
    result.offered += radio->offered;
    result.delivered += radio->delivered;
    result.lost += radio->lost;
    result.in_flight += in_flight;
    result.handovers += session.handovers_completed();

    if (radio->offered != radio->delivered + radio->lost + in_flight) {
      // Every packet offered to the RLC buffer is delivered, lost, or
      // still undelivered (in_flight covers queued and mid-TB packets
      // alike — registration happens at enqueue). Nothing else.
      fail("UE " + std::to_string(u) + " radio ledger leak: offered=" +
           std::to_string(radio->offered) + " delivered=" + std::to_string(radio->delivered) +
           " lost=" + std::to_string(radio->lost) + " in_flight=" + std::to_string(in_flight));
    }
    const std::uint64_t tu = transit_up.count(static_cast<std::uint32_t>(u))
                                 ? transit_up[static_cast<std::uint32_t>(u)]
                                 : 0;
    if (session.uplink_posted() != radio->offered + tu) {
      fail("UE " + std::to_string(u) + " posted " + std::to_string(session.uplink_posted()) +
           " uplink datagrams but the radio saw " + std::to_string(radio->offered) + " (+" +
           std::to_string(tu) + " in transit)");
    }
    const std::uint64_t td = transit_down.count(static_cast<std::uint32_t>(u))
                                 ? transit_down[static_cast<std::uint32_t>(u)]
                                 : 0;
    if (radio->delivered != session.core_received() + td) {
      fail("UE " + std::to_string(u) + " decoded " + std::to_string(radio->delivered) +
           " packets but the core saw " + std::to_string(session.core_received()) + " (+" +
           std::to_string(td) + " in transit)");
    }
  }
  result.conservation_ok = result.conservation_error.empty();
}

std::vector<WorldMsgRecord> WorldEngine::PendingMailRecords() const {
  std::vector<WorldMsgRecord> records;
  for (const auto& shard : shards_) {
    records.reserve(records.size() + shard->pending.size());
    for (const WorldMsg& m : shard->pending) records.push_back(MakeRecord(m));
  }
  // Canonical order: which shard physically held a message is a layout
  // artifact and must not show through in a snapshot.
  std::sort(records.begin(), records.end(), MsgRecordOrder{});
  return records;
}

// Whole-word multiply-xor from a truncated FNV basis (WorldResult::digest
// says why it is not sim::Fnv1a): every pinned world digest depends on it.
std::uint64_t WorldEngine::ComputeDigest() const {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  mix(sessions_.size());
  mix(cells_.size());

  std::vector<std::uint64_t> words;
  for (std::size_t u = 0; u < sessions_.size(); ++u) {
    words.clear();
    sessions_[u]->AppendDigest(words);
    for (const auto& cell : cells_) {
      if (const ran::UeRadioState* radio = cell->FindUe(static_cast<std::uint32_t>(u))) {
        words.push_back(radio->offered);
        words.push_back(radio->delivered);
        words.push_back(radio->lost);
        words.push_back(radio->in_flight.size());
        words.push_back(radio->queue.size());
        words.push_back(radio->TotalBufferBytes());
        words.push_back(radio->telemetry.size());
        std::uint64_t slot_sum = 0;
        std::uint64_t used_sum = 0;
        for (const ran::TbRecord& tb : radio->telemetry) {
          slot_sum += static_cast<std::uint64_t>(tb.slot_time.us());
          used_sum += tb.used_bytes;
        }
        words.push_back(slot_sum);
        words.push_back(used_sum);
        break;
      }
    }
    for (std::uint64_t w : words) mix(w);
  }
  for (const auto& cell : cells_) {
    words.clear();
    cell->AppendDigest(words);
    for (std::uint64_t w : words) mix(w);
  }
  return h;
}

void WorldEngine::BuildFleet(WorldResult& result) {
  const std::size_t ues = sessions_.size();
  sim::ParallelRunner runner(config_.correlate_jobs == 0 ? 1 : config_.correlate_jobs);
  auto summaries = runner.Map<obs::fleet::SessionSummary>(ues, [&](std::size_t u) {
    std::span<const ran::TbRecord> telemetry;
    for (const auto& cell : cells_) {
      if (const ran::UeRadioState* radio = cell->FindUe(static_cast<std::uint32_t>(u))) {
        telemetry = radio->telemetry;
        break;
      }
    }
    const core::CrossLayerDataset dataset =
        core::Correlator::Correlate(sessions_[u]->BuildCorrelatorInput(telemetry, config_.cell));
    obs::fleet::SummaryInputs inputs;
    inputs.dataset = &dataset;
    inputs.qoe = &sessions_[u]->qoe();
    inputs.scenario = config_.scenario + "/cell" + std::to_string(initial_cell_[u]);
    // Quarantine visibility: the blamed cell's population reports under
    // its own fleet group, so the report shows *which* UEs rode out a
    // quarantine (evacuated or stranded).
    if (quarantine_at_us_[initial_cell_[u]] != kNeverQuarantined) {
      inputs.scenario += "/quarantined";
    }
    inputs.seed = sim::DeriveSeed(config_.seed, u);
    return obs::fleet::SummarizeSession(inputs);
  });

  obs::fleet::FleetAggregator aggregator;
  obs::fleet::SloEngine slos;
  for (const auto& summary : summaries) {
    aggregator.Fold(summary);
    slos.Observe(summary);
  }
  result.report = obs::fleet::BuildReport(aggregator, slos);
  std::ostringstream os;
  obs::fleet::WriteJson(result.report, os);
  result.fleet_json = os.str();
}

WorldResult WorldEngine::Run() {
  ATHENA_CHECK(!ran_, "WorldEngine::Run is single-shot; build a fresh engine per run");
  ran_ = true;
  Build();

  // Start everything (pre-window, main thread): cells first so the slot
  // clocks exist, then sessions in UE order — deterministic insertion
  // order per shard at any layout.
  for (auto& cell : cells_) cell->Start();
  for (auto& session : sessions_) session->Start();

  const auto schedule = sim::WindowSchedule::Cover(
      sim::kEpoch, sim::kEpoch + config_.duration, config_.link_latency);
  sim::BusyRecorder busy(shard_count_, schedule.windows);

  WorldResult result;
  result.shards = shard_count_;
  result.windows = schedule.windows;
  result.threaded = config_.threaded && shard_count_ > 1;

  const auto wall0 = sim::WallClock::now();
  if (result.threaded) {
    RunThreaded(schedule, busy);
  } else {
    RunSequential(schedule, busy);
  }
  result.wall_seconds = sim::SecondsSince(wall0);
  result.busy_seconds = busy.TotalSeconds();
  result.critical_path_seconds = busy.CriticalPathSeconds();

  for (auto& session : sessions_) session->Stop();
  for (auto& cell : cells_) cell->Stop();

  for (const auto& shard : shards_) {
    result.events_executed += shard->sim->events_executed();
    result.messages_delivered += shard->delivered_msgs;
    result.stranded += shard->stranded;
  }
  for (std::size_t c = 0; c < cells_.size(); ++c) {
    if (quarantine_at_us_[c] != kNeverQuarantined) result.quarantined_cells.push_back(c);
  }
  for (const auto& session : sessions_) result.evacuated += session->forced_handovers();

  CheckConservation(result);
  result.digest = ComputeDigest();
  BuildFleet(result);
  return result;
}

}  // namespace athena::world
