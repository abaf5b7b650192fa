#include "resilience/checkpoint.hpp"

#include <optional>
#include <sstream>

#include "core/report.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/bytes.hpp"
#include "sim/simulator.hpp"

namespace athena::resilience {

// ---------------------------------------------------------------------------
// StateDigest
// ---------------------------------------------------------------------------

void StateDigest::Mix(std::string_view s) { fnv_.MixU64(s.size()).MixChars(s); }

void StateDigest::Mix(std::span<const ran::TbRecord> records) {
  Mix(records.size());
  for (const auto& r : records) {
    Mix(r.tb_id);
    Mix(r.chain_id);
    Mix(static_cast<std::uint64_t>(r.slot_time.us()));
    Mix(static_cast<std::uint64_t>(r.grant));
    Mix(r.tbs_bytes);
    Mix(r.used_bytes);
    Mix(r.harq_round);
    Mix(r.crc_ok ? 1u : 0u);
  }
}

void StateDigest::Mix(net::CaptureView records) {
  Mix(records.size());
  for (const auto& r : records) {
    Mix(r.packet_id);
    Mix(static_cast<std::uint64_t>(r.local_ts.us()));
    Mix(static_cast<std::uint64_t>(r.kind));
    Mix(r.size_bytes);
    Mix(r.flow);
    Mix(r.rtp() != nullptr ? r.rtp()->frame_id + 1 : 0u);
    Mix(r.icmp() != nullptr ? r.icmp()->probe_seq + 1 : 0u);
  }
}

void StateDigest::Mix(const core::CorrelatorInput& input) {
  Mix(static_cast<std::uint64_t>(input.sender_offset.count()));
  Mix(static_cast<std::uint64_t>(input.receiver_offset.count()));
  Mix(input.telemetry);
  Mix(input.sender);
  Mix(input.core);
  Mix(input.receiver);
}

void StateDigest::Mix(const ran::RanConfig& cell, const ran::ChannelModel::Config& channel) {
  Mix(static_cast<std::uint64_t>(cell.ul_slot_period.count()));
  Mix(static_cast<std::uint64_t>(cell.slot_duration.count()));
  Mix(static_cast<std::uint64_t>(cell.bsr_scheduling_delay.count()));
  Mix(cell.proactive_grant_bytes);
  Mix(static_cast<std::uint64_t>(cell.cell_ul_capacity_bps));
  Mix(static_cast<std::uint64_t>(cell.ue_processing_delay.count()));
  Mix(static_cast<std::uint64_t>(cell.rtx_delay.count()));
  Mix(cell.max_harq_rounds);
  Mix(static_cast<std::uint64_t>(cell.ecn_marking_threshold.count()));
  Mix(static_cast<std::uint64_t>(cell.gnb_to_core_delay.count()));
  Mix(static_cast<std::uint64_t>(channel.base_bler * 1e9));
  Mix(static_cast<std::uint64_t>(channel.rtx_bler_factor * 1e9));
  Mix(static_cast<std::uint64_t>(channel.bad_state_bler * 1e9));
  Mix(static_cast<std::uint64_t>(channel.p_good_to_bad * 1e9));
  Mix(static_cast<std::uint64_t>(channel.p_bad_to_good * 1e9));
}

std::uint64_t ConfigFingerprint(const app::SessionConfig& config) {
  // A drift detector, not a cryptographic identity: covers every scalar
  // knob that shapes the run. Functional overrides (grant_policy,
  // controller_factory) cannot be fingerprinted — restoring a checkpoint
  // under a different custom policy is the caller's responsibility.
  StateDigest d;
  d.Mix(config.seed);
  d.Mix(static_cast<std::uint64_t>(config.access));
  d.Mix(static_cast<std::uint64_t>(config.controller));
  d.Mix(config.cell, config.channel);
  d.Mix(static_cast<std::uint64_t>(config.wan_delay.count()));
  d.Mix(static_cast<std::uint64_t>(config.wan_jitter.count()));
  d.Mix(static_cast<std::uint64_t>(config.emulated_latency.count()));
  d.Mix(static_cast<std::uint64_t>(config.cross_burstiness * 1e6));
  d.Mix(static_cast<std::uint64_t>(config.cross_modulation_sigma * 1e6));
  d.Mix(config.cross_traffic.steps().size());
  for (const auto& step : config.cross_traffic.steps()) {
    d.Mix(static_cast<std::uint64_t>(step.from.us()));
    d.Mix(static_cast<std::uint64_t>(step.bits_per_second));
  }
  d.Mix(config.icmp_enabled ? 1u : 0u);
  d.Mix(static_cast<std::uint64_t>(config.icmp_interval.count()));
  d.Mix(static_cast<std::uint64_t>(config.sender_clock_offset.count()));
  d.Mix(static_cast<std::uint64_t>(config.receiver_clock_offset.count()));
  d.Mix(static_cast<std::uint64_t>(config.sender_clock_drift_ppm * 1e3));
  return d.value();
}

// ---------------------------------------------------------------------------
// Binary format
// ---------------------------------------------------------------------------
//
// A sim/bytes.hpp frame with magic "ATHCKPT\n" around:
//   header fields (fixed-width little-endian), then the record payload
//   (telemetry, sender, core, receiver).

namespace {

constexpr std::string_view kMagic{"ATHCKPT\n"};
constexpr std::string_view kWhat{"checkpoint"};
constexpr std::size_t kHeaderBytes = 8 + 4 + 4 + 12 * 8;  // magic..counts
constexpr std::size_t kTbBytes = 8 + 8 + 8 + 1 + 4 + 4 + 1 + 1;  // what WriteTb writes

void WriteTb(sim::ByteWriter& w, const ran::TbRecord& r) {
  w.U64(r.tb_id);
  w.U64(r.chain_id);
  w.I64(r.slot_time.us());
  w.U8(static_cast<std::uint8_t>(r.grant));
  w.U32(r.tbs_bytes);
  w.U32(r.used_bytes);
  w.U8(r.harq_round);
  w.U8(r.crc_ok ? 1 : 0);
}

ran::TbRecord ReadTb(sim::ByteReader<CheckpointError>& r) {
  ran::TbRecord tb;
  tb.tb_id = r.U64();
  tb.chain_id = r.U64();
  tb.slot_time = sim::TimePoint{sim::Duration{r.I64()}};
  tb.grant = static_cast<ran::GrantType>(r.U8());
  tb.tbs_bytes = r.U32();
  tb.used_bytes = r.U32();
  tb.harq_round = r.U8();
  tb.crc_ok = r.U8() != 0;
  return tb;
}

// WriteCapture's bytes: a record with its one-byte metadata tag, plus the metadata.
constexpr std::size_t kMinCaptureBytes = 8 + 8 + 1 + 4 + 4 + 1;
constexpr std::size_t kRtpBytes = 4 + 2 + 4 + 1 + 1 + 8 + 2 + 4 + 4;
constexpr std::size_t kIcmpBytes = 4 + 8;

void WriteCapture(sim::ByteWriter& w, const net::CaptureRecord& r) {
  w.U64(r.packet_id);
  w.I64(r.local_ts.us());
  w.U8(static_cast<std::uint8_t>(r.kind));
  w.U32(r.size_bytes);
  w.U32(r.flow);
  w.U8(static_cast<std::uint8_t>(r.meta.index()));
  if (const net::RtpMeta* rtp = r.rtp()) {
    w.U32(rtp->ssrc);
    w.U16(rtp->seq);
    w.U32(rtp->media_ts);
    w.U8(rtp->marker ? 1 : 0);
    w.U8(static_cast<std::uint8_t>(rtp->layer));
    w.U64(rtp->frame_id);
    w.U16(rtp->transport_seq);
    w.U32(rtp->packets_in_frame);
    w.U32(rtp->packet_index_in_frame);
  } else if (const net::IcmpMeta* icmp = r.icmp()) {
    w.U32(icmp->probe_seq);
    w.I64(icmp->echo_sent_at.us());
  }
}

net::CaptureRecord ReadCapture(sim::ByteReader<CheckpointError>& r) {
  net::CaptureRecord c;
  c.packet_id = r.U64();
  c.local_ts = sim::TimePoint{sim::Duration{r.I64()}};
  c.kind = static_cast<net::PacketKind>(r.U8());
  c.size_bytes = r.U32();
  c.flow = r.U32();
  if (const std::uint8_t tag = r.U8(); tag == 1) {
    auto& rtp = c.meta.emplace<net::RtpMeta>();
    rtp.ssrc = r.U32();
    rtp.seq = r.U16();
    rtp.media_ts = r.U32();
    rtp.marker = r.U8() != 0;
    rtp.layer = static_cast<net::SvcLayer>(r.U8());
    rtp.frame_id = r.U64();
    rtp.transport_seq = r.U16();
    rtp.packets_in_frame = r.U32();
    rtp.packet_index_in_frame = r.U32();
  } else if (tag == 2) {
    auto& icmp = c.meta.emplace<net::IcmpMeta>();
    icmp.probe_seq = r.U32();
    icmp.echo_sent_at = sim::TimePoint{sim::Duration{r.I64()}};
  } else if (tag != 0) {
    throw CheckpointError("checkpoint corrupted: unknown capture metadata tag");
  }
  return c;
}

}  // namespace

void Checkpoint::Serialize(std::vector<std::uint8_t>& out) const {
  out.clear();
  sim::ByteWriter w{out};
  w.BeginFrame(kMagic, kVersion);
  w.U64(config_fingerprint);
  w.U64(seed);
  w.I64(planned_duration.count());
  w.I64(virtual_time.us());
  w.U64(events_executed);
  w.U64(state_digest);
  w.I64(input.sender_offset.count());
  w.I64(input.receiver_offset.count());
  w.U64(input.telemetry.size());
  w.U64(input.sender.size());
  w.U64(input.core.size());
  w.U64(input.receiver.size());
  for (const auto& r : input.telemetry) WriteTb(w, r);
  for (const auto* stream : {&input.sender, &input.core, &input.receiver}) {
    for (const auto& r : *stream) WriteCapture(w, r);
  }
  w.SealFrame();
}

std::size_t Checkpoint::SerializedBytes() const {
  std::size_t bytes = kHeaderBytes + input.telemetry.size() * kTbBytes + 8;
  for (const auto* stream : {&input.sender, &input.core, &input.receiver}) {
    for (const net::CaptureRecord& r : *stream) {
      bytes += kMinCaptureBytes + (r.rtp() ? kRtpBytes : 0) + (r.icmp() ? kIcmpBytes : 0);
    }
  }
  return bytes;
}

Checkpoint Checkpoint::Deserialize(const std::uint8_t* data, std::size_t size) {
  auto r = sim::OpenFrame<CheckpointError>({data, size}, kMagic, kVersion, kWhat);
  Checkpoint c;
  c.config_fingerprint = r.U64();
  c.seed = r.U64();
  c.planned_duration = sim::Duration{r.I64()};
  c.virtual_time = sim::TimePoint{sim::Duration{r.I64()}};
  c.events_executed = r.U64();
  c.state_digest = r.U64();
  c.input.sender_offset = sim::Duration{r.I64()};
  c.input.receiver_offset = sim::Duration{r.I64()};
  const std::uint64_t n_telemetry = r.U64();
  const std::uint64_t n_captures[3] = {r.U64(), r.U64(), r.U64()};
  // Counts are attacker-controlled until proven payload-backed: each is
  // checked against the bytes left before anything is reserved for it.
  c.input.telemetry.reserve(r.Count(n_telemetry, kTbBytes));
  for (std::uint64_t i = 0; i < n_telemetry; ++i) c.input.telemetry.push_back(ReadTb(r));
  std::size_t k = 0;
  for (auto* stream : {&c.input.sender, &c.input.core, &c.input.receiver}) {
    const std::size_t n = r.Count(n_captures[k++], kMinCaptureBytes);
    stream->reserve(n);
    for (std::size_t i = 0; i < n; ++i) stream->push_back(ReadCapture(r));
  }
  r.ExpectEnd();

  // Self-check: the stored digest must match the stored records.
  StateDigest digest;
  digest.Mix(c.input);
  if (digest.value() != c.state_digest) {
    throw CheckpointError("checkpoint corrupted: state digest does not match payload");
  }
  return c;
}

void Checkpoint::WriteFile(const std::string& path) const {
  std::vector<std::uint8_t> buf;
  Serialize(buf);
  sim::WriteFileBytes<CheckpointError>(path, buf, kWhat);
}

Checkpoint Checkpoint::LoadFile(const std::string& path) {
  const std::vector<std::uint8_t> buf = sim::ReadFileBytes<CheckpointError>(path, kWhat);
  return Deserialize(buf.data(), buf.size());
}

// ---------------------------------------------------------------------------
// Checkpointing driver
// ---------------------------------------------------------------------------

Checkpoint SnapshotSession(const sim::Simulator& sim, const app::Session& session,
                           const RunPlan& plan) {
  Checkpoint c;
  c.config_fingerprint = ConfigFingerprint(plan.config);
  c.seed = plan.config.seed;
  c.planned_duration = plan.duration;
  c.virtual_time = sim.Now();
  c.events_executed = sim.events_executed();
  c.input = core::CorrelatorLogs{session.BuildCorrelatorInput()};
  StateDigest digest;
  digest.Mix(c.input);
  c.state_digest = digest.value();
  return c;
}

CheckpointingDriver::CheckpointingDriver(RunPlan plan) : plan_(std::move(plan)) {}

RunOutcome CheckpointingDriver::Run() { return Drive(nullptr); }

RunOutcome CheckpointingDriver::Resume(const Checkpoint& ckpt) {
  if (ckpt.config_fingerprint != ConfigFingerprint(plan_.config)) {
    throw CheckpointError(
        "checkpoint was taken under a different session configuration "
        "(fingerprint mismatch); restoring would silently diverge");
  }
  if (ckpt.seed != plan_.config.seed) {
    throw CheckpointError("checkpoint seed " + std::to_string(ckpt.seed) +
                          " does not match the plan's seed " +
                          std::to_string(plan_.config.seed));
  }
  if (ckpt.planned_duration != plan_.duration) {
    throw CheckpointError("checkpoint was taken for a different planned duration");
  }
  if (ckpt.virtual_time > sim::kEpoch + plan_.duration) {
    throw CheckpointError("checkpoint lies beyond the planned duration");
  }
  return Drive(&ckpt);
}

namespace {

/// First index where the replayed telemetry/captures diverge from the
/// snapshot — turns a digest mismatch into an actionable diagnostic.
std::string DescribeDivergence(const core::CorrelatorInput& replayed,
                               const core::CorrelatorInput& stored) {
  auto first_tb_diff = [](std::span<const ran::TbRecord> a,
                          std::span<const ran::TbRecord> b) -> std::ptrdiff_t {
    const std::size_t n = std::min(a.size(), b.size());
    for (std::size_t i = 0; i < n; ++i) {
      StateDigest da, db;
      da.Mix(a.subspan(i, 1));
      db.Mix(b.subspan(i, 1));
      if (da.value() != db.value()) return static_cast<std::ptrdiff_t>(i);
    }
    return a.size() != b.size() ? static_cast<std::ptrdiff_t>(n) : -1;
  };
  std::ostringstream os;
  os << "replayed " << replayed.telemetry.size() << " TBs / " << replayed.core.size()
     << " core captures vs snapshot " << stored.telemetry.size() << " / "
     << stored.core.size();
  const std::ptrdiff_t tb = first_tb_diff(replayed.telemetry, stored.telemetry);
  if (tb >= 0) os << "; first diverging telemetry record at index " << tb;
  return os.str();
}

}  // namespace

RunOutcome CheckpointingDriver::Drive(const Checkpoint* resume_from) {
  // Live consumers (the mitigation control plane) see the whole attempt:
  // the sink covers session construction through teardown, and is
  // re-installed identically on every restart so replays decode the same
  // event stream.
  std::optional<obs::ScopedTraceSink> trace_scope;
  if (plan_.trace_sink != nullptr) trace_scope.emplace(plan_.trace_sink);

  sim::Simulator simulator;
  app::Session session{simulator, plan_.config};
  if (plan_.on_simulator) plan_.on_simulator(simulator);
  if (plan_.on_session) plan_.on_session(simulator, session);
  session.Start();

  RunOutcome outcome;
  outcome.restored = resume_from != nullptr;
  const sim::TimePoint end = sim::kEpoch + plan_.duration;

  // --- fast-forward replay to the checkpoint boundary, then verify ---
  if (resume_from != nullptr) {
    simulator.RunUntil(resume_from->virtual_time);
    const core::CorrelatorInput replayed = session.BuildCorrelatorInput();
    StateDigest digest;
    digest.Mix(replayed);
    if (digest.value() != resume_from->state_digest) {
      throw CheckpointError(
          "restore verification failed: replayed state digest differs from the "
          "snapshot — the build or configuration is not the one that took the "
          "checkpoint (" +
          DescribeDivergence(replayed, resume_from->input) + ")");
    }
    obs::SetGauge("resilience.checkpoint.restored_at_ms",
                  resume_from->virtual_time.ms());
  }

  // --- run the remainder in checkpoint-cadence slices ---
  const sim::Duration cadence = plan_.checkpoint_every;
  sim::TimePoint next_boundary = end;
  if (cadence.count() > 0) {
    // Boundaries stay on the absolute grid k × cadence whether or not the
    // run was restored, so a restored run's later checkpoints land at the
    // same virtual times as the uninterrupted run's.
    const std::int64_t elapsed = (simulator.Now() - sim::kEpoch).count();
    const std::int64_t k = elapsed / cadence.count() + 1;
    next_boundary = sim::kEpoch + sim::Duration{k * cadence.count()};
  }
  while (simulator.Now() < end) {
    const sim::TimePoint target = next_boundary < end ? next_boundary : end;
    simulator.RunUntil(target);
    if (cadence.count() > 0 && simulator.Now() >= next_boundary &&
        simulator.Now() < end) {
      Checkpoint ckpt = SnapshotSession(simulator, session, plan_);
      ++outcome.checkpoints_taken;
      outcome.last_checkpoint_bytes = ckpt.SerializedBytes();
      obs::SetGauge("resilience.checkpoint.count",
                    static_cast<double>(outcome.checkpoints_taken));
      obs::SetGauge("resilience.checkpoint.bytes",
                    static_cast<double>(outcome.last_checkpoint_bytes));
      if (plan_.on_checkpoint) plan_.on_checkpoint(ckpt);
      next_boundary += cadence;
    }
  }
  session.Stop();
  simulator.RunUntil(end);  // drain same-instant stop events, keep clock at end

  // --- final state: bound, correlate, report, digest ---
  core::CorrelatorInput input = session.BuildCorrelatorInput();
  core::CorrelatorLogs bounded;
  if (plan_.budget.any()) {
    bounded = core::CorrelatorLogs{input};
    outcome.shed = BoundInput(bounded, plan_.budget);
    input = bounded;
  }
  const core::CrossLayerDataset data = core::Correlator::Correlate(input);
  outcome.packets_correlated = data.packets.size();
  outcome.events_executed = simulator.events_executed();

  std::ostringstream report;
  core::Report::Render(
      report,
      core::Report::Inputs{
          .dataset = &data,
          .qoe = &session.qoe(),
          .ran_counters =
              session.ran_uplink() ? &session.ran_uplink()->counters() : nullptr,
          .controller_target_bps = session.sender().controller().target_bps(),
      });
  if (plan_.report_appendix) plan_.report_appendix(report);
  outcome.report = report.str();

  StateDigest final_digest;
  final_digest.Mix(input);
  outcome.final_digest = final_digest.value();
  StateDigest report_digest;
  report_digest.Mix(outcome.report);
  outcome.report_digest = report_digest.value();
  return outcome;
}

}  // namespace athena::resilience
