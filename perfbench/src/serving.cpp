/// The serve-gauntlet workload: an open loop of simulated independent users
/// whose arrival times are fixed before serving starts, so the generator is
/// never late. TGN serves through an LRU device cache sized to a quarter of
/// the node state (mutable rows: write-backs); TGAT serves uncached
/// (read-only feature rows: the cache is bypassed). Both run hybrid with
/// the pipelined executor and the per-batch HybridDispatcher.
///
/// Sessions capture every batch size the policy can dispatch during set-up;
/// each cell serves from a copy of the captured session, so every cell
/// starts with a cold cache and no tensor work runs in the measured pass.
/// The exception is shard::ServeSharded, which builds (and captures) its
/// own per-shard sessions inside the pass.

#include <cmath>
#include <functional>
#include <memory>
#include <optional>

#include "analysis/hazard_checker.hpp"
#include "bench.hpp"
#include "core/latency_histogram.hpp"
#include "data/temporal_interactions.hpp"
#include "dispatch/dispatcher.hpp"
#include "models/tgat.hpp"
#include "models/tgn.hpp"
#include "obs/observability.hpp"
#include "scenario/scenario.hpp"
#include "serve/batch_policy.hpp"
#include "serve/server.hpp"
#include "shard/sharded_server.hpp"

namespace perfbench {
namespace {

using namespace dgnn;

// The repository's serving set-up: bench/serving_gauntlet.cpp (dataset,
// arrivals, batching) and bench/shard_scaling.cpp (partition seed).
constexpr uint64_t kDatasetSeed = 31;
constexpr uint64_t kArrivalSeed = 1009;
constexpr uint64_t kPartitionSeed = 7;
constexpr double kBaseQps = 20000.0;
constexpr int64_t kRequests = 16384;
constexpr int64_t kServeBatch = 64;
constexpr sim::SimTime kBatchTimeoutUs = 5000.0;
constexpr int64_t kNeighbors = 10;
/// The repository's p99 SLO (bench/serving_latency.cpp).
constexpr sim::SimTime kSloUs = 20000.0;
constexpr int64_t kSearchRequests = 1024;
constexpr int32_t kShards = 4;

data::InteractionSpec
GauntletDatasetSpec(uint64_t seed)
{
    data::InteractionSpec spec;
    spec.name = "gauntlet";
    spec.num_users = 512;
    spec.num_items = 128;
    spec.num_events = 4096;
    spec.edge_feature_dim = 64;
    spec.popularity_alpha = 2.5;
    spec.repeat_prob = 0.9;
    spec.seed = DeriveSeed(kDatasetSeed, seed);
    return spec;
}

std::unique_ptr<serve::BatchPolicy>
MakePolicy()
{
    return std::make_unique<serve::TimeoutPolicy>(kServeBatch, kBatchTimeoutUs);
}

/// Samples at or under @p limit_us, resolved to one histogram bucket.
int64_t
CountWithin(const core::LatencyHistogram& h, double limit_us)
{
    int64_t lo = 0;  // Quantile(rank lo) <= limit holds (rank 0: nothing)
    int64_t hi = h.Count();
    while (lo < hi) {
        const int64_t mid = (lo + hi + 1) / 2;
        const double q = (static_cast<double>(mid) - 0.5) / static_cast<double>(h.Count());
        if (h.Quantile(q) <= limit_us) {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    return lo;
}

std::string
ReportFingerprint(const serve::ServingReport& r)
{
    return Fingerprint()
        .Add(r.requests)
        .Add(r.batches)
        .Add(r.makespan_us)
        .Add(r.achieved_qps)
        .Add(r.latency.Count())
        .Add(r.latency.Mean())
        .Add(r.latency.P50())
        .Add(r.latency.P99())
        .Add(r.h2d_bytes)
        .Add(r.d2h_bytes)
        .Add(r.cache_hit_bytes)
        .Add(r.exchange.bytes)
        .Str();
}

/// Latency, bytes and throughput agree exactly.
bool
SameServing(const serve::ServingReport& a, const serve::ServingReport& b)
{
    return a.requests == b.requests && a.batches == b.batches &&
           a.makespan_us == b.makespan_us && a.achieved_qps == b.achieved_qps &&
           a.latency.Count() == b.latency.Count() && a.latency.Mean() == b.latency.Mean() &&
           a.latency.P50() == b.latency.P50() && a.latency.P99() == b.latency.P99() &&
           a.latency.Max() == b.latency.Max() && a.h2d_bytes == b.h2d_bytes &&
           a.d2h_bytes == b.d2h_bytes && a.cache_hit_bytes == b.cache_hit_bytes;
}

struct Served {
    std::string name;  ///< "tgn" / "tgat"
    models::DgnnModel* model = nullptr;
    std::optional<serve::ModelSession> session;  ///< captured, never served
    std::vector<serve::ServingReport> sweep;     ///< one per scenario
    serve::QpsSearchResult search;
    obs::AttributionSummary attribution;
    std::vector<double> stage_us;  ///< per-request mean per SpanKind
    int64_t traced_requests = 0;
    int64_t hazards = 0;
};

class ServeGauntlet final : public Workload {
  public:
    explicit ServeGauntlet(uint64_t seed) : seed_(seed) {}

    void Setup(Tracer& tracer) override
    {
        served_.clear();
        tgn_.reset();
        tgat_.reset();
        {
            auto span = tracer.Span("data.generate");
            dataset_.emplace(data::GenerateInteractions(GauntletDatasetSpec(seed_)));
            scenarios_ = scenario::GauntletScenarios(kBaseQps, kRequests, dataset_->NumNodes(),
                                                     DeriveSeed(kArrivalSeed, seed_));
        }
        {
            auto span = tracer.Span("models.construct");
            tgn_.emplace(*dataset_, models::TgnConfig{172, 64, 2, 11});
            tgat_.emplace(*dataset_, models::TgatConfig{});
        }
        served_.resize(2);
        served_[0].name = "tgn";
        served_[0].model = &*tgn_;
        served_[1].name = "tgat";
        served_[1].model = &*tgat_;
        for (Served& s : served_) {
            auto span = tracer.Span("serve.capture");
            s.session.emplace(*s.model, sim::ExecMode::kHybrid, kNeighbors, CacheConfig(*s.model));
            for (int64_t b = 1; b <= kServeBatch; ++b) {
                (void)s.session->Profile(b);
                (void)s.session->FusedProfile(b);
            }
        }
        flash_ = 0;
        for (size_t i = 0; i < scenarios_.size(); ++i) {
            if (scenarios_[i].arrival == scenario::ArrivalKind::kFlashCrowd) {
                flash_ = i;
                break;
            }
        }
    }

    PassOutput Pass(Tracer& tracer, Ledger& ledger) override
    {
        PassOutput out;
        std::vector<std::vector<serve::Request>> requests(scenarios_.size());
        for (Served& s : served_) {
            s.sweep.assign(scenarios_.size(), serve::ServingReport());
            for (size_t i = 0; i < scenarios_.size(); ++i) {
                const std::string label = s.name + "/" + scenarios_[i].name;
                auto cell = tracer.Cell(label);
                const bool ok = ledger.Run(label, [&] {
                    {
                        // Both models see the same request stream per scenario.
                        auto span = tracer.Span("scenario.generate");
                        requests[i] = scenario::GenerateRequests(scenarios_[i], *dataset_,
                                                                 kRequests);
                    }
                    serve::ModelSession session = *s.session;
                    serve::TimeoutPolicy policy(kServeBatch, kBatchTimeoutUs);
                    auto span = tracer.Span("serve.loop");
                    s.sweep[i] = serve::ServeRequests(session, policy, requests[i], Options());
                });
                if (ok) {
                    out.items += s.sweep[i].requests;
                    out.fingerprints[label] = ReportFingerprint(s.sweep[i]);
                    CheckFinite(s.sweep[i], label, ledger);
                }
            }
        }

        for (Served& s : served_) {
            const std::string label = s.name + "/search";
            auto cell = tracer.Cell(label);
            const bool ok = ledger.Run(label, [&] {
                serve::ModelSession session = *s.session;
                auto span = tracer.Span("serve.search");
                s.search = serve::FindMaxQpsUnderSlo(session, MakePolicy, Options(), kSloUs,
                                                     kSearchRequests,
                                                     DeriveSeed(kArrivalSeed, seed_));
            });
            if (ok) {
                // The search's probe requests are not counted as items: how
                // many rates it probes depends on the seed.
                out.fingerprints[label] = Fingerprint()
                                              .Add(s.search.max_qps)
                                              .Add(s.search.p99_us)
                                              .Add(s.search.evaluations)
                                              .Str();
                // A zero max QPS is the search's documented "floor failed"
                // outcome; it is reported, not counted as a failure (see
                // README, known defect).
                ledger.Check(std::isfinite(s.search.max_qps) && std::isfinite(s.search.p99_us),
                             label + ": search outputs finite");
            }
        }

        // Scale-out: TGN's recurrent stream over 4 shards, and the 1-shard
        // identity against the unsharded sweep cell.
        Served& tgn = served_[0];
        for (const int32_t shards : {kShards, 1}) {
            const std::string label = "tgn/shards" + std::to_string(shards);
            auto cell = tracer.Cell(label);
            shard::ShardedReport report;
            const bool ok = ledger.Run(label, [&] {
                shard::ShardedOptions options;
                options.num_shards = shards;
                options.partition_seed = DeriveSeed(kPartitionSeed, seed_);
                options.server = Options();
                options.cache_config = CacheConfig(*tgn.model);
                options.num_neighbors = kNeighbors;
                auto span = tracer.Span("shard.serve");
                report = shard::ServeSharded(*tgn.model, sim::ExecMode::kHybrid,
                                             dataset_->NumNodes(), requests[0], MakePolicy,
                                             options);
            });
            if (!ok) {
                continue;
            }
            out.items += report.requests;
            out.fingerprints[label] = Fingerprint()
                                          .Add(report.sustained_qps)
                                          .Add(report.makespan_us)
                                          .Add(report.latency.P50())
                                          .Add(report.latency.P99())
                                          .Add(report.exchange.bytes)
                                          .Add(report.edge_cut)
                                          .Str();
            if (shards == 1) {
                ledger.Check(report.shards.size() == 1 &&
                                 SameServing(report.shards[0], tgn.sweep[0]),
                             label + ": 1-shard run equals unsharded serving");
            } else {
                sharded_ = report;
            }
        }

        // Observed cells: the flash crowd with the observability layer and
        // the hazard checker attached must equal its null-seam cell.
        for (Served& s : served_) {
            const std::string label = s.name + "/observed";
            auto cell = tracer.Cell(label);
            obs::ServingObservability observability;
            analysis::HazardChecker checker;
            serve::ServingReport report;
            const bool ok = ledger.Run(label, [&] {
                serve::ModelSession session = *s.session;
                serve::TimeoutPolicy policy(kServeBatch, kBatchTimeoutUs);
                serve::ServerOptions options = Options();
                options.observer = &observability;
                options.runtime_observer = &checker;
                auto span = tracer.Span("obs.serve");
                report = serve::ServeRequests(session, policy, requests[flash_], options);
            });
            if (!ok) {
                continue;
            }
            out.items += report.requests;
            ledger.Check(SameServing(report, s.sweep[flash_]),
                         label + ": observed cell equals its null-seam cell");
            const obs::RequestTimeline& timeline = observability.Timeline();
            ledger.Check(timeline.MaxConservationErrorUs() <= 1e-6,
                         label + ": span conservation within 1e-6 us");
            const analysis::HazardReport hazards = checker.Report();
            s.hazards = hazards.HazardOccurrences();
            ledger.Check(hazards.Clean(), label + ": zero hazards");
            s.attribution = observability.Attribution().Summary();
            s.traced_requests = timeline.Count();
            s.stage_us.assign(obs::kNumSpanKinds, 0.0);
            for (int k = 0; k < obs::kNumSpanKinds; ++k) {
                s.stage_us[static_cast<size_t>(k)] =
                    timeline.MeanSpanUs(static_cast<obs::SpanKind>(k));
            }
        }
        return out;
    }

    void SimMetrics(Metrics& m) const override
    {
        core::LatencyHistogram pooled;
        int64_t sent = 0;
        core::RunningStat batch_size;
        core::RunningStat queue_depth;
        cache::CacheStats cache;
        int64_t saved_bytes = 0;
        int64_t traced = 0;
        for (const Served& s : served_) {
            for (const serve::ServingReport& r : s.sweep) {
                m.Add("sim_window_ms", r.makespan_us / 1000.0);
                m.Add("sim.h2d_mb", static_cast<double>(r.h2d_bytes) / (1024.0 * 1024.0));
                m.Add("sim.d2h_mb", static_cast<double>(r.d2h_bytes) / (1024.0 * 1024.0));
                m.Add("serve.batches", static_cast<double>(r.batches));
                batch_size.Merge(r.batch_size);
                queue_depth.Merge(r.queue_depth);
                pooled.Merge(r.latency);
                sent += r.requests;
                cache += r.cache_stats;
                saved_bytes += r.cache_hit_bytes;
                m.Add("dispatch.batches.cpu", static_cast<double>(r.placement_batches[0]));
                m.Add("dispatch.batches.gpu", static_cast<double>(r.placement_batches[1]));
                m.Add("dispatch.batches.gpu_fused", static_cast<double>(r.placement_batches[2]));
            }
            m.Set("sim_max_qps." + s.name, s.search.max_qps);
            traced += s.traced_requests;
            const char* kStages[] = {"queue", "stall", "host", "h2d", "compute", "d2h"};
            for (size_t k = 0; k < s.stage_us.size(); ++k) {
                m.Add(std::string("serve.stage_ms.") + kStages[k],
                      s.stage_us[k] * static_cast<double>(s.traced_requests) / 1000.0);
            }
            const char* kCategories[] = {"queueing", "host", "transfer", "compute",
                                         "cross_shard"};
            for (int k = 0; k < obs::kNumBottleneckCategories; ++k) {
                m.Add(std::string("obs.attribution.") + kCategories[k],
                      static_cast<double>(s.attribution.batches[static_cast<size_t>(k)]));
            }
            m.Add("analysis.hazards", static_cast<double>(s.hazards));
        }
        // Stage means pool the observed cells per request.
        for (const char* stage : {"queue", "stall", "host", "h2d", "compute", "d2h"}) {
            const std::string name = std::string("serve.stage_ms.") + stage;
            m.Set(name, traced > 0 ? m.Get(name) / static_cast<double>(traced) : 0.0);
        }
        pooled.Merge(sharded_.latency);
        sent += sharded_.requests;
        m.Set("serve.batch_size_mean", batch_size.Mean());
        m.Set("serve.queue_depth_mean", queue_depth.Mean());
        m.Set("sim_p50_ms", pooled.P50() / 1000.0);
        m.Set("sim_p99_ms", pooled.P99() / 1000.0);
        m.Set("sim_latency_samples", static_cast<double>(pooled.Count()));
        m.Set("slo_miss_frac",
              sent > 0 ? static_cast<double>(sent - CountWithin(pooled, kSloUs)) /
                             static_cast<double>(sent)
                       : 0.0);
        m.Set("cache.hit_rate", cache.HitRate());
        m.Set("cache.saved_mb", static_cast<double>(saved_bytes) / (1024.0 * 1024.0));
        m.Set("cache.writebacks", static_cast<double>(cache.writeback_rows));
        m.Set("cache.evictions", static_cast<double>(cache.evictions));
        m.Set("shard.exchange_mb", static_cast<double>(sharded_.exchange.bytes) / (1024.0 * 1024.0));
        m.Set("shard.comm_tax_pct", sharded_.comm_tax_pct);
        m.Set("shard.edge_cut", static_cast<double>(sharded_.edge_cut));
        m.Set("shard.cluster_qps", sharded_.sustained_qps);
    }

    void Replays(Tracer& tracer, Ledger& ledger, Metrics& m) override
    {
        ledger.Run("replay graph sampler", [&] {
            ReplaySampler(dataset_->stream, dataset_->stream.NumEvents(), tracer, m);
        });
        ledger.Run("replay sim runtime", [&] {
            std::vector<serve::BatchProfile> profiles;
            for (Served& s : served_) {
                for (int64_t b = 1; b <= kServeBatch; ++b) {
                    profiles.push_back(s.session->Profile(b));
                }
            }
            ReplayProfiles(profiles, tracer, m);
        });
        // Observer and hazard-checker attach cost against the null seam, on
        // the flash-crowd cell, interleaved so drift hits all three alike.
        ledger.Run("replay observer attach", [&] {
            const std::vector<serve::Request> requests =
                scenario::GenerateRequests(scenarios_[flash_], *dataset_, kRequests);
            double null_s = 0.0;
            double obs_s = 0.0;
            double hazard_s = 0.0;
            for (Served& s : served_) {
                std::vector<double> t_null;
                std::vector<double> t_obs;
                std::vector<double> t_hazard;
                for (int r = 0; r < 5; ++r) {
                    for (int variant = 0; variant < 3; ++variant) {
                        serve::ModelSession session = *s.session;
                        serve::TimeoutPolicy policy(kServeBatch, kBatchTimeoutUs);
                        serve::ServerOptions options = Options();
                        obs::ServingObservability observability;
                        analysis::HazardChecker checker;
                        const char* name = "serve.loop";
                        if (variant == 1) {
                            options.observer = &observability;
                            name = "obs.attach";
                        } else if (variant == 2) {
                            options.runtime_observer = &checker;
                            name = "analysis.attach";
                        }
                        const auto t0 = Clock::now();
                        {
                            auto span = tracer.Span(name);
                            (void)serve::ServeRequests(session, policy, requests, options);
                        }
                        const double dt = Seconds(t0, Clock::now());
                        (variant == 0 ? t_null : variant == 1 ? t_obs : t_hazard).push_back(dt);
                    }
                }
                null_s += Median(t_null);
                obs_s += Median(t_obs);
                hazard_s += Median(t_hazard);
            }
            m.Set("obs.overhead_ratio", obs_s / null_s);
            m.Set("analysis.overhead_ratio", hazard_s / null_s);
        });
    }

  private:
    cache::DeviceCacheConfig CacheConfig(const models::DgnnModel& model) const
    {
        cache::DeviceCacheConfig config;
        if (model.CacheKeysAreRequestEndpoints()) {
            config.capacity_bytes = dataset_->NumNodes() / 4 * model.CacheRowBytes();
            config.eviction = cache::EvictionPolicy::kLru;
        }
        return config;
    }

    serve::ServerOptions Options() const
    {
        serve::ServerOptions options;
        options.executor = serve::ExecutorKind::kPipelined;
        options.dispatcher = &dispatcher_;
        return options;
    }

    static void CheckFinite(const serve::ServingReport& r, const std::string& label,
                            Ledger& ledger)
    {
        ledger.Check(r.latency.Count() == r.requests && std::isfinite(r.latency.Mean()) &&
                         std::isfinite(r.makespan_us) && std::isfinite(r.achieved_qps),
                     label + ": every request completed, outputs finite");
    }

    uint64_t seed_;
    dispatch::HybridDispatcher dispatcher_;
    std::optional<data::InteractionDataset> dataset_;
    std::vector<scenario::Scenario> scenarios_;
    size_t flash_ = 0;
    std::optional<models::Tgn> tgn_;
    std::optional<models::Tgat> tgat_;
    std::vector<Served> served_;
    shard::ShardedReport sharded_;
};

}  // namespace

std::unique_ptr<Workload>
MakeServeGauntlet(uint64_t seed)
{
    return std::make_unique<ServeGauntlet>(seed);
}

}  // namespace perfbench
