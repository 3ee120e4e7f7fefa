/// The serving gauntlet — adversarial scenario sweep with a machine-
/// readable perf trajectory. The paper's Fig 6/7 bottleneck breakdowns
/// were measured on benign, stationary workloads; production serving is
/// not stationary (diurnal cycles, flash crowds, bursty on/off sources)
/// and not cache-friendly (hot sets drift, celebrities appear, communities
/// churn). This harness sweeps every registry scenario
/// (scenario::GauntletScenarios) x model (TGN/TGAT/JODIE, hybrid mode) x
/// executor (serial/pipelined) through the serving loop with a warm
/// device cache and reports tail latency, sustained throughput, PCIe
/// volumes, and cache hit rate per cell.
///
/// Two outputs, both deterministic and gated by the
/// golden.bench_serving_gauntlet ctest:
///   * this text summary, diffed against
///     docs/expected/bench_serving_gauntlet.txt, and
///   * BENCH_serving_gauntlet.json (core::BenchJsonWriter) — the repo's
///     perf-trajectory record; scripts/compare_bench.py diffs two of them
///     with tolerances to gate perf regressions across PRs.

#include <algorithm>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "bench_common.hpp"
#include "core/bench_json_writer.hpp"
#include "models/jodie.hpp"
#include "models/tgat.hpp"
#include "models/tgn.hpp"
#include "scenario/scenario.hpp"
#include "serve/server.hpp"

namespace dgnn {
namespace {

constexpr uint64_t kSeed = 1009;
constexpr double kBaseQps = 20000.0;
constexpr int64_t kServeBatch = 64;
constexpr sim::SimTime kBatchTimeoutUs = 5000.0;
constexpr int64_t kRequests = 1024;

data::InteractionSpec
GauntletDatasetSpec()
{
    data::InteractionSpec spec;
    spec.name = "gauntlet";  // recurrent repeat-talker stream (the baseline)
    spec.num_users = 512;
    spec.num_items = 128;
    spec.num_events = 4096;
    spec.edge_feature_dim = 64;
    spec.popularity_alpha = 2.5;
    spec.repeat_prob = 0.9;
    spec.seed = 31;
    return spec;
}

std::string
Pct(double fraction)
{
    return core::TableWriter::Num(100.0 * fraction, 1) + "%";
}

void
CatalogSection(const std::vector<scenario::Scenario>& scenarios,
               const data::InteractionDataset& dataset, int64_t n)
{
    bench::Banner("Scenario catalog",
                  "burstiness and locality of each adversarial regime");
    core::TableWriter table({"scenario", "arrivals", "access", "cv(gap)",
                             "peak/mean", "unique nodes", "reuse"});
    for (const scenario::Scenario& s : scenarios) {
        const std::vector<serve::Request> requests =
            scenario::GenerateRequests(s, dataset, n);
        std::vector<sim::SimTime> times;
        times.reserve(requests.size());
        for (const serve::Request& r : requests) {
            times.push_back(r.arrival_us);
        }
        // Rate windows at 1/16 of the span resolve within-run bursts
        // regardless of how much a scenario compresses the timeline.
        const double span =
            times.size() > 1 ? times.back() - times.front() : 0.0;
        const scenario::ArrivalStats arrival = scenario::CharacterizeArrivals(
            times, std::max(1.0, span / 16.0));
        const scenario::AccessStats access =
            scenario::CharacterizeAccesses(requests);
        table.AddRow({s.name, scenario::ToString(s.arrival),
                      scenario::ToString(s.access),
                      core::TableWriter::Num(arrival.cv_gap, 2),
                      core::TableWriter::Num(arrival.peak_to_mean, 2),
                      core::TableWriter::Num(
                          static_cast<double>(access.unique_nodes), 0),
                      Pct(access.reuse_fraction)});
    }
    std::cout << table.ToString();
}

struct CellKey {
    std::string scenario;
    std::string model;
    std::string executor;

    bool operator<(const CellKey& other) const
    {
        return std::tie(scenario, model, executor) <
               std::tie(other.scenario, other.model, other.executor);
    }
};

void
SweepModel(const std::string& model_name, models::DgnnModel& model,
           const std::vector<scenario::Scenario>& scenarios,
           const data::InteractionDataset& dataset, int64_t n,
           core::BenchJsonWriter& json,
           std::map<CellKey, double>& hit_rates)
{
    bench::Banner("Gauntlet: " + model_name + " (hybrid)",
                  "scenario x executor sweep with a warm device cache");

    // A quarter of the node state fits on the device: large enough that the
    // recurrent baseline gets real hits, small enough that the adversarial
    // access regimes cause eviction churn.
    const int64_t capacity =
        dataset.NumNodes() / 4 * model.CacheRowBytes();

    core::TableWriter table({"scenario", "executor", "offered qps",
                             "sustained qps", "p50 (ms)", "p99 (ms)",
                             "overflow", "h2d (MB)", "d2h (MB)", "hit rate",
                             "saved (MB)"});
    for (const scenario::Scenario& s : scenarios) {
        const scenario::ScenarioSource source(s, dataset);
        for (const serve::ExecutorKind kind :
             {serve::ExecutorKind::kSerial, serve::ExecutorKind::kPipelined}) {
            // A fresh session per cell: cache warmth must not leak across
            // scenarios, or the per-scenario hit rates would depend on
            // sweep order.
            cache::DeviceCacheConfig cache_config;
            cache_config.capacity_bytes = capacity;
            cache_config.eviction = cache::EvictionPolicy::kLru;
            serve::ModelSession session(model, sim::ExecMode::kHybrid,
                                        /*num_neighbors=*/10, cache_config);
            serve::TimeoutPolicy policy(kServeBatch, kBatchTimeoutUs);
            serve::ServerOptions options;
            options.executor = kind;

            const serve::ServingReport report =
                serve::Serve(session, policy, source, n, options);

            const double hit_rate = report.cache_stats.HitRate();
            hit_rates[CellKey{s.name, model_name,
                              serve::ToString(kind)}] = hit_rate;

            table.AddRow({s.name, serve::ToString(kind),
                          core::TableWriter::Num(report.offered_qps, 0),
                          core::TableWriter::Num(report.achieved_qps, 0),
                          bench::Ms(report.latency.P50()),
                          bench::Ms(report.latency.P99()),
                          core::TableWriter::Num(
                              static_cast<double>(report.latency.OverflowCount()),
                              0),
                          bench::Mb(report.h2d_bytes),
                          bench::Mb(report.d2h_bytes), Pct(hit_rate),
                          bench::Mb(report.cache_hit_bytes)});

            json.BeginRecord();
            json.Field("scenario", s.name);
            json.Field("model", model_name);
            json.Field("executor", serve::ToString(kind));
            json.Field("requests", report.requests);
            json.Field("batches", report.batches);
            json.Field("offered_qps", report.offered_qps, 1);
            json.Field("achieved_qps", report.achieved_qps, 1);
            json.Field("p50_ms", report.latency.P50() / 1000.0, 4);
            json.Field("p99_ms", report.latency.P99() / 1000.0, 4);
            json.Field("max_ms", report.latency.Max() / 1000.0, 4);
            json.Field("overflow", report.latency.OverflowCount());
            json.Field("h2d_mb",
                       static_cast<double>(report.h2d_bytes) / (1024.0 * 1024.0),
                       4);
            json.Field("d2h_mb",
                       static_cast<double>(report.d2h_bytes) / (1024.0 * 1024.0),
                       4);
            json.Field("cache_hit_rate", hit_rate, 4);
            json.Field("cache_saved_mb",
                       static_cast<double>(report.cache_hit_bytes) /
                           (1024.0 * 1024.0),
                       4);
        }
    }
    std::cout << table.ToString();
}

void
VerdictSection(const std::map<CellKey, double>& hit_rates)
{
    bench::Banner("Cache-adversarial verdict",
                  "do the adversarial access regimes defeat the PR 3 cache?");

    // The recurrent baseline vs the adversarial access regimes, per model
    // (serial executor; the cache sees the same stream under both).
    const char* kBaseline = "poisson/recurrent";
    const std::vector<std::string> adversarial = {
        "poisson/hotset-drift", "flash-crowd/pref-burst",
        "mmpp/community-churn"};
    // TGAT serves uncached (no per-node state cache), so its hit rates are
    // all zero — the verdict covers the cacheable models.
    const std::vector<std::string> cached_models = {"TGN", "JODIE"};

    core::TableWriter table(
        {"model", "baseline hit rate", "worst adversarial", "scenario",
         "verdict"});
    bool all_defeated = true;
    for (const std::string& model : cached_models) {
        const double baseline =
            hit_rates.at(CellKey{kBaseline, model, "serial"});
        double worst = 1.0;
        std::string worst_name;
        for (const std::string& name : adversarial) {
            const double rate = hit_rates.at(CellKey{name, model, "serial"});
            if (rate < worst) {
                worst = rate;
                worst_name = name;
            }
        }
        const bool defeated = worst < baseline;
        all_defeated = all_defeated && defeated;
        table.AddRow({model, Pct(baseline), Pct(worst), worst_name,
                      defeated ? "adversary wins (hit rate down)"
                               : "NO EFFECT — investigate"});
    }
    std::cout << table.ToString();
    std::cout << "verdict: "
              << (all_defeated
                      ? "cache-adversarial scenarios lower the hit rate on "
                        "every cacheable model"
                      : "ADVERSARIAL SCENARIOS INEFFECTIVE — investigate")
              << "\n";
}

}  // namespace
}  // namespace dgnn

int
main()
{
    using namespace dgnn;

    const int64_t n = kRequests;
    std::cout << "DGNN serving gauntlet (simulated Xeon Gold 6226R + RTX "
                 "A6000)\n"
              << "Scenario x model x executor sweep; " << n
              << " requests per cell, base rate "
              << static_cast<int64_t>(kBaseQps) << " qps, timeout("
              << kServeBatch << ","
              << static_cast<int64_t>(kBatchTimeoutUs) / 1000
              << "ms) batching, seed " << kSeed << "\n";

    const auto dataset = data::GenerateInteractions(GauntletDatasetSpec());
    const std::vector<scenario::Scenario> scenarios =
        scenario::GauntletScenarios(kBaseQps, n, dataset.NumNodes(), kSeed);

    CatalogSection(scenarios, dataset, n);

    models::Tgn tgn(dataset, models::TgnConfig{172, 64, 2, 11});
    models::Tgat tgat(dataset, models::TgatConfig{});
    models::Jodie jodie(dataset, models::JodieConfig{});

    core::BenchJsonWriter json("serving_gauntlet");
    std::map<CellKey, double> hit_rates;
    SweepModel("TGN", tgn, scenarios, dataset, n, json, hit_rates);
    SweepModel("TGAT", tgat, scenarios, dataset, n, json, hit_rates);
    SweepModel("JODIE", jodie, scenarios, dataset, n, json, hit_rates);

    VerdictSection(hit_rates);

    json.WriteFile("BENCH_serving_gauntlet.json");
    std::cout << "json: BENCH_serving_gauntlet.json (" << json.RecordCount()
              << " records)\n";
    return 0;
}
