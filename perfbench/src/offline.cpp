/// The two offline workloads: batch inference jobs over a seeded dataset,
/// the paper's Fig 7/8 profiling path. Each cell constructs its model and
/// runs models::DgnnModel::RunInference on a fresh runtime. TGN, JODIE and
/// DyRep mutate per-node state while they infer, so a cell builds a fresh
/// model every pass; that is what makes two passes bit-identical, and it puts
/// model construction inside the measured pass.

#include <cctype>
#include <cmath>
#include <functional>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "data/molecular_gen.hpp"
#include "data/snapshot_seq_gen.hpp"
#include "data/social_evolution_gen.hpp"
#include "data/temporal_interactions.hpp"
#include "data/traffic_gen.hpp"
#include "models/astgnn.hpp"
#include "models/dyrep.hpp"
#include "models/evolvegcn.hpp"
#include "models/jodie.hpp"
#include "models/moldgnn.hpp"
#include "models/tgat.hpp"
#include "models/tgn.hpp"

namespace perfbench {
namespace {

using namespace dgnn;

/// Numeric cap of the repository's bench sweeps (cost accounting always
/// covers the full batch; see models/dgnn_model.hpp).
constexpr int64_t kNumericCap = 4;
/// Events per CTDG cell: one batch at the large size, 21 at the small one.
constexpr int64_t kCtdgEvents = 4096;
constexpr int64_t kSmallBatch = 200;
constexpr int64_t kLargeBatch = 4096;
/// DyRep processes one event at a time (batch size 1, its only setting).
constexpr int64_t kDyRepEvents = 1000;
/// EvolveGCN steps per cell: the full-size snapshot shapes, half the steps.
constexpr int64_t kEvolveSteps = 8;
constexpr int64_t kAstgnnBatch = 32;
constexpr int64_t kAstgnnSamples = 128;
constexpr int64_t kMolBatch = 64;
constexpr int64_t kMolFrames = 16384;

struct CellSpec {
    std::string label;  ///< unique cell name, e.g. "TGN/hybrid/b200"
    std::string model;  ///< metric key, e.g. "tgn"
    std::function<std::unique_ptr<models::DgnnModel>()> make;
    models::RunConfig run;
    int64_t items = 0;
    /// Fused re-run of cell `twin` (checksum must match); excluded from the
    /// Fig 7/8 figures.
    int twin = -1;
};

struct CellResult {
    models::RunResult run;
    int64_t launches = 0;
    bool ok = false;
};

models::RunConfig
Run(sim::ExecMode mode, int64_t batch, int64_t neighbors, int64_t max_events)
{
    models::RunConfig run;
    run.mode = mode;
    run.batch_size = batch;
    run.num_neighbors = neighbors;
    run.max_events = max_events;
    run.numeric_cap = kNumericCap;
    return run;
}

/// "Etc(data loading, cuda sync)" -> "etc_data_loading_cuda_sync".
std::string
MetricKey(const std::string& text)
{
    std::string key;
    for (const char c : text) {
        if (std::isalnum(static_cast<unsigned char>(c)) || c == '-') {
            key += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
        } else if (!key.empty() && key.back() != '_') {
            key += '_';
        }
    }
    while (!key.empty() && key.back() == '_') {
        key.pop_back();
    }
    return key;
}

int64_t
DeviceLaunches(const sim::Runtime& runtime)
{
    if (!runtime.HasGpu()) {
        return 0;
    }
    int64_t n = 0;
    for (const sim::TraceEvent& e : runtime.GetTrace().Events()) {
        if (e.kind == sim::EventKind::kKernel && e.device == runtime.Gpu().Name() &&
            e.start_us >= runtime.MeasureStart()) {
            ++n;
        }
    }
    return n;
}

class Offline final : public Workload {
  public:
    Offline(bool ctdg, uint64_t seed) : ctdg_(ctdg), seed_(seed) {}

    void Setup(Tracer& tracer) override
    {
        cells_.clear();
        if (ctdg_) {
            {
                auto span = tracer.Span("data.generate");
                auto spec = data::InteractionSpec::WikipediaLike(16384);
                spec.seed = DeriveSeed(spec.seed, seed_);
                wiki_.emplace(data::GenerateInteractions(spec));
            }
            {
                auto span = tracer.Span("data.generate");
                auto spec = data::PointProcessSpec::SocialEvolutionLike();
                spec.num_events = kDyRepEvents;
                spec.seed = DeriveSeed(spec.seed, seed_);
                social_.emplace(data::GeneratePointProcess(spec));
            }
            BuildCtdgCells();
        } else {
            {
                auto span = tracer.Span("data.generate");
                auto spec = data::SnapshotSpec::RedditHyperlinkLike();
                spec.seed = DeriveSeed(spec.seed, seed_);
                snapshots_.emplace(data::GenerateSnapshots(spec));
            }
            {
                auto span = tracer.Span("data.generate");
                auto spec = data::TrafficSpec::PemsLike();
                spec.seed = DeriveSeed(spec.seed, seed_);
                traffic_.emplace(data::GenerateTraffic(spec));
            }
            {
                auto span = tracer.Span("data.generate");
                auto spec = data::MolecularSpec::Iso17Like();
                spec.num_frames = kMolFrames;
                spec.seed = DeriveSeed(spec.seed, seed_);
                molecules_.emplace(data::GenerateMolecular(spec));
            }
            BuildSnapshotCells();
        }
    }

    PassOutput Pass(Tracer& tracer, Ledger& ledger) override
    {
        PassOutput out;
        results_.assign(cells_.size(), CellResult{});
        for (size_t i = 0; i < cells_.size(); ++i) {
            const CellSpec& spec = cells_[i];
            CellResult& result = results_[i];
            auto cell = tracer.Cell(spec.label);
            result.ok = ledger.Run(spec.label, [&] {
                std::unique_ptr<models::DgnnModel> model;
                {
                    auto span = tracer.Span("models.construct");
                    model = spec.make();
                }
                auto span = tracer.Span("models.infer");
                sim::Runtime runtime = models::MakeRuntime(spec.run.mode);
                result.run = model->RunInference(runtime, spec.run);
                result.launches = DeviceLaunches(runtime);
            });
            if (!result.ok) {
                continue;
            }
            const models::RunResult& r = result.run;
            out.items += spec.items;
            out.fingerprints[spec.label] = Fingerprint()
                                               .Add(r.output_checksum)
                                               .Add(r.total_us)
                                               .Add(r.iterations)
                                               .Add(r.h2d_bytes)
                                               .Add(r.d2h_bytes)
                                               .Add(r.transfer_time_us)
                                               .Add(r.compute_busy_us)
                                               .Add(result.launches)
                                               .Str();
            ledger.Check(std::isfinite(r.output_checksum) && std::isfinite(r.total_us) &&
                             r.total_us > 0.0,
                         spec.label + ": outputs finite");
            if (spec.twin >= 0 && results_[static_cast<size_t>(spec.twin)].ok) {
                ledger.Check(r.output_checksum ==
                                 results_[static_cast<size_t>(spec.twin)]
                                     .run.output_checksum,
                             spec.label + ": fused checksum equals unfused");
            }
        }
        return out;
    }

    void SimMetrics(Metrics& m) const override
    {
        double log_speedup = 0.0;
        int pairs = 0;
        double hybrid_busy = 0.0;
        double hybrid_total = 0.0;
        for (size_t i = 0; i < cells_.size(); ++i) {
            const CellSpec& spec = cells_[i];
            const CellResult& result = results_[i];
            if (spec.twin >= 0 || !result.ok) {
                continue;
            }
            const models::RunResult& r = result.run;
            m.Add("sim_window_ms", r.total_us / 1000.0);
            m.Add("sim.h2d_mb", static_cast<double>(r.h2d_bytes) / (1024.0 * 1024.0));
            m.Add("sim.d2h_mb", static_cast<double>(r.d2h_bytes) / (1024.0 * 1024.0));
            m.Add("sim.transfer_ms", r.transfer_time_us / 1000.0);
            m.Add("sim.compute_busy_ms", r.compute_busy_us / 1000.0);
            m.Add("sim.warmup_ms", (r.warmup_one_time_us + r.warmup_per_run_us) / 1000.0);
            m.Add("sim.launches", static_cast<double>(result.launches));
            for (const core::BreakdownEntry& e : r.breakdown.Entries()) {
                m.Add("models.breakdown_ms." + spec.model + "." + MetricKey(e.category),
                      e.time_us / 1000.0);
            }
            if (spec.run.mode == sim::ExecMode::kHybrid) {
                hybrid_busy += r.compute_busy_us;
                hybrid_total += r.total_us;
                // Cells come in (CPU-only, hybrid) pairs; Fig 8's speed-up is
                // CPU-only window over hybrid window.
                const CellResult& cpu = results_[i - 1];
                if (cpu.ok) {
                    log_speedup += std::log(cpu.run.total_us / r.total_us);
                    ++pairs;
                }
            }
        }
        m.Set("sim_gpu_speedup", pairs > 0 ? std::exp(log_speedup / pairs) : 0.0);
        m.Set("sim.gpu_util_pct", hybrid_total > 0.0 ? 100.0 * hybrid_busy / hybrid_total : 0.0);
    }

    void Replays(Tracer& tracer, Ledger& ledger, Metrics& m) override
    {
        if (ctdg_) {
            ledger.Run("replay graph sampler", [&] {
                ReplaySampler(wiki_->stream, kCtdgEvents, tracer, m);
            });
        }
        // Profiles of every distinct (model, batch) hybrid cell, captured the
        // way the serving layer captures them, re-issued on fresh runtimes.
        ledger.Run("replay sim runtime", [&] {
            std::vector<serve::BatchProfile> profiles;
            std::vector<std::unique_ptr<models::DgnnModel>> keep;
            for (size_t i = 0; i < cells_.size(); ++i) {
                const CellSpec& spec = cells_[i];
                if (spec.twin >= 0 || spec.run.mode != sim::ExecMode::kHybrid) {
                    continue;
                }
                auto capture = tracer.Span("replay.capture");
                keep.push_back(spec.make());
                serve::ModelSession session(*keep.back(), sim::ExecMode::kHybrid,
                                            std::max<int64_t>(1, spec.run.num_neighbors));
                profiles.push_back(session.Profile(spec.run.batch_size));
            }
            ReplayProfiles(profiles, tracer, m);
        });
    }

  private:
    template <typename Model, typename Dataset, typename Config>
    void AddPair(const std::string& name, const std::string& key, const Dataset& ds,
                 Config config, int64_t batch, int64_t neighbors, int64_t max_events,
                 int64_t items)
    {
        for (const sim::ExecMode mode : {sim::ExecMode::kCpuOnly, sim::ExecMode::kHybrid}) {
            cells_.push_back({name + "/" + sim::ToString(mode) + "/b" + std::to_string(batch),
                              key,
                              [&ds, config] { return std::make_unique<Model>(ds, config); },
                              Run(mode, batch, neighbors, max_events), items});
        }
    }

    /// Fused twin of the most recently added (hybrid) cell.
    void AddFusedTwin()
    {
        CellSpec twin = cells_.back();
        twin.twin = static_cast<int>(cells_.size()) - 1;
        twin.label += "/fused";
        twin.run.fuse_kernels = true;
        cells_.push_back(std::move(twin));
    }

    void BuildCtdgCells()
    {
        const data::InteractionDataset& wiki = *wiki_;
        for (const int64_t batch : {kSmallBatch, kLargeBatch}) {
            AddPair<models::Tgn>("TGN", "tgn", wiki, models::TgnConfig{}, batch, 10,
                                 kCtdgEvents, kCtdgEvents);
            if (batch == kSmallBatch) {
                AddFusedTwin();
            }
            AddPair<models::Tgat>("TGAT", "tgat", wiki, models::TgatConfig{}, batch, 20,
                                  kCtdgEvents, kCtdgEvents);
            if (batch == kSmallBatch) {
                AddFusedTwin();
            }
            AddPair<models::Jodie>("JODIE", "jodie", wiki, models::JodieConfig{}, batch, 0,
                                   kCtdgEvents, kCtdgEvents);
            if (batch == kSmallBatch) {
                AddFusedTwin();
            }
        }
        AddPair<models::DyRep>("DyRep", "dyrep", *social_, models::DyRepConfig{}, 1, 5,
                               kDyRepEvents, kDyRepEvents);
    }

    void BuildSnapshotCells()
    {
        for (const auto variant : {models::EvolveGcnVariant::kO, models::EvolveGcnVariant::kH}) {
            models::EvolveGcnConfig config;
            config.variant = variant;
            AddPair<models::EvolveGcn>(models::ToString(variant),
                                       "evolvegcn", *snapshots_, config, 1, 0, kEvolveSteps,
                                       kEvolveSteps);
        }
        AddPair<models::Astgnn>("ASTGNN", "astgnn", *traffic_, models::AstgnnConfig{},
                                kAstgnnBatch, 0, kAstgnnSamples, kAstgnnSamples);
        AddPair<models::MolDgnn>("MolDGNN", "moldgnn", *molecules_, models::MolDgnnConfig{},
                                 kMolBatch, 0, 0, kMolFrames);
    }

    bool ctdg_;
    uint64_t seed_;
    std::optional<data::InteractionDataset> wiki_;
    std::optional<data::PointProcessDataset> social_;
    std::optional<data::SnapshotDataset> snapshots_;
    std::optional<data::TrafficDataset> traffic_;
    std::optional<data::MolecularDataset> molecules_;
    std::vector<CellSpec> cells_;
    std::vector<CellResult> results_;
};

}  // namespace

std::unique_ptr<Workload>
MakeOfflineCtdg(uint64_t seed)
{
    return std::make_unique<Offline>(true, seed);
}

std::unique_ptr<Workload>
MakeOfflineSnapshot(uint64_t seed)
{
    return std::make_unique<Offline>(false, seed);
}

}  // namespace perfbench
