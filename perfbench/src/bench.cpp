#include "bench.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "graph/temporal_sampler.hpp"
#include "models/dgnn_model.hpp"
#include "sim/runtime.hpp"

namespace perfbench {

double
Seconds(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

double
Median(std::vector<double> values)
{
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// --- Tracer ----------------------------------------------------------------

Tracer::Scope::Scope(Tracer* tracer, std::string_view name, bool new_cell)
{
    if (!tracer->enabled_) {
        return;
    }
    tracer_ = tracer;
    SpanRecord span;
    span.name = std::string(name);
    span.parent = tracer->open_.empty() ? -1 : tracer->open_.back();
    if (new_cell) {
        span.cell = tracer->next_cell_++;
    } else if (span.parent >= 0) {
        span.cell = tracer->spans_[static_cast<size_t>(span.parent)].cell;
    }
    index_ = static_cast<int64_t>(tracer->spans_.size());
    tracer->spans_.push_back(std::move(span));
    tracer->open_.push_back(index_);
    tracer->spans_.back().start_s = Seconds(tracer->origin_, Clock::now());
}

Tracer::Scope::~Scope()
{
    if (tracer_ == nullptr) {
        return;
    }
    tracer_->spans_[static_cast<size_t>(index_)].end_s =
        Seconds(tracer_->origin_, Clock::now());
    tracer_->open_.pop_back();
}

std::map<std::string, double>
Tracer::SelfTimes(size_t from, size_t to) const
{
    // Spans nest strictly (one thread, RAII scopes), so a parent's covered
    // time is the sum of its children's durations.
    std::map<std::string, double> self;
    for (size_t i = from; i < to; ++i) {
        const SpanRecord& s = spans_[i];
        const double duration = s.end_s - s.start_s;
        self[s.name] += duration;
        if (s.parent >= static_cast<int64_t>(from)) {
            self[spans_[static_cast<size_t>(s.parent)].name] -= duration;
        }
    }
    return self;
}

void
Tracer::WriteJsonLines(const std::string& path) const
{
    std::ofstream out(path);
    if (!out) {
        throw std::runtime_error("cannot write spans to " + path);
    }
    char line[512];
    for (size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord& s = spans_[i];
        std::snprintf(line, sizeof(line),
                      "{\"id\": %zu, \"name\": \"%s\", \"cell\": %lld, "
                      "\"parent\": %lld, \"start_s\": %.9f, \"end_s\": %.9f}\n",
                      i, s.name.c_str(), static_cast<long long>(s.cell),
                      static_cast<long long>(s.parent), s.start_s, s.end_s);
        out << line;
    }
}

// --- Ledger ----------------------------------------------------------------

void
Ledger::Check(bool ok, const std::string& what)
{
    ++attempted_;
    if (!ok) {
        ++failed_;
        if (failures_.size() < 20) {
            failures_.push_back(what);
        }
    }
}

// --- Metrics ---------------------------------------------------------------

namespace {

struct Decl {
    const char* name;
    const char* unit;
    Clk clock;
};

// End-to-end metrics: every workload reports each one, never 0, and each is
// steady across seeds. Simulated-clock results are exact for a seed, so the
// reference fingerprints gate them instead of a noise bound.
const Decl kEndToEnd[] = {
    {"run_s", "s", Clk::kHost},
    {"setup_s", "s", Clk::kHost},
    {"items_per_host_s", "1/s", Clk::kHost},
    {"peak_rss_mb", "MB", Clk::kHost},
};

// Per-layer metrics, reported by the traced run. A layer a workload does not
// exercise reports 0. The simulated end-to-end figures (window, speed-up,
// latency, max QPS, SLO misses) and the error share ride here: they are 0 on
// the workloads that do not run them, or move with the seed.
const Decl kPerLayer[] = {
    // host clock, self time of the benchmark's spans
    {"data.generate_s", "s", Clk::kHost},
    {"models.construct_s", "s", Clk::kHost},
    {"models.infer_s", "s", Clk::kHost},
    {"graph.sample_s", "s", Clk::kHost},
    {"graph.samples_per_s", "1/s", Clk::kHost},
    {"sim.replay_s", "s", Clk::kHost},
    {"sim.ops_per_host_s", "1/s", Clk::kHost},
    {"serve.capture_s", "s", Clk::kHost},
    {"serve.loop_s", "s", Clk::kHost},
    {"serve.search_s", "s", Clk::kHost},
    {"scenario.generate_s", "s", Clk::kHost},
    {"shard.serve_s", "s", Clk::kHost},
    {"obs.overhead_ratio", "ratio", Clk::kHost},
    {"analysis.overhead_ratio", "ratio", Clk::kHost},
    {"trace.overhead_ratio", "ratio", Clk::kHost},
    {"host.pass_s.tail", "s", Clk::kHost},
    {"host.pass_s.samples", "count", Clk::kNone},
    // simulated clock, exact counters
    {"sim_window_ms", "ms", Clk::kSim},
    {"sim.h2d_mb", "MB", Clk::kSim},
    {"sim.d2h_mb", "MB", Clk::kSim},
    {"sim.transfer_ms", "ms", Clk::kSim},
    {"sim.compute_busy_ms", "ms", Clk::kSim},
    {"sim.gpu_util_pct", "%", Clk::kSim},
    {"sim.warmup_ms", "ms", Clk::kSim},
    {"sim.launches", "count", Clk::kSim},
    {"models.breakdown_ms.tgn.compute_embedding", "ms", Clk::kSim},
    {"models.breakdown_ms.tgn.update_memory", "ms", Clk::kSim},
    {"models.breakdown_ms.tgn.aggregate_messages_passing", "ms", Clk::kSim},
    {"models.breakdown_ms.tgat.attention_layer", "ms", Clk::kSim},
    {"models.breakdown_ms.tgat.sampling_cpu", "ms", Clk::kSim},
    {"models.breakdown_ms.tgat.time_encoding", "ms", Clk::kSim},
    {"models.breakdown_ms.tgat.memory_copy", "ms", Clk::kSim},
    {"models.breakdown_ms.tgat.cuda_synchronization", "ms", Clk::kSim},
    {"models.breakdown_ms.jodie.update_embedding", "ms", Clk::kSim},
    {"models.breakdown_ms.jodie.load_embedding", "ms", Clk::kSim},
    {"models.breakdown_ms.jodie.predict_item_embedding", "ms", Clk::kSim},
    {"models.breakdown_ms.jodie.project_user_embedding", "ms", Clk::kSim},
    {"models.breakdown_ms.dyrep.temporal_attention", "ms", Clk::kSim},
    {"models.breakdown_ms.dyrep.node_embedding_update", "ms", Clk::kSim},
    {"models.breakdown_ms.dyrep.conditional_intensity", "ms", Clk::kSim},
    {"models.breakdown_ms.evolvegcn.gnn", "ms", Clk::kSim},
    {"models.breakdown_ms.evolvegcn.rnn", "ms", Clk::kSim},
    {"models.breakdown_ms.evolvegcn.memory_copy", "ms", Clk::kSim},
    {"models.breakdown_ms.evolvegcn.top-k", "ms", Clk::kSim},
    {"models.breakdown_ms.astgnn.temporal_attention", "ms", Clk::kSim},
    {"models.breakdown_ms.astgnn.spatial-attention_gcn", "ms", Clk::kSim},
    {"models.breakdown_ms.astgnn.position_encoding", "ms", Clk::kSim},
    {"models.breakdown_ms.astgnn.memory_copy", "ms", Clk::kSim},
    {"models.breakdown_ms.astgnn.etc_data_loading_cuda_sync", "ms", Clk::kSim},
    {"models.breakdown_ms.moldgnn.lstm", "ms", Clk::kSim},
    {"models.breakdown_ms.moldgnn.memory_copy", "ms", Clk::kSim},
    {"models.breakdown_ms.moldgnn.ffn", "ms", Clk::kSim},
    {"models.breakdown_ms.moldgnn.gcn", "ms", Clk::kSim},
    {"graph.sampled_neighbors", "count", Clk::kSim},
    {"serve.batches", "count", Clk::kSim},
    {"serve.batch_size_mean", "count", Clk::kSim},
    {"serve.queue_depth_mean", "count", Clk::kSim},
    {"serve.stage_ms.queue", "ms", Clk::kSim},
    {"serve.stage_ms.stall", "ms", Clk::kSim},
    {"serve.stage_ms.host", "ms", Clk::kSim},
    {"serve.stage_ms.h2d", "ms", Clk::kSim},
    {"serve.stage_ms.compute", "ms", Clk::kSim},
    {"serve.stage_ms.d2h", "ms", Clk::kSim},
    {"cache.hit_rate", "ratio", Clk::kSim},
    {"cache.saved_mb", "MB", Clk::kSim},
    {"cache.writebacks", "count", Clk::kSim},
    {"cache.evictions", "count", Clk::kSim},
    {"dispatch.batches.cpu", "count", Clk::kSim},
    {"dispatch.batches.gpu", "count", Clk::kSim},
    {"dispatch.batches.gpu_fused", "count", Clk::kSim},
    {"shard.exchange_mb", "MB", Clk::kSim},
    {"shard.comm_tax_pct", "%", Clk::kSim},
    {"shard.edge_cut", "count", Clk::kSim},
    {"shard.cluster_qps", "1/s", Clk::kSim},
    {"obs.attribution.queueing", "count", Clk::kSim},
    {"obs.attribution.host", "count", Clk::kSim},
    {"obs.attribution.transfer", "count", Clk::kSim},
    {"obs.attribution.compute", "count", Clk::kSim},
    {"obs.attribution.cross_shard", "count", Clk::kSim},
    {"analysis.hazards", "count", Clk::kSim},
    // workload-specific simulated end-to-end figures
    {"sim_gpu_speedup", "x", Clk::kSim},
    {"sim_p50_ms", "ms", Clk::kSim},
    {"sim_p99_ms", "ms", Clk::kSim},
    {"sim_latency_samples", "count", Clk::kSim},
    {"sim_max_qps.tgn", "1/s", Clk::kSim},
    {"sim_max_qps.tgat", "1/s", Clk::kSim},
    {"slo_miss_frac", "ratio", Clk::kSim},
    {"error_frac", "ratio", Clk::kNone},
};

}  // namespace

Metrics::Metrics()
{
    for (const Decl& d : kEndToEnd) {
        entries_.push_back({d.name, d.unit, d.clock, true});
    }
    for (const Decl& d : kPerLayer) {
        entries_.push_back({d.name, d.unit, d.clock, false});
    }
}

Metrics::Entry&
Metrics::Find(const std::string& name)
{
    for (Entry& e : entries_) {
        if (e.name == name) {
            return e;
        }
    }
    throw std::logic_error("undeclared metric " + name);
}

void
Metrics::Set(const std::string& name, double value)
{
    Find(name).value = value;
}

void
Metrics::Add(const std::string& name, double value)
{
    Find(name).value += value;
}

double
Metrics::Get(const std::string& name) const
{
    for (const Entry& e : entries_) {
        if (e.name == name) {
            return e.value;
        }
    }
    throw std::logic_error("undeclared metric " + name);
}

// --- Fingerprint -----------------------------------------------------------

Fingerprint&
Fingerprint::Add(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g;", value);
    text_ += buf;
    return *this;
}

Fingerprint&
Fingerprint::Add(int64_t value)
{
    text_ += std::to_string(value) + ";";
    return *this;
}

// --- layer replays ---------------------------------------------------------

namespace {
constexpr int kReplayRepeats = 5;
}  // namespace

void
ReplaySampler(const dgnn::graph::EventStream& stream, int64_t events, Tracer& tracer,
              Metrics& metrics)
{
    using dgnn::graph::SamplingStrategy;
    const dgnn::graph::TemporalAdjacency adjacency(stream);
    const int64_t n = std::min(events, stream.NumEvents());
    struct Pass {
        SamplingStrategy strategy;
        int64_t k;
    };
    const Pass kPasses[] = {{SamplingStrategy::kMostRecent, 10},
                            {SamplingStrategy::kUniform, 20}};
    std::vector<double> times;
    int64_t calls = 0;
    int64_t neighbors = 0;
    for (int r = 0; r < kReplayRepeats; ++r) {
        calls = 0;
        neighbors = 0;
        const auto t0 = Clock::now();
        {
            auto span = tracer.Span("graph.sample");
            for (const Pass& p : kPasses) {
                dgnn::graph::TemporalNeighborSampler sampler(adjacency, p.strategy,
                                                             /*seed=*/1);
                for (int64_t i = 0; i < n; ++i) {
                    const dgnn::graph::TemporalEvent& e = stream.Event(i);
                    for (const int64_t node : {e.src, e.dst}) {
                        const auto hood = sampler.Sample(node, e.time, p.k);
                        ++calls;
                        neighbors += static_cast<int64_t>(std::count_if(
                            hood.neighbors.begin(), hood.neighbors.end(),
                            [](int64_t v) { return v >= 0; }));
                    }
                }
            }
        }
        times.push_back(Seconds(t0, Clock::now()));
    }
    const double t = Median(times);
    metrics.Set("graph.sample_s", t);
    metrics.Set("graph.samples_per_s", t > 0.0 ? static_cast<double>(calls) / t : 0.0);
    metrics.Set("graph.sampled_neighbors", static_cast<double>(neighbors));
}

void
ReplayProfiles(const std::vector<dgnn::serve::BatchProfile>& profiles, Tracer& tracer,
               Metrics& metrics)
{
    constexpr int64_t kReplayOps = 200000;
    std::vector<double> times;
    int64_t ops = 0;
    for (int r = 0; r < kReplayRepeats; ++r) {
        ops = 0;
        const auto t0 = Clock::now();
        {
            auto span = tracer.Span("sim.replay");
            dgnn::sim::Runtime runtime = dgnn::models::MakeRuntime(dgnn::sim::ExecMode::kHybrid);
            while (ops < kReplayOps) {
                for (const dgnn::serve::BatchProfile& p : profiles) {
                    runtime.RunHostFor("replay_host", p.host_us);
                    runtime.CopyToDevice(p.h2d_bytes + p.state_rows * p.state_row_bytes,
                                         "replay_h2d");
                    for (const dgnn::sim::KernelDesc& k : p.kernels) {
                        runtime.Launch(k);
                    }
                    runtime.CopyToHost(p.d2h_bytes, "replay_d2h");
                    ops += 3 + static_cast<int64_t>(p.kernels.size());
                }
            }
            (void)runtime.Synchronize();
        }
        times.push_back(Seconds(t0, Clock::now()));
    }
    const double t = Median(times);
    metrics.Set("sim.replay_s", t);
    metrics.Set("sim.ops_per_host_s", static_cast<double>(ops) / t);
}

}  // namespace perfbench
