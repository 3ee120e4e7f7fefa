#pragma once

/// @file
/// Shared plumbing of the repository benchmark: the span tracer, the
/// correctness ledger, the metric table, and the workload interface. The
/// benchmark measures every layer from outside, by timing its own calls
/// into each module's public functions; nothing here reaches into the
/// library's internals.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/event_stream.hpp"
#include "serve/model_session.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds between two host-clock readings.
double Seconds(Clock::time_point from, Clock::time_point to);

/// Median of @p values (0 when empty).
double Median(std::vector<double> values);

/// Derives one input seed from the benchmark seed. Seed 0 keeps the
/// repository's own fixed constant, so `--seed 0` reproduces the inputs the
/// repository's benches use.
inline uint64_t
DeriveSeed(uint64_t base, uint64_t seed)
{
    return base + seed * 1000003ULL;
}

/// One recorded span: a call from the benchmark into a layer.
struct SpanRecord {
    std::string name;
    int64_t cell = -1;    ///< id shared by every span of one cell
    int64_t parent = -1;  ///< index of the enclosing span, -1 at the root
    double start_s = 0.0;
    double end_s = 0.0;
};

/// In-memory span recorder. Disabled, a span costs one branch; enabled, it
/// costs two clock reads and one vector append. Spans are written out only
/// when the run ends.
class Tracer {
  public:
    /// RAII span: opened by Tracer::Span / Tracer::Cell, closed on scope
    /// exit (also when the traced call throws).
    class Scope {
      public:
        Scope(Tracer* tracer, std::string_view name, bool new_cell);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

      private:
        Tracer* tracer_ = nullptr;
        int64_t index_ = -1;
    };

    void Enable(bool on) { enabled_ = on; }
    bool Enabled() const { return enabled_; }

    /// A span around one call into a layer.
    [[nodiscard]] Scope Span(std::string_view name) { return Scope(this, name, false); }
    /// A cell span: it and every span opened inside it share a new cell id.
    [[nodiscard]] Scope Cell(std::string_view label) { return Scope(this, label, true); }

    size_t Size() const { return spans_.size(); }

    /// Self time (duration minus the part covered by child spans) summed
    /// per span name over spans [from, to).
    std::map<std::string, double> SelfTimes(size_t from, size_t to) const;

    /// Writes every span as one JSON object per line.
    void WriteJsonLines(const std::string& path) const;

  private:
    bool enabled_ = false;
    Clock::time_point origin_ = Clock::now();
    std::vector<SpanRecord> spans_;
    std::vector<int64_t> open_;
    int64_t next_cell_ = 0;
};

/// Counts operations and failed operations. A cell that throws, or a
/// correctness check that does not hold, is one failed operation; neither
/// aborts the run.
class Ledger {
  public:
    /// Records one check.
    void Check(bool ok, const std::string& what);

    /// Runs @p op as one operation; an exception marks it failed.
    template <typename Op>
    bool Run(const std::string& what, Op&& op)
    {
        try {
            op();
        } catch (const std::exception& e) {
            Check(false, what + ": " + e.what());
            return false;
        }
        Check(true, what);
        return true;
    }

    int64_t Attempted() const { return attempted_; }
    int64_t Failed() const { return failed_; }
    /// The first failure messages (bounded).
    const std::vector<std::string>& Failures() const { return failures_; }

  private:
    int64_t attempted_ = 0;
    int64_t failed_ = 0;
    std::vector<std::string> failures_;
};

/// Which clock a metric reads.
enum class Clk { kHost, kSim, kNone };

/// The fixed, ordered metric table: every metric the benchmark reports, by
/// name, unit and clock. A layer a workload does not exercise reports 0.
class Metrics {
  public:
    struct Entry {
        std::string name;
        std::string unit;
        Clk clock;
        bool end_to_end;
        double value = 0.0;
    };

    Metrics();

    /// Sets a declared metric; an undeclared name throws (a typo must not
    /// silently drop a number).
    void Set(const std::string& name, double value);
    void Add(const std::string& name, double value);
    double Get(const std::string& name) const;

    const std::vector<Entry>& Entries() const { return entries_; }

  private:
    Entry& Find(const std::string& name);
    std::vector<Entry> entries_;
};

/// Order-preserving fingerprint of one cell's outputs: every value printed
/// with all its digits, so two runs agree only when bit-identical.
class Fingerprint {
  public:
    Fingerprint& Add(double value);
    Fingerprint& Add(int64_t value);
    const std::string& Str() const { return text_; }

  private:
    std::string text_;
};

/// What one measured pass produced.
struct PassOutput {
    /// Simulated events, snapshots or frames (offline) or requests (serving)
    /// completed in the pass.
    int64_t items = 0;
    /// Cell label -> output fingerprint.
    std::map<std::string, std::string> fingerprints;
};

/// One benchmark workload.
class Workload {
  public:
    virtual ~Workload() = default;

    /// Drops all state and builds the workload's inputs from scratch: data
    /// generation, model construction, session profile capture.
    virtual void Setup(Tracer& tracer) = 0;

    /// One measured pass over every cell.
    virtual PassOutput Pass(Tracer& tracer, Ledger& ledger) = 0;

    /// Simulated-clock metrics of the last pass (exact: every pass of one
    /// seed yields the same values).
    virtual void SimMetrics(Metrics& metrics) const = 0;

    /// Out-of-pass layer replays, traced runs only.
    virtual void Replays(Tracer& tracer, Ledger& ledger, Metrics& metrics) = 0;
};

std::unique_ptr<Workload> MakeOfflineCtdg(uint64_t seed);
std::unique_ptr<Workload> MakeOfflineSnapshot(uint64_t seed);
std::unique_ptr<Workload> MakeServeGauntlet(uint64_t seed);

// --- layer replays shared by the workloads --------------------------------

/// Replays TemporalNeighborSampler::Sample over both endpoints of the first
/// @p events events of @p stream, once with TGN's sampler (most recent,
/// k = 10) and once with TGAT's (uniform, k = 20); five repeats. Sets
/// graph.sample_s (median repeat), graph.samples_per_s and
/// graph.sampled_neighbors.
void ReplaySampler(const dgnn::graph::EventStream& stream, int64_t events,
                   Tracer& tracer, Metrics& metrics);

/// Re-issues @p profiles (host work, H2D, kernels, D2H) on a fresh hybrid
/// runtime, cycling through them until kReplayOps operations are issued;
/// five repeats. Sets sim.replay_s (median repeat) and sim.ops_per_host_s.
void ReplayProfiles(const std::vector<dgnn::serve::BatchProfile>& profiles,
                    Tracer& tracer, Metrics& metrics);

}  // namespace perfbench
