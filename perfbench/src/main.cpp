/// perfbench: one workload, one single-threaded process.
///
///   perfbench --workload <offline-ctdg|offline-snapshot|serve-gauntlet>
///             --seed <n> --seconds <s> --trace <0|1> [--spans <path>]
///
/// Sets the workload up several times, runs one reference pass, then
/// repeats measured passes for --seconds, rotating over the CPUs the process
/// may use. Every pass must reproduce the reference pass's outputs
/// bit-for-bit. With --trace 1, rounds alternate between untraced and traced
/// (spans around every call into a layer), and the out-of-pass layer replays
/// run at the end.
///
/// Prints a human-readable report, then one JSON line with the operation
/// counts, every metric (name, unit, clock, value) and the reference pass's
/// per-cell output fingerprints.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {
namespace {

/// CPUs a run rotates over (the first ones the process may use).
constexpr size_t kMaxCpus = 8;
constexpr int kSetupRounds = 2;
constexpr int kMinRounds = 2;

struct Args {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string spans;
};

Args
Parse(int argc, char** argv)
{
    Args args;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        if (key == "--workload") {
            args.workload = value;
        } else if (key == "--seed") {
            args.seed = std::stoull(value);
        } else if (key == "--seconds") {
            args.seconds = std::stod(value);
        } else if (key == "--trace") {
            args.trace = value == "1";
        } else if (key == "--spans") {
            args.spans = value;
        } else {
            throw std::invalid_argument("unknown argument " + key);
        }
    }
    return args;
}

std::unique_ptr<Workload>
Make(const Args& args)
{
    if (args.workload == "offline-ctdg") {
        return MakeOfflineCtdg(args.seed);
    }
    if (args.workload == "offline-snapshot") {
        return MakeOfflineSnapshot(args.seed);
    }
    if (args.workload == "serve-gauntlet") {
        return MakeServeGauntlet(args.seed);
    }
    throw std::invalid_argument("unknown workload '" + args.workload + "'");
}

std::vector<int>
AllowedCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &set)) {
                cpus.push_back(c);
            }
        }
    }
    if (cpus.empty()) {
        cpus.push_back(-1);  // affinity unavailable: run wherever scheduled
    }
    cpus.resize(std::min(cpus.size(), kMaxCpus));
    return cpus;
}

/// Pins the process to @p cpu; -1 restores every allowed CPU.
void
PinTo(int cpu)
{
    static const std::vector<int> allowed = AllowedCpus();
    cpu_set_t set;
    CPU_ZERO(&set);
    for (const int c : allowed) {
        if (c >= 0 && (cpu < 0 || c == cpu)) {
            CPU_SET(c, &set);
        }
    }
    if (CPU_COUNT(&set) > 0) {
        (void)sched_setaffinity(0, sizeof(set), &set);
    }
}

/// One timed set-up or pass: its host time and, when traced, the self
/// time per span name.
struct Sample {
    double seconds = 0.0;
    std::map<std::string, double> self;
};

/// Samples per CPU; sample i of every CPU forms round i.
using ByCpu = std::vector<std::vector<Sample>>;

/// The fastest sample of each complete round.
std::vector<const Sample*>
RoundFastest(const ByCpu& by_cpu)
{
    size_t rounds = by_cpu.front().size();
    for (const std::vector<Sample>& samples : by_cpu) {
        rounds = std::min(rounds, samples.size());
    }
    std::vector<const Sample*> fastest;
    for (size_t i = 0; i < rounds; ++i) {
        const Sample* best = &by_cpu.front()[i];
        for (const std::vector<Sample>& samples : by_cpu) {
            if (samples[i].seconds < best->seconds) {
                best = &samples[i];
            }
        }
        fastest.push_back(best);
    }
    return fastest;
}

/// Median over rounds of each round's fastest host time.
double
RoundMinMedian(const ByCpu& by_cpu)
{
    std::vector<double> times;
    for (const Sample* s : RoundFastest(by_cpu)) {
        times.push_back(s->seconds);
    }
    return Median(times);
}

double
PeakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

const char*
ClockName(Clk clock)
{
    switch (clock) {
      case Clk::kHost:
        return "host";
      case Clk::kSim:
        return "sim";
      case Clk::kNone:
        break;
    }
    return "-";
}

std::string
JsonString(const std::string& s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
        }
        out += c >= 0x20 ? c : ' ';
    }
    return out + "\"";
}

std::string
Num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/// Median per span name of the self times of each round's fastest sample.
std::map<std::string, double>
MedianSelfTimes(const ByCpu& by_cpu)
{
    const std::vector<const Sample*> fastest = RoundFastest(by_cpu);
    std::map<std::string, std::vector<double>> by_name;
    for (const Sample* sample : fastest) {
        for (const auto& [name, t] : sample->self) {
            by_name[name];
        }
    }
    std::map<std::string, double> medians;
    for (auto& [name, values] : by_name) {
        for (const Sample* sample : fastest) {
            const auto it = sample->self.find(name);
            values.push_back(it == sample->self.end() ? 0.0 : it->second);
        }
        medians[name] = Median(values);
    }
    return medians;
}

int
Main(const Args& args)
{
    std::unique_ptr<Workload> workload = Make(args);
    Tracer tracer;
    Ledger ledger;
    Metrics metrics;

    // On a shared machine each CPU's speed depends on what its neighbours
    // run at the moment, by up to 1.6x on a 4-CPU host, and the scheduler
    // keeps a busy thread on one CPU. So every timed phase runs in rounds, one
    // sample on each CPU in turn, and a host time is the median over rounds
    // of the round's fastest sample: the cost of the work on the least
    // disturbed CPU.
    const std::vector<int> cpus = AllowedCpus();
    const size_t n_cpus = cpus.size();

    // --- set-up, repeated ----------------------------------------------------
    ByCpu setups_by_cpu(n_cpus);
    const size_t setups = n_cpus * (n_cpus > 1 ? kSetupRounds : 3);
    for (size_t i = 0; i < setups; ++i) {
        PinTo(cpus[i % n_cpus]);
        tracer.Enable(args.trace);
        const size_t from = tracer.Size();
        const auto t0 = Clock::now();
        {
            auto span = tracer.Span("setup");
            workload->Setup(tracer);
        }
        setups_by_cpu[i % n_cpus].push_back(
            {Seconds(t0, Clock::now()), tracer.SelfTimes(from, tracer.Size())});
    }

    // --- reference pass, then measured rounds --------------------------------
    // A round is one pass on every CPU; traced runs alternate untraced and
    // traced rounds so both see every CPU.
    tracer.Enable(false);
    const PassOutput reference = workload->Pass(tracer, ledger);
    ByCpu untraced(n_cpus);
    ByCpu traced(n_cpus);
    size_t passes = 0;
    const auto loop_start = Clock::now();
    for (int round = 0; round < kMinRounds || Seconds(loop_start, Clock::now()) < args.seconds;
         ++round) {
        const bool trace_round = args.trace && round % 2 == 1;
        for (size_t c = 0; c < n_cpus; ++c) {
            PinTo(cpus[c]);
            tracer.Enable(trace_round);
            const size_t from = tracer.Size();
            const auto t0 = Clock::now();
            PassOutput out;
            {
                auto span = tracer.Span("pass");
                out = workload->Pass(tracer, ledger);
            }
            (trace_round ? traced : untraced)[c].push_back(
                {Seconds(t0, Clock::now()), tracer.SelfTimes(from, tracer.Size())});
            ledger.Check(out.items == reference.items && out.fingerprints == reference.fingerprints,
                         "pass " + std::to_string(passes) + " reproduces the reference pass");
            ++passes;
        }
    }
    tracer.Enable(false);
    PinTo(-1);

    // --- metrics --------------------------------------------------------------
    const double run_s = RoundMinMedian(untraced);
    metrics.Set("run_s", run_s);
    metrics.Set("setup_s", RoundMinMedian(setups_by_cpu));
    metrics.Set("items_per_host_s", static_cast<double>(reference.items) / run_s);
    ledger.Run("simulated metrics", [&] { workload->SimMetrics(metrics); });
    if (args.trace) {
        tracer.Enable(true);
        workload->Replays(tracer, ledger, metrics);
        const auto setup_med = MedianSelfTimes(setups_by_cpu);
        const auto pass_med = MedianSelfTimes(traced);
        const std::pair<const char*, const char*> kLayers[] = {
            {"data.generate", "data.generate_s"},
            {"models.construct", "models.construct_s"},
            {"models.infer", "models.infer_s"},
            {"serve.capture", "serve.capture_s"},
            {"serve.loop", "serve.loop_s"},
            {"serve.search", "serve.search_s"},
            {"scenario.generate", "scenario.generate_s"},
            {"shard.serve", "shard.serve_s"},
        };
        for (const auto& [span, metric] : kLayers) {
            double value = 0.0;
            for (const auto* phase : {&setup_med, &pass_med}) {
                const auto it = phase->find(span);
                value += it == phase->end() ? 0.0 : it->second;
            }
            metrics.Set(metric, value);
        }
        metrics.Set("trace.overhead_ratio", RoundMinMedian(traced) / run_s);
        // The highest percentile with at least 10 samples beyond it.
        std::vector<double> sorted;
        for (const std::vector<Sample>& on_cpu : untraced) {
            for (const Sample& sample : on_cpu) {
                sorted.push_back(sample.seconds);
            }
        }
        std::sort(sorted.begin(), sorted.end());
        const size_t n = sorted.size();
        metrics.Set("host.pass_s.tail", sorted[n > 10 ? n - 11 : 0]);
        metrics.Set("host.pass_s.samples", static_cast<double>(n));
        if (!args.spans.empty()) {
            tracer.WriteJsonLines(args.spans);
        }
    }
    metrics.Set("peak_rss_mb", PeakRssMb());
    metrics.Set("error_frac", static_cast<double>(ledger.Failed()) /
                                  static_cast<double>(std::max<int64_t>(1, ledger.Attempted())));

    // --- report ---------------------------------------------------------------
    std::printf("workload %s, seed %llu, %zu measured passes over %zu CPUs, %zu set-ups\n",
                args.workload.c_str(), static_cast<unsigned long long>(args.seed), passes,
                n_cpus, setups);
    std::printf("median untraced pass per CPU (s):");
    for (size_t c = 0; c < n_cpus; ++c) {
        std::vector<double> times;
        for (const Sample& sample : untraced[c]) {
            times.push_back(sample.seconds);
        }
        std::printf(" cpu%d=%.4f", cpus[c], Median(times));
    }
    std::printf("\n");
    std::printf("operations %lld attempted, %lld failed\n",
                static_cast<long long>(ledger.Attempted()),
                static_cast<long long>(ledger.Failed()));
    for (const std::string& f : ledger.Failures()) {
        std::printf("  FAILED: %s\n", f.c_str());
    }
    for (const Metrics::Entry& e : metrics.Entries()) {
        if (!args.trace && !e.end_to_end && e.clock == Clk::kHost) {
            continue;  // host layers are measured by the traced run only
        }
        std::printf("%-56s %-22s %-6s %s\n", e.name.c_str(), Num(e.value).c_str(),
                    e.unit.c_str(), ClockName(e.clock));
    }

    std::string json = "{\"attempted\": " + std::to_string(ledger.Attempted()) +
                       ", \"failed\": " + std::to_string(ledger.Failed()) + ", \"failures\": [";
    for (size_t i = 0; i < ledger.Failures().size(); ++i) {
        json += (i ? ", " : "") + JsonString(ledger.Failures()[i]);
    }
    json += "]";
    for (const bool e2e : {true, false}) {
        json += e2e ? ", \"end_to_end\": {" : ", \"per_layer\": {";
        bool first = true;
        for (const Metrics::Entry& e : metrics.Entries()) {
            if (e.end_to_end != e2e) {
                continue;
            }
            json += (first ? "" : ", ") + JsonString(e.name) + ": {\"value\": " + Num(e.value) +
                    ", \"unit\": " + JsonString(e.unit) + ", \"clock\": " +
                    JsonString(ClockName(e.clock)) + "}";
            first = false;
        }
        json += "}";
    }
    json += ", \"fingerprints\": {";
    bool first = true;
    for (const auto& [cell, fp] : reference.fingerprints) {
        json += (first ? "" : ", ") + JsonString(cell) + ": " + JsonString(fp);
        first = false;
    }
    json += "}}";
    std::cout << json << std::endl;
    return 0;
}

}  // namespace
}  // namespace perfbench

int
main(int argc, char** argv)
{
    try {
        return perfbench::Main(perfbench::Parse(argc, argv));
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 2;
    }
}
