/**
 * @file
 * perfbench — the measuring binary of the repository benchmark.
 *
 * Runs one workload through the simulator's public APIs only (Cluster,
 * WorkloadRun, SweepRunner/exploreDesignSpace, NetworkApi, EventQueue
 * and the models.hh generators) and prints one JSON document of raw
 * samples on stdout: set-up times, per-unit and per-simulation host
 * times, and every simulation's retired-event digest and simulated
 * result. run.py turns the samples into metrics and checks the
 * results against references.json.
 *
 * With --trace it also records spans (name, start, end, parent, run
 * id) around the calls into each layer, keeps them in memory, writes
 * them to --spans=FILE when it ends, and reports per-layer counters,
 * per-layer self time and the tracing overhead.
 *
 *   perfbench --workload=NAME --seed=N --seconds=S --root=DIR
 *             [--journal=FILE] [--trace --spans=FILE] [--record]
 *             [--key=value ...]
 *
 * --root is the repository checkout (for configs/); --journal is the
 * scratch sweep journal through which exploreDesignSpace ranks
 * explore64's results; --record runs each workload's reference
 * simulation once; --key=value overrides any simulator parameter on
 * every simulated platform.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hh"
#include "common/event_queue.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "common/units.hh"
#include "core/cluster.hh"
#include "explore/design_space.hh"
#include "explore/sweep_runner.hh"
#include "guard/journal.hh"
#include "net/network_api.hh"
#include "workload/models.hh"
#include "workload/trainer.hh"

using namespace astra;

namespace
{

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

/** Host nanoseconds since the process started. */
std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - kEpoch)
        .count();
}

double
toMs(std::int64_t ns)
{
    return double(ns) / 1e6;
}

double
toS(std::int64_t ns)
{
    return double(ns) / 1e9;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- Spans ----------------------------------------------------------

/** One timed call into a layer; the layer is the name's prefix. */
struct Span
{
    std::string name;
    std::int64_t start = 0;
    std::int64_t end = 0;
    int parent = -1;
    int run = 0;
    std::int64_t childNs = 0; //!< time covered by direct children
};

/**
 * Span recorder. Off, begin() and end() do nothing, so a traced run's
 * untraced units execute the same code as its traced ones. Spans stay
 * in memory until write() at the end of the run.
 */
class Tracer
{
  public:
    explicit Tracer(bool on) : _on(on) {}

    bool on() const { return _on; }
    void setRun(int run) { _run = run; }

    int
    begin(const char *name)
    {
        if (!_on)
            return -1;
        Span s;
        s.name = name;
        s.parent = _open.empty() ? -1 : _open.back();
        s.run = _run;
        s.start = nowNs();
        _spans.push_back(std::move(s));
        _open.push_back(int(_spans.size()) - 1);
        return _open.back();
    }

    void
    end(int idx)
    {
        if (idx < 0)
            return;
        Span &s = _spans[std::size_t(idx)];
        s.end = nowNs();
        _open.pop_back();
        if (s.parent >= 0)
            _spans[std::size_t(s.parent)].childNs += s.end - s.start;
    }

    /** Summed duration of every span called @p name, in ms. */
    double
    totalMs(const std::string &name) const
    {
        std::int64_t ns = 0;
        for (const Span &s : _spans)
            if (s.name == name)
                ns += s.end - s.start;
        return toMs(ns);
    }

    /**
     * Self time (span minus its children) summed per layer, in ms,
     * over the spans of runs [@p from, @p to).
     */
    std::map<std::string, double>
    selfMsByLayer(int from, int to) const
    {
        std::map<std::string, double> out;
        for (const Span &s : _spans) {
            if (s.run < from || s.run >= to)
                continue;
            const std::string layer = s.name.substr(0, s.name.find('.'));
            out[layer] += toMs(s.end - s.start - s.childNs);
        }
        return out;
    }

    /** Write every span as one JSON array; @return false on I/O error. */
    bool
    write(const std::string &path) const
    {
        FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::fprintf(f, "[\n");
        for (std::size_t i = 0; i < _spans.size(); ++i) {
            const Span &s = _spans[i];
            std::fprintf(f,
                         "  {\"id\": %zu, \"name\": \"%s\", \"start_ns\": "
                         "%lld, \"end_ns\": %lld, \"parent\": %d, "
                         "\"run\": %d}%s\n",
                         i, jsonEscape(s.name).c_str(),
                         static_cast<long long>(s.start),
                         static_cast<long long>(s.end), s.parent, s.run,
                         i + 1 < _spans.size() ? "," : "");
        }
        std::fprintf(f, "]\n");
        return std::fclose(f) == 0;
    }

  private:
    bool _on;
    int _run = 0;
    std::vector<Span> _spans;
    std::vector<int> _open;
};

/** RAII span around one call. */
class Scope
{
  public:
    Scope(Tracer &t, const char *name) : _t(t), _idx(t.begin(name)) {}
    ~Scope() { _t.end(_idx); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &_t;
    int _idx;
};

// --- Results --------------------------------------------------------

/** The checked outcome of one simulation. */
struct SimRecord
{
    std::string label;
    double ms = 0;           //!< host time of the simulate phase
    std::uint64_t events = 0;
    std::uint64_t digest = 0;
    Tick result = 0;         //!< comm cycles or makespan
    std::string outcome;
    int rank = -1;           //!< explore only: position in the ranking
};

/** Everything the run reports to run.py. */
struct Output
{
    std::vector<double> setupS;
    std::vector<double> wallS;        //!< untraced unit host seconds
    std::vector<double> unitEvents;   //!< events retired per unit
    std::vector<double> tracedWallS;  //!< traced unit host seconds
    std::vector<SimRecord> sims;
    std::map<std::string, double> layers;
    std::map<std::string, double> selfMs;
    std::string unitKind = "simulation";
};

// --- One platform simulation ---------------------------------------

/** A simulation's record plus what the traced run reads from it. */
struct SimRun
{
    SimRecord rec;
    RunOutcome outcome = RunOutcome::Completed;
    double energyUj = 0;
    MetricRegistry metrics;
    double slabBytes = 0;
    double setupS = 0; //!< resnetSim only
    double makespan = 0;
    double exposedRatio = 0;
};

/**
 * Build a Cluster for @p cfg and run one all-reduce of @p bytes on it,
 * through issueAll + run (what Cluster::runCollective does), so the
 * two calls can be timed apart. The simulate phase is issue + run.
 */
SimRun
collectiveSim(SimConfig cfg, Bytes bytes, const std::string &label,
              Tracer &t)
{
    cfg.digest = true;
    SimRun r;
    std::unique_ptr<Cluster> c;
    {
        Scope s(t, "core.cluster_build");
        c = std::make_unique<Cluster>(cfg);
    }
    const std::int64_t t1 = nowNs();
    CollectiveRequest req;
    req.kind = CollectiveKind::AllReduce;
    req.bytes = bytes;
    const Tick issued = c->eventQueue().now();
    std::vector<std::shared_ptr<CollectiveHandle>> handles;
    {
        Scope s(t, "core.issue");
        handles = c->issueAll(req);
    }
    {
        Scope s(t, "core.run");
        c->run();
    }
    const std::int64_t t2 = nowNs();

    Tick finish = issued;
    bool complete = true;
    for (const auto &h : handles) {
        if (h->done())
            finish = std::max(finish, h->completedAt);
        else
            complete = false;
    }
    {
        Scope s(t, "core.export");
        r.metrics = c->exportMetrics();
    }
    r.rec.label = label;
    r.rec.ms = toMs(t2 - t1);
    r.rec.events = c->eventQueue().executedEvents();
    r.rec.digest = c->digest();
    r.rec.result = finish - issued;
    r.rec.outcome = complete || c->outcome() != RunOutcome::Completed
                        ? toString(c->outcome())
                        : "incomplete";
    r.outcome = c->outcome();
    r.energyUj = c->network().energy().totalUj();
    r.slabBytes = double(c->eventQueue().slabBytes());
    return r;
}

/**
 * ResNet-50 data-parallel training, one pass. Set-up is model
 * generation + Cluster + WorkloadRun construction; with
 * @p simulate false only the set-up runs.
 */
SimRun
resnetSim(SimConfig cfg, Tracer &t, bool simulate)
{
    cfg.digest = true;
    SimRun r;
    const std::int64_t t0 = nowNs();
    WorkloadSpec spec;
    {
        Scope s(t, "workload.generate");
        spec = resnet50Workload();
    }
    std::unique_ptr<Cluster> c;
    {
        Scope s(t, "core.cluster_build");
        c = std::make_unique<Cluster>(cfg);
    }
    std::unique_ptr<WorkloadRun> run;
    {
        Scope s(t, "workload.setup");
        run = std::make_unique<WorkloadRun>(
            *c, std::move(spec), TrainerOptions{.numPasses = 1});
    }
    const std::int64_t t1 = nowNs();
    r.setupS = toS(t1 - t0);
    if (!simulate)
        return r;
    Tick makespan = 0;
    {
        // WorkloadRun::run drives Cluster::run; the two cannot be
        // split from outside, so this span is both layers' run time.
        Scope s(t, "workload.run");
        makespan = run->run();
    }
    const std::int64_t t2 = nowNs();
    {
        Scope s(t, "core.export");
        r.metrics = c->exportMetrics();
    }
    r.rec.label = "resnet50";
    r.rec.ms = toMs(t2 - t1);
    r.rec.events = c->eventQueue().executedEvents();
    r.rec.digest = c->digest();
    r.rec.result = makespan;
    r.rec.outcome = toString(c->outcome());
    r.slabBytes = double(c->eventQueue().slabBytes());
    r.makespan = double(makespan);
    r.exposedRatio = run->exposedRatio();
    return r;
}

// --- Probes ---------------------------------------------------------

/** Fisher-Yates shuffle driven by the counter generator. */
template <typename T>
void
permute(std::vector<T> &v, std::uint64_t seed)
{
    Rng rng(seed);
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.below(i)]);
}

/**
 * Standalone EventQueue probe: chains of self-rescheduling events,
 * half with delays inside the ladder's near window and half beyond it
 * (the far heap). The delay table is fixed; the seed permutes its
 * order. @return host ns per event.
 */
double
eqProbe(std::uint64_t seed, Tracer &t)
{
    constexpr std::size_t kDelays = 8192;
    constexpr int kChains = 512;
    constexpr std::uint64_t kEvents = 2'000'000;
    const Tick window = Tick(EventQueue::kWindow);

    std::vector<Tick> delays(kDelays);
    Rng gen(0x5eed);
    for (std::size_t i = 0; i < kDelays; ++i) {
        delays[i] = i % 2 == 0 ? 1 + gen.below(window - 1)
                               : window + gen.below(15 * window);
    }
    permute(delays, seed);

    struct Ctx
    {
        EventQueue *q;
        const std::vector<Tick> *delays;
        std::size_t cursor;
        std::uint64_t remaining;
    };
    struct Hop
    {
        Ctx *c;
        void
        operator()() const
        {
            if (c->remaining == 0)
                return;
            --c->remaining;
            const Tick d = (*c->delays)[c->cursor++ % c->delays->size()];
            c->q->scheduleAfter(d, Hop{c});
        }
    };

    EventQueue q;
    Ctx ctx{&q, &delays, 0, kEvents - kChains};
    Scope s(t, "eq.probe");
    const std::int64_t t0 = nowNs();
    for (int i = 0; i < kChains; ++i)
        q.schedule(Tick(i), Hop{&ctx});
    q.run();
    const std::int64_t t1 = nowNs();
    if (q.executedEvents() != kEvents)
        fatal("eq probe retired %llu events, expected %llu",
              static_cast<unsigned long long>(q.executedEvents()),
              static_cast<unsigned long long>(kEvents));
    return double(t1 - t0) / double(kEvents);
}

/**
 * Net-only probe: a fresh Cluster of the workload's platform with
 * every receiver (and the loss handler) replaced by a counter, driven
 * by NetworkApi::send directly. The traffic is all-pairs, 16 KiB per
 * message, routed dimension-ordered; the seed permutes the send
 * order. @return host ns per message.
 */
double
netProbe(SimConfig cfg, std::uint64_t seed, Tracer &t)
{
    cfg.digest = false;
    Cluster c(cfg);
    NetworkApi &net = c.network();
    std::uint64_t arrived = 0, lost = 0;
    for (NodeId n = 0; n < c.numNodes(); ++n)
        net.setReceiver(n, [&arrived](const Message &) { ++arrived; });
    net.setLossHandler([&lost](const Message &, int) { ++lost; });

    std::vector<std::pair<NodeId, NodeId>> traffic;
    for (NodeId s = 0; s < c.numNodes(); ++s)
        for (NodeId d = 0; d < c.numNodes(); ++d)
            if (s != d)
                traffic.emplace_back(s, d);
    permute(traffic, seed);

    Scope s(t, "net.probe");
    const std::int64_t t0 = nowNs();
    int channel = 0;
    for (const auto &[src, dst] : traffic) {
        Message m;
        m.src = src;
        m.dst = dst;
        m.bytes = 16 * KiB;
        m.hint = RouteHint{-1, channel++};
        net.send(std::move(m));
    }
    c.eventQueue().run();
    const std::int64_t t1 = nowNs();
    if (arrived + lost != traffic.size())
        fatal("net probe: %zu sent, %llu arrived, %llu lost",
              traffic.size(), static_cast<unsigned long long>(arrived),
              static_cast<unsigned long long>(lost));
    return double(t1 - t0) / double(traffic.size());
}

// --- Per-layer counters ----------------------------------------------

/** Sum of the counters in @p g whose name starts and ends as given. */
double
sumCounters(const StatGroup &g, const std::string &prefix,
            const std::string &suffix)
{
    double sum = 0;
    for (const auto &[name, v] : g.counters()) {
        if (name.size() >= prefix.size() + suffix.size() &&
            name.compare(0, prefix.size(), prefix) == 0 &&
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) == 0) {
            sum += v;
        }
    }
    return sum;
}

/**
 * Fill the simulated per-layer counters from @p reg, the merged
 * metrics of one unit's @p sims simulations.
 */
void
simulatedCounters(const MetricRegistry &reg, int sims, Output &out)
{
    const StatGroup &sys = reg.group("sys");
    const StatGroup &net = reg.group("net");
    const StatGroup &fault = reg.group("fault");
    auto &L = out.layers;

    L["eq.events"] = reg.group("cluster").counter("events.executed");

    L["net.delivered_messages"] = net.counter("delivered.messages");
    L["net.byte_hops"] = net.counter("byte.hops");
    // Garnet-lite injects packets; the analytical backend moves whole
    // messages, so its unit of transfer is a link grant.
    L["net.packets"] = net.counter("backend") > 0
                           ? net.counter("packets.injected")
                           : sumCounters(net, "dim.", ".grants");
    L["net.link_util_mean"] = net.counter("util.mean") / sims;
    L["net.queue_wait_cycles"] = sumCounters(net, "dim.", ".queue_wait");
    L["net.credit_stall_cycles"] = net.counter("credit.stall_ticks");

    L["core.sent_messages"] = sys.counter("sent.messages");
    L["core.issued_chunks"] = sys.counter("issued.chunks");
    double queue_wait = 0;
    for (const auto &[name, acc] : sys.accumulators())
        if (name.rfind("queue.P", 0) == 0)
            queue_wait += acc.total();

    L["core.queue_wait_cycles"] = queue_wait;
    L["collective.chunk_payloads"] = sys.counter("chunk.payloads");
    L["collective.chunk_latency_p50_cycles"] =
        sys.histogram("chunk.latency").percentile(50);

    L["fault.lost_messages"] = fault.counter("lost.messages");
    L["fault.retries"] = sys.counter("fault.retries");
    L["fault.retries_exhausted"] = sys.counter("fault.retries_exhausted");
    L["fault.packets_dropped"] = net.counter("packets.dropped");
}

// --- Workloads ------------------------------------------------------

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    std::string root = ".";
    bool trace = false;
    bool record = false;
    std::string spans;
    std::string journal;
    std::vector<std::pair<std::string, std::string>> overrides;
};

void
applyOverrides(const Args &a, SimConfig &cfg)
{
    for (const auto &[k, v] : a.overrides)
        cfg.set(k, v);
}

/** The 64-module sweep of bench/sweep_bench (full size). */
ExploreSpec
exploreSpec()
{
    ExploreSpec spec;
    spec.modules = 64;
    spec.localDims = {1, 2, 4, 8};
    spec.setSplits = {1, 4, 16};
    spec.bytes = 1 * MiB;
    return spec;
}

/** sweep_bench's event-loop platform: 4x4x4 torus, local bw 8x. */
SimConfig
torus64(NetworkBackend backend)
{
    SimConfig cfg;
    cfg.torus(4, 4, 4);
    cfg.local.bandwidth = 8 * cfg.package.bandwidth;
    cfg.backend = backend;
    return cfg;
}

constexpr Bytes kGarnetBytes = 4 * MiB;
/**
 * Set-up takes tens of microseconds, so it is repeated after every
 * untraced unit, with the CPU already busy, for a steady median.
 */
constexpr int kSetupReps = 101;
constexpr int kProbeReps = 3;

/** One workload: its platform(s), set-up and unit of measured work. */
class Workload
{
  public:
    virtual ~Workload() = default;
    /** Timed set-up only (no simulation); @return host seconds. */
    virtual double setupOnce() = 0;
    /**
     * Run one unit of work (a simulation, or a whole sweep pass) and
     * append its records; only untraced units give end-to-end samples.
     * @return the unit's host seconds.
     */
    virtual double unit(Tracer &t, Output &out) = 0;
    /** The reference simulation(s) for references.json. */
    virtual void record(Output &out) = 0;
    /** Platform of the net probe. */
    virtual SimConfig probeConfig() const = 0;
    /** Per-layer counters of the last traced unit. */
    virtual void layerCounters(Output &out) = 0;
};

class ExploreWorkload : public Workload
{
  public:
    explicit ExploreWorkload(const Args &a)
        : _args(a), _spec(exploreSpec()), _replay(a.trace)
    {
        if (a.journal.empty())
            fatal("explore64 needs --journal=FILE to rank its candidates");
        _cands = enumerateCandidates(_spec);
        for (CandidateResult &c : _cands) {
            // Keyed by the candidate as exploreDesignSpace enumerates
            // it, before any override, so overridden runs rank too.
            _keys.push_back(guard::journalKey(c.label, int(_spec.kind),
                                              _spec.bytes,
                                              c.cfg.toString()));
            applyOverrides(a, c.cfg);
        }
        _order.resize(_cands.size());
        std::iota(_order.begin(), _order.end(), 0);
        permute(_order, a.seed);
    }

    double
    setupOnce() override
    {
        const std::int64_t t0 = nowNs();
        std::vector<CandidateResult> c = enumerateCandidates(_spec);
        const std::int64_t t1 = nowNs();
        if (c.size() != _cands.size())
            fatal("candidate enumeration is not stable");
        return toS(t1 - t0);
    }

    double
    unit(Tracer &t, Output &out) override
    {
        out.unitKind = "pass";
        std::vector<SimRecord> recs(_cands.size());
        std::vector<guard::JournalEntry> entries(_cands.size());
        std::vector<MetricRegistry> metrics;
        const std::int64_t t0 = nowNs();
        if (!_replay) {
            // The sweep as users run it: SweepRunner, one candidate
            // per call so each candidate is timed apart.
            SweepRunner runner(1);
            for (std::size_t i : _order) {
                std::vector<CandidateResult> one{_cands[i]};
                const std::int64_t c0 = nowNs();
                runner.evaluate(one, _spec.kind, _spec.bytes);
                const std::int64_t c1 = nowNs();
                const CandidateResult &r = one.front();
                SimRecord &rec = recs[i];
                rec.label = r.label;
                rec.ms = toMs(c1 - c0);
                rec.events = std::uint64_t(
                    r.metrics.group("cluster").counter("events.executed"));
                rec.digest = r.digest;
                rec.result = r.commTime;
                rec.outcome = toString(r.outcome);
                entries[i].outcome = r.outcome;
                entries[i].energyUj = r.energyUj;
            }
        } else {
            // A traced run replays each candidate through Cluster, in
            // its untraced units too, so build and run are timed apart
            // and the overhead compares like with like.
            Scope sweep(t, "explore.sweep");
            for (std::size_t i : _order) {
                Scope cand(t, "explore.candidate");
                SimRun r = collectiveSim(_cands[i].cfg, _spec.bytes,
                                         _cands[i].label, t);
                recs[i] = std::move(r.rec);
                entries[i].outcome = r.outcome;
                entries[i].energyUj = r.energyUj;
                if (t.on()) {
                    metrics.push_back(std::move(r.metrics));
                    _slab = std::max(_slab, r.slabBytes);
                }
            }
        }
        const std::int64_t t1 = nowNs();
        if (t.on()) {
            _merged = MetricRegistry();
            for (const MetricRegistry &m : metrics)
                _merged.merge(m);
        }
        for (std::size_t i = 0; i < recs.size(); ++i) {
            entries[i].key = _keys[i];
            entries[i].commTime = recs[i].result;
            entries[i].digest = recs[i].digest;
            entries[i].label = recs[i].label;
        }
        rankByLibrary(entries, recs);
        double events = 0;
        for (SimRecord &r : recs) {
            events += double(r.events);
            out.sims.push_back(std::move(r));
        }
        if (!t.on())
            out.unitEvents.push_back(events);
        return toS(t1 - t0);
    }

    void
    record(Output &out) override
    {
        // The library's own ranking is the reference.
        std::vector<CandidateResult> ranked = exploreDesignSpace(_spec, 1);
        for (std::size_t r = 0; r < ranked.size(); ++r) {
            SimRecord rec;
            rec.label = ranked[r].label;
            rec.events = std::uint64_t(ranked[r].metrics.group("cluster")
                                           .counter("events.executed"));
            rec.digest = ranked[r].digest;
            rec.result = ranked[r].commTime;
            rec.outcome = toString(ranked[r].outcome);
            rec.rank = int(r);
            out.sims.push_back(rec);
        }
    }

    SimConfig
    probeConfig() const override
    {
        SimConfig cfg = torus64(NetworkBackend::Analytical);
        applyOverrides(_args, cfg);
        return cfg;
    }

    void
    layerCounters(Output &out) override
    {
        simulatedCounters(_merged, int(_cands.size()), out);
        out.layers["eq.slab_bytes"] = _slab;
        out.layers["explore.candidates"] = double(_cands.size());
    }

  private:
    /**
     * Rank one pass's results with exploreDesignSpace itself: journal
     * them, then let it restore every candidate from the journal
     * instead of simulating it, and read the ranks off its ordering.
     */
    void
    rankByLibrary(const std::vector<guard::JournalEntry> &entries,
                  std::vector<SimRecord> &recs) const
    {
        {
            guard::SweepJournal journal(_args.journal, false);
            for (const guard::JournalEntry &e : entries)
                journal.append(e);
        }
        guard::SweepJournal journal(_args.journal, true);
        const std::vector<CandidateResult> ranked =
            exploreDesignSpace(_spec, 1, &journal);
        std::map<std::string, int> rank;
        for (std::size_t r = 0; r < ranked.size(); ++r) {
            if (!ranked[r].restored)
                fatal("ranking simulated %s instead of restoring it",
                      ranked[r].label.c_str());
            rank[ranked[r].label] = int(r);
        }
        for (SimRecord &rec : recs)
            rec.rank = rank.at(rec.label);
    }

    const Args &_args;
    ExploreSpec _spec;
    bool _replay;
    std::vector<CandidateResult> _cands;
    std::vector<std::uint64_t> _keys;
    std::vector<std::size_t> _order;
    MetricRegistry _merged;
    double _slab = 0;
};

/** A workload of one platform simulated again and again. */
class SingleWorkload : public Workload
{
  public:
    SingleWorkload(const Args &a, SimConfig cfg, bool resnet)
        : _cfg(std::move(cfg)), _resnet(resnet)
    {
        applyOverrides(a, _cfg);
    }

    double
    setupOnce() override
    {
        Tracer off(false);
        if (_resnet)
            return resnetSim(_cfg, off, false).setupS;
        const std::int64_t t0 = nowNs();
        Cluster c(_cfg);
        return toS(nowNs() - t0);
    }

    double
    unit(Tracer &t, Output &out) override
    {
        SimRun r = simulate(t);
        if (!t.on())
            out.unitEvents.push_back(double(r.rec.events));
        const double s = r.rec.ms / 1e3;
        out.sims.push_back(r.rec);
        if (t.on())
            _last = std::move(r);
        return s;
    }

    void
    record(Output &out) override
    {
        Tracer off(false);
        out.sims.push_back(simulate(off).rec);
    }

    SimConfig probeConfig() const override { return _cfg; }

    void
    layerCounters(Output &out) override
    {
        simulatedCounters(_last.metrics, 1, out);
        out.layers["eq.slab_bytes"] = _last.slabBytes;
        if (_resnet) {
            out.layers["workload.makespan_cycles"] = _last.makespan;
            out.layers["workload.exposed_ratio"] = _last.exposedRatio;
        }
    }

  private:
    SimRun
    simulate(Tracer &t)
    {
        if (_resnet)
            return resnetSim(_cfg, t, true);
        return collectiveSim(_cfg, kGarnetBytes, "allreduce-4MiB", t);
    }

    SimConfig _cfg;
    bool _resnet;
    SimRun _last;
};

std::unique_ptr<Workload>
makeWorkload(const Args &a)
{
    if (a.workload == "explore64")
        return std::make_unique<ExploreWorkload>(a);
    if (a.workload == "resnet50_dp64") {
        // 64 NPUs: local-dim 4, 4 packages per row, 4 rows.
        SimConfig cfg;
        cfg.torus(4, 4, 4);
        return std::make_unique<SingleWorkload>(a, cfg, true);
    }
    if (a.workload == "garnet_ar64") {
        return std::make_unique<SingleWorkload>(
            a, torus64(NetworkBackend::GarnetLite), false);
    }
    if (a.workload == "garnet_faulty64") {
        SimConfig cfg;
        cfg.loadFile(a.root + "/configs/faulty_4x4x4.cfg");
        cfg.backend = NetworkBackend::GarnetLite;
        return std::make_unique<SingleWorkload>(a, cfg, false);
    }
    fatal("unknown workload '%s' (explore64, resnet50_dp64, garnet_ar64, "
          "garnet_faulty64)",
          a.workload.c_str());
}

// --- Output ---------------------------------------------------------

void
printArray(const char *key, const std::vector<double> &v)
{
    std::printf("  \"%s\": [", key);
    for (std::size_t i = 0; i < v.size(); ++i)
        std::printf("%s%s", i ? ", " : "", jsonNumber(v[i]).c_str());
    std::printf("],\n");
}

void
printMap(const char *key, const std::map<std::string, double> &m)
{
    std::printf("  \"%s\": {", key);
    bool first = true;
    for (const auto &[k, v] : m) {
        std::printf("%s\n    \"%s\": %s", first ? "" : ",",
                    jsonEscape(k).c_str(), jsonNumber(v).c_str());
        first = false;
    }
    std::printf("\n  },\n");
}

void
printOutput(const Args &a, const Output &out)
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    std::printf("{\n");
    std::printf("  \"workload\": \"%s\",\n", jsonEscape(a.workload).c_str());
    std::printf("  \"seed\": %llu,\n",
                static_cast<unsigned long long>(a.seed));
    std::printf("  \"compiler\": \"%s\",\n", PERFBENCH_COMPILER);
    std::printf("  \"build_type\": \"%s\",\n", PERFBENCH_BUILD_TYPE);
    std::printf("  \"unit\": \"%s\",\n", out.unitKind.c_str());
    printArray("setup_s", out.setupS);
    printArray("wall_s", out.wallS);
    printArray("unit_events", out.unitEvents);
    printArray("traced_wall_s", out.tracedWallS);
    printMap("layers", out.layers);
    printMap("self_ms", out.selfMs);
    std::printf("  \"sims\": [");
    for (std::size_t i = 0; i < out.sims.size(); ++i) {
        const SimRecord &s = out.sims[i];
        std::printf("%s\n    {\"label\": \"%s\", \"ms\": %s, \"events\": "
                    "%llu, \"digest\": \"0x%016llx\", \"result\": %llu, "
                    "\"outcome\": \"%s\", \"rank\": %d}",
                    i ? "," : "", jsonEscape(s.label).c_str(),
                    jsonNumber(s.ms).c_str(),
                    static_cast<unsigned long long>(s.events),
                    static_cast<unsigned long long>(s.digest),
                    static_cast<unsigned long long>(s.result),
                    s.outcome.c_str(), s.rank);
    }
    std::printf("\n  ],\n");
    std::printf("  \"peak_rss_kb\": %ld\n}\n", ru.ru_maxrss);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--trace") {
            a.trace = true;
            continue;
        }
        if (arg == "--record") {
            a.record = true;
            continue;
        }
        const std::size_t eq = arg.find('=');
        if (arg.rfind("--", 0) != 0 || eq == std::string::npos)
            fatal("bad argument '%s' (expected --key=value)", arg.c_str());
        const std::string k = arg.substr(2, eq - 2);
        const std::string v = arg.substr(eq + 1);
        if (k == "workload")
            a.workload = v;
        else if (k == "seed")
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "seconds")
            a.seconds = std::strtod(v.c_str(), nullptr);
        else if (k == "root")
            a.root = v;
        else if (k == "spans")
            a.spans = v;
        else if (k == "journal")
            a.journal = v;
        else
            a.overrides.emplace_back(k, v);
    }
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args a = parseArgs(argc, argv);
    std::unique_ptr<Workload> w = makeWorkload(a);
    Output out;

    if (a.record) {
        if (!a.overrides.empty())
            fatal("--record takes no parameter overrides");
        w->record(out);
        printOutput(a, out);
        return 0;
    }

    Tracer off(false);
    Tracer traced(a.trace);
    const std::int64_t start = nowNs();
    const std::int64_t deadline = start + std::int64_t(a.seconds * 1e9);
    int run_id = 0;
    // Untraced units until the deadline; a traced run alternates an
    // untraced and a traced unit, so the overhead compares like with
    // like.
    do {
        out.wallS.push_back(w->unit(off, out));
        for (int i = 0; i < kSetupReps; ++i)
            out.setupS.push_back(w->setupOnce());
        if (a.trace) {
            traced.setRun(run_id++);
            out.tracedWallS.push_back(w->unit(traced, out));
        }
    } while (nowNs() < deadline);

    if (a.trace) {
        w->layerCounters(out);
        auto &L = out.layers;
        const int probe_run = run_id;
        traced.setRun(probe_run);
        std::vector<double> eq_ns, net_ns;
        for (int i = 0; i < kProbeReps; ++i) {
            eq_ns.push_back(eqProbe(a.seed + std::uint64_t(i), traced));
            net_ns.push_back(
                netProbe(w->probeConfig(), a.seed + std::uint64_t(i),
                         traced));
        }
        L["eq.probe_ns_per_event"] = median(eq_ns);
        L["net.probe_ns_per_msg"] = median(net_ns);

        // Host times per simulation, from the traced units' spans.
        const double units = double(out.tracedWallS.size());
        const double sims_per_unit =
            a.workload == "explore64" ? L["explore.candidates"] : 1.0;
        const double sims = units * sims_per_unit;
        const bool resnet = a.workload == "resnet50_dp64";
        const double run_ms = traced.totalMs(resnet ? "workload.run"
                                                    : "core.run");
        L["core.cluster_build_ms"] =
            traced.totalMs("core.cluster_build") / sims;
        L["core.issue_ms"] = traced.totalMs("core.issue") / sims;
        L["core.run_ms"] = run_ms / sims;
        L["core.run_us_per_message"] =
            run_ms * 1e3 / (units * L["core.sent_messages"]);
        L["eq.run_ns_per_event"] = run_ms * 1e6 / (units * L["eq.events"]);

        if (resnet) {
            L["workload.generate_ms"] =
                traced.totalMs("workload.generate") / units;
            L["workload.setup_ms"] =
                traced.totalMs("workload.setup") / units;
            L["workload.run_ms"] = traced.totalMs("workload.run") / units;
        }

        if (a.workload == "explore64") {
            L["explore.enumerate_ms"] = median(out.setupS) * 1e3;
            L["explore.candidate_build_ms"] = L["core.cluster_build_ms"];
            L["explore.candidate_run_ms"] =
                (traced.totalMs("core.issue") + run_ms) / sims;
        }
        L["trace.overhead_ms"] =
            (median(out.tracedWallS) - median(out.wallS)) * 1e3;
        // Self time per traced unit; the probe layers (eq, net) per
        // probe repetition.
        for (const auto &[layer, ms] : traced.selfMsByLayer(0, probe_run))
            out.selfMs[layer] = ms / units;
        for (const auto &[layer, ms] :
             traced.selfMsByLayer(probe_run, probe_run + 1))
            out.selfMs[layer] = ms / kProbeReps;
        if (!a.spans.empty() && !traced.write(a.spans))
            fatal("cannot write spans to %s", a.spans.c_str());
    }
    printOutput(a, out);
    return 0;
}
