/**
 * @file
 * Metric plumbing shared by every workload: the percentile helper
 * with its ten-beyond sample rule, the per-process result record
 * (printed as one JSON line for perfbench/run.py), host-time spans
 * and the process's own peak resident memory.
 *
 * Every metric carries the clock it uses. "sim" metrics are computed
 * from simulated ticks and counts and must repeat exactly for a seed;
 * "host" metrics are measured with std::chrono::steady_clock or from
 * /proc and vary run to run.
 */

#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/** A nearest-rank percentile and the samples behind it. */
struct Percentile
{
    double value = 0.0;
    std::size_t samples = 0;
    /** Samples strictly above the percentile's rank. */
    std::size_t beyond = 0;
    /** At least ten samples lie beyond the percentile. */
    bool enough = false;
};

/** Smallest sample count that leaves ten samples beyond quantile
 *  @p q (0 < q < 1): 100 for p90, 1000 for p99, 20 for p50. */
std::size_t minSamplesFor(double q);

/** Nearest-rank quantile @p q of @p v (copied and sorted). An empty
 *  input gives value 0 and enough == false. */
Percentile percentile(std::vector<double> v, double q);

/** Peak resident set of this process in MiB (VmHWM). */
double peakRssMib();

/** Accumulating host-time spans, keyed by name. */
class HostSpans
{
  public:
    using Clock = std::chrono::steady_clock;

    /** Add the time since @p since to span @p name; returns now. */
    Clock::time_point add(const std::string &name,
                          Clock::time_point since);
    const std::vector<std::pair<std::string, double>> &
    totals() const
    {
        return totals_;
    }

  private:
    std::vector<std::pair<std::string, double>> totals_;
};

/** One process's result, printed as a single JSON line. */
class Report
{
  public:
    enum class Kind { Sim, Host, LayerSim, LayerHost };

    void
    add(Kind k, const std::string &name, double value,
        const std::string &unit)
    {
        metrics_.push_back({k, name, value, unit});
    }
    void sim(const std::string &n, double v, const std::string &u)
    {
        add(Kind::Sim, n, v, u);
    }
    void host(const std::string &n, double v, const std::string &u)
    {
        add(Kind::Host, n, v, u);
    }
    void layer(const std::string &n, double v, const std::string &u)
    {
        add(Kind::LayerSim, n, v, u);
    }
    void layerHost(const std::string &n, double v,
                   const std::string &u)
    {
        add(Kind::LayerHost, n, v, u);
    }

    /**
     * Record a percentile metric and its sample count. A percentile
     * without ten samples beyond it fails the "percentile_samples"
     * check: the workload is too small to report it.
     */
    void percentileMetric(Kind k, const std::string &name,
                          const Percentile &p, const std::string &unit);

    /** A named correctness check; any false fails the run. */
    void
    check(const std::string &name, bool ok)
    {
        checks_.push_back({name, ok});
    }

    /** Operations attempted / failed (failed includes refused and
     *  late operations). */
    void
    ops(std::uint64_t attempted, std::uint64_t failed)
    {
        attempted_ += attempted;
        failed_ += failed;
    }
    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

    void setFingerprint(std::uint64_t fp) { fingerprint_ = fp; }

    bool allChecksPass() const;

    /** The whole record as one JSON object on one line. */
    std::string json(const std::string &workload,
                     std::uint64_t seed) const;

  private:
    struct Metric
    {
        Kind kind;
        std::string name;
        double value;
        std::string unit;
    };

    std::vector<Metric> metrics_;
    std::vector<std::pair<std::string, std::size_t>> samples_;
    std::vector<std::pair<std::string, bool>> checks_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::uint64_t fingerprint_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH
