#include "report.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

std::size_t
minSamplesFor(double q)
{
    // Ten beyond the rank: n - ceil(q n) >= 10  <=>  n >= 10 / (1 - q),
    // with a small slack so 10 / 0.1 lands on exactly 100.
    return static_cast<std::size_t>(std::ceil(10.0 / (1.0 - q) - 1e-9));
}

Percentile
percentile(std::vector<double> v, double q)
{
    Percentile p;
    p.samples = v.size();
    if (v.empty())
        return p;
    std::sort(v.begin(), v.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size()) - 1e-9));
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    p.value = v[rank - 1];
    p.beyond = v.size() - rank;
    p.enough = p.beyond >= 10;
    return p;
}

double
peakRssMib()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream is(line.substr(6));
            double kib = 0.0;
            is >> kib;
            return kib / 1024.0;
        }
    }
    return 0.0;
}

HostSpans::Clock::time_point
HostSpans::add(const std::string &name, Clock::time_point since)
{
    auto now = Clock::now();
    double s = std::chrono::duration<double>(now - since).count();
    for (auto &[n, total] : totals_) {
        if (n == name) {
            total += s;
            return now;
        }
    }
    totals_.emplace_back(name, s);
    return now;
}

void
Report::percentileMetric(Kind k, const std::string &name,
                         const Percentile &p, const std::string &unit)
{
    add(k, name, p.value, unit);
    samples_.emplace_back(name, p.samples);
    if (!p.enough)
        check("percentile_samples:" + name, false);
}

bool
Report::allChecksPass() const
{
    for (const auto &c : checks_)
        if (!c.second)
            return false;
    return true;
}

namespace {

const char *
kindName(Report::Kind k)
{
    switch (k) {
    case Report::Kind::Sim:
        return "sim";
    case Report::Kind::Host:
        return "host";
    case Report::Kind::LayerSim:
        return "layer_sim";
    case Report::Kind::LayerHost:
        return "layer_host";
    }
    return "?";
}

std::string
num(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

std::string
Report::json(const std::string &workload, std::uint64_t seed) const
{
    std::ostringstream os;
    os << "{\"workload\":\"" << workload << "\",\"seed\":" << seed
       << ",\"attempted\":" << attempted_ << ",\"failed\":" << failed_;
    char fp[24];
    std::snprintf(fp, sizeof fp, "0x%016llx",
                  static_cast<unsigned long long>(fingerprint_));
    os << ",\"fingerprint\":\"" << fp << "\",\"metrics\":[";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        const Metric &m = metrics_[i];
        os << (i ? "," : "") << "{\"name\":\"" << m.name
           << "\",\"kind\":\"" << kindName(m.kind)
           << "\",\"value\":" << num(m.value) << ",\"unit\":\""
           << m.unit << "\"}";
    }
    os << "],\"samples\":{";
    for (std::size_t i = 0; i < samples_.size(); ++i)
        os << (i ? "," : "") << "\"" << samples_[i].first
           << "\":" << samples_[i].second;
    os << "},\"checks\":{";
    for (std::size_t i = 0; i < checks_.size(); ++i)
        os << (i ? "," : "") << "\"" << checks_[i].first
           << "\":" << (checks_[i].second ? "true" : "false");
    os << "}}";
    return os.str();
}

} // namespace perfbench
