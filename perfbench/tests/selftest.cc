/**
 * @file
 * Self-tests of the benchmark's own metric code: the percentile
 * helper and its ten-beyond sample rule, the failed-fraction
 * accounting, and peak-RSS measurement of the calling process.
 * Exit code 0 when every test passes.
 */

#include <cstdio>
#include <cstring>
#include <vector>

#include "report.hh"

namespace {

int failures = 0;

void
expect(bool ok, const char *what)
{
    if (!ok) {
        ++failures;
        std::printf("FAIL: %s\n", what);
    } else {
        std::printf("ok:   %s\n", what);
    }
}

std::vector<double>
oneTo(int n)
{
    std::vector<double> v;
    for (int i = n; i >= 1; --i) // unsorted on purpose
        v.push_back(i);
    return v;
}

void
percentileTests()
{
    using perfbench::percentile;
    expect(perfbench::minSamplesFor(0.9) == 100, "p90 needs 100 samples");
    expect(perfbench::minSamplesFor(0.99) == 1000, "p99 needs 1000 samples");
    expect(perfbench::minSamplesFor(0.5) == 20, "p50 needs 20 samples");

    auto p = percentile(oneTo(100), 0.9);
    expect(p.value == 90.0, "nearest-rank p90 of 1..100 is 90");
    expect(p.samples == 100 && p.beyond == 10 && p.enough,
           "100 samples leave exactly ten beyond p90");

    p = percentile(oneTo(99), 0.9);
    expect(!p.enough && p.beyond == 9,
           "99 samples leave only nine beyond p90");

    p = percentile(oneTo(1000), 0.99);
    expect(p.value == 990.0 && p.enough, "p99 of 1..1000 is 990");
    p = percentile(oneTo(999), 0.99);
    expect(!p.enough, "999 samples are too few for p99");

    p = percentile(oneTo(20), 0.5);
    expect(p.value == 10.0 && p.enough, "p50 of 1..20 is 10");

    p = percentile({}, 0.5);
    expect(p.samples == 0 && !p.enough && p.value == 0.0,
           "empty input reports no percentile");

    perfbench::Report r;
    r.percentileMetric(perfbench::Report::Kind::Sim, "x_p90_s",
                       percentile(oneTo(50), 0.9), "s");
    expect(!r.allChecksPass(),
           "too few samples fail the percentile_samples check");
    expect(std::strstr(r.json("w", 1).c_str(), "\"x_p90_s\":50") != nullptr,
           "the sample count is printed beside the percentile");
}

void
opsTests()
{
    // A refused request counts as failed: the report adds it to both
    // sides of the ratio.
    perfbench::Report r;
    r.ops(100, 0);
    r.ops(5, 5); // five refused
    expect(r.attempted() == 105 && r.failed() == 5,
           "refused operations count as attempted and failed");
}

void
rssTests()
{
    const double before = perfbench::peakRssMib();
    std::vector<char> big(96u << 20);
    unsigned sum = 0;
    for (std::size_t i = 0; i < big.size(); i += 4096) {
        big[i] = static_cast<char>(i >> 12);
        sum += static_cast<unsigned char>(big[i]);
    }
    const double after = perfbench::peakRssMib();
    std::printf("      (touched %zu pages, checksum %u)\n",
                big.size() / 4096, sum);
    expect(before > 0.0, "peak RSS is readable");
    expect(after - before >= 90.0,
           "touching 96 MiB raises this process's peak RSS");
}

} // namespace

int
main()
{
    percentileTests();
    opsTests();
    rssTests();
    std::printf("%s (%d failures)\n", failures ? "FAILED" : "PASSED",
                failures);
    return failures ? 1 : 0;
}
