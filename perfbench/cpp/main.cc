/**
 * @file
 * bmbench: run one benchmark workload once, in this process, and
 * print its result as one JSON line on stdout.
 *
 *     bmbench --workload <name> --seed <n> [--shards <n>] [--trace 0|1]
 *
 * Exit code 0 when every correctness check passed, 1 when one failed,
 * 2 on bad arguments. perfbench/run.py drives it.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "workloads.hh"

namespace {

bool
parseUnsigned(const char *s, std::uint64_t &out)
{
    if (!s || !*s)
        return false;
    char *end = nullptr;
    unsigned long long v = std::strtoull(s, &end, 10);
    if (*end != '\0' || s[0] == '-')
        return false;
    out = v;
    return true;
}

int
usage()
{
    std::cerr << "usage: bmbench --workload deploy_storm|db_during_deploy|"
                 "nic_serving|lease_churn --seed N [--shards N] "
                 "[--trace 0|1]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    perfbench::RunOptions o;
    for (int i = 1; i < argc; i += 2) {
        if (i + 1 >= argc)
            return usage();
        std::string k = argv[i];
        std::uint64_t v = 0;
        if (k == "--workload") {
            workload = argv[i + 1];
        } else if (k == "--seed" && parseUnsigned(argv[i + 1], v)) {
            o.seed = v;
        } else if (k == "--shards" && parseUnsigned(argv[i + 1], v) &&
                   v >= 1 && v <= 64) {
            o.shards = static_cast<unsigned>(v);
        } else if (k == "--trace" && parseUnsigned(argv[i + 1], v) &&
                   v <= 1) {
            o.trace = v == 1;
        } else {
            return usage();
        }
    }

    perfbench::Report rep;
    if (workload == "deploy_storm")
        perfbench::runDeployStorm(o, rep);
    else if (workload == "db_during_deploy")
        perfbench::runDbDuringDeploy(o, rep);
    else if (workload == "nic_serving")
        perfbench::runNicServing(o, rep);
    else if (workload == "lease_churn")
        perfbench::runLeaseChurn(o, rep);
    else
        return usage();

    rep.host("peak_rss_mib", perfbench::peakRssMib(), "MiB");
    std::cout << rep.json(workload, o.seed) << std::endl;
    return rep.allChecksPass() ? 0 : 1;
}
