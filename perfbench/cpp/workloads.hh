/**
 * @file
 * The four benchmark workloads and the pieces their worlds share.
 * Each run function builds its world from RunOptions::seed, drives
 * it to completion, checks the outputs, and fills a Report.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include "bmcast/params.hh"
#include "hw/disk_store.hh"
#include "fleet.hh"

namespace perfbench {

/** A serving request slower than this counts as failed. */
constexpr sim::Tick kProbeLimit = 2 * sim::kSec;

/** Small boot working set: the workloads vary fleet behaviour, not
 *  per-node boot cost. */
guest::BootTrace smallBootTrace();

/** A fast-booting VMM with moderation on. */
bmcast::VmmParams fastVmmParams();

/** One node BMcast deploys: its machine, guest and deployer. */
struct DeployNode
{
    struct Spec
    {
        std::string name;
        net::Network *lan = nullptr;
        net::MacAddr mac = 0, mgmtMac = 0, server = 0;
        sim::Lba imageSectors = 0;
        std::uint64_t machineSeed = 0, guestSeed = 0;
        bmcast::VmmParams vmm;
    };

    /** Build the node on @p eq, timing each layer into @p spans. */
    DeployNode(sim::EventQueue &eq, const Spec &s, HostSpans &spans);

    /** Record the finished deployment in rec, tally the node's layers
     *  and name its AoE initiator; true if every image sector holds
     *  the image or, where the tenant wrote it, the tenant's data. */
    bool finish(LayerTally &lt, std::vector<std::string> &initiators);

    sim::Lba imageSectors;
    /** What the tenant wrote, in issue order (its writes never
     *  overlap in flight). */
    hw::DiskStore written;
    std::unique_ptr<hw::Machine> machine;
    std::unique_ptr<guest::GuestOs> guest;
    std::unique_ptr<bmcast::BmcastDeployer> dep;
    DeployRecord rec;
};

/**
 * Host timing of one run: setup_s from construction to setupDone(),
 * wall_s from setupDone() to runDone(), plus the named host spans
 * the world records (a fixed set, so every workload prints the same
 * per-layer names).
 */
class Timed
{
  public:
    explicit Timed(Report &r);
    void setupDone();
    void runDone();

    HostSpans spans;

  private:
    Report &rep_;
    HostSpans::Clock::time_point t0_, t1_;
};

void runDeployStorm(const RunOptions &o, Report &rep);
void runDbDuringDeploy(const RunOptions &o, Report &rep);
void runNicServing(const RunOptions &o, Report &rep);
void runLeaseChurn(const RunOptions &o, Report &rep);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
