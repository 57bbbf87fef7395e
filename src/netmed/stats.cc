#include "netmed/types.hh"

#include "obs/registry.hh"

namespace netmed {

const char *
medModeName(MedMode mode)
{
    switch (mode) {
      case MedMode::Trap:
        return "trap";
      case MedMode::Exitless:
        return "exitless";
      case MedMode::Passthrough:
        return "passthrough";
    }
    return "unknown";
}

void
publishNetMedStats(obs::Registry &reg, const std::string &label,
                   const NetMedStats &s)
{
    reg.counter("netmed.guest_tx", label).set(s.guestTx);
    reg.counter("netmed.guest_rx", label).set(s.guestRx);
    reg.counter("netmed.vmm_tx", label).set(s.vmmTx);
    reg.counter("netmed.vmm_tx_dropped", label).set(s.vmmTxDropped);
    reg.counter("netmed.vmm_rx", label).set(s.vmmRx);
    reg.counter("netmed.copies", label).set(s.copies);
    reg.counter("netmed.polls", label).set(s.polls);
    reg.counter("netmed.tx_reaped", label).set(s.txReaped);
    reg.counter("netmed.rx_no_buffer", label).set(s.rxNoBuffer);
    reg.counter("netmed.rx_unmatched", label).set(s.rxUnmatched);
    reg.counter("netmed.tx_throttled", label).set(s.txThrottled);
    reg.counter("netmed.rx_steered", label).set(s.rxSteered);
    reg.counter("netmed.ring_stalls", label).set(s.ringStalls);
    reg.counter("netmed.injected_drops", label).set(s.injectedDrops);
}

} // namespace netmed
