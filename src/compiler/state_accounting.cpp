#include "compiler/state_accounting.h"

#include <algorithm>

namespace contra::compiler {

namespace {

uint64_t bits_to_bytes(uint64_t bits) { return (bits + 7) / 8; }

}  // namespace

void account_state(CompileResult& result) {
  const uint64_t tag_bytes = std::max<uint64_t>(1, bits_to_bytes(result.tag_bits()));
  const uint64_t num_pids = result.num_pids();
  const uint64_t num_attrs = result.decomposition.attrs.size();

  // Count valid destinations once (a probe origin exists for each).
  uint64_t num_destinations = 0;
  for (const SwitchConfig& cfg : result.switches) {
    if (cfg.is_destination) ++num_destinations;
  }

  for (SwitchConfig& cfg : result.switches) {
    StateFootprint& fp = cfg.footprint;

    // FwdT: one entry per (destination, local tag, pid). On a connected
    // topology probes from every valid destination reach every useful
    // virtual node, so this product is the steady-state table size — and the
    // dense row index, when built, materializes exactly this universe.
    fp.fwdt_entries = cfg.dense.empty()
                          ? num_destinations * cfg.local_tags.size() * num_pids
                          : cfg.dense.num_rows();
    const uint64_t key_bytes = 2 + tag_bytes + 1;              // dst + tag + pid
    const uint64_t mv_bytes = 4 * num_attrs;                   // fixed-point metrics
    const uint64_t action_bytes = tag_bytes + 2 + 2;           // ntag + nhop + version
    fp.fwdt_bytes = fp.fwdt_entries * (key_bytes + mv_bytes + action_bytes);

    // BestT: the best (tag, pid) key per destination.
    fp.best_bytes = num_destinations * (tag_bytes + 1);

    // Policy-aware flowlet table (§5.3): hash-indexed slots storing
    // (tag, pid, fid, nhop, ntag, timestamp).
    fp.flowlet_bytes =
        static_cast<uint64_t>(kFlowletSlots) * (tag_bytes + 1 + 4 + 2 + tag_bytes + 4);

    // Loop-detection table (§5.5): hash, maxttl, minttl per slot.
    fp.loop_table_bytes = static_cast<uint64_t>(kLoopTableSlots) * (4 + 1 + 1);

    // Probe multicast groups.
    fp.multicast_bytes = cfg.multicast.size() * (tag_bytes + 2 + tag_bytes);
  }
}

}  // namespace contra::compiler
