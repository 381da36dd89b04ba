#include "sim/shard.h"

#include "obs/telemetry.h"

namespace contra::sim {

Shard::Shard(uint32_t shard_id, const topology::Topology& topo, const SimConfig& config,
             const topology::Partition& partition)
    : id(shard_id), sim(topo, config, &partition, shard_id), outbox(partition.num_shards) {
  // Disjoint id namespaces per shard; shard 0 matches the serial sequences
  // exactly, so a 1-shard parallel run digests identically to the serial
  // engine.
  sim.set_next_packet_id((static_cast<uint64_t>(shard_id) << 48) + 1);

  for (topology::LinkId l = 0; l < topo.num_links(); ++l) {
    if (!sim.owns_link(l)) continue;  // not ours to transmit on
    const uint32_t peer = partition.shard(topo.link(l).to);
    if (peer == shard_id) continue;
    Mailbox* box = &outbox[peer];
    sim.link(l).set_remote_forward(
        [box, l](Time arrival, Packet&& packet) { box->push(arrival, l, std::move(packet)); });
  }
}

uint64_t drain_mailboxes_into(Shard& dst, std::vector<std::unique_ptr<Shard>>& shards) {
  size_t batch = 0;
  for (auto& src : shards) batch += src->outbox[dst.id].staged().size();
  if (batch == 0) return 0;
  dst.sim.events().reserve_extra(batch);
  for (auto& src : shards) {
    Mailbox& box = src->outbox[dst.id];
    for (CrossHop& hop : box.staged()) {
      dst.sim.events().schedule_deliver(hop.deliver_at, &dst.sim.link(hop.link),
                                        std::move(hop.packet));
    }
    box.clear_staged();
  }
  obs::Telemetry& t = dst.sim.telemetry();
  t.metrics().add(t.core().par_mailbox_hops, batch);
  t.metrics().add(t.core().par_mailbox_batches);
  t.metrics().observe(t.core().par_batch_size, static_cast<double>(batch));
  return batch;
}

}  // namespace contra::sim
