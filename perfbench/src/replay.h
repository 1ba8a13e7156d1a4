// Replay timings: public layer entry points called directly, in a tight
// loop, on the workload's own frame shapes. Each returns the median host
// nanoseconds per call over several batches. They time a layer in
// isolation (warm caches, no event dispatch around it), so they are a
// floor for the layer's in-situ cost, not a measurement of it.
#pragma once

#include <cstddef>

namespace perfbench {

/// Simulator::schedule + dispatch per event, with `depth` events pending.
double replay_event_ns(std::size_t depth);
/// One packet's SkbPool + BufferPool acquire/release cycle.
double replay_pool_cycle_ns(std::size_t payload);
/// parse_frame_into on a VXLAN wire frame carrying `payload` L4 bytes.
double replay_parse_ns(std::size_t payload, bool tcp);
/// vxlan_encapsulate (and the matching strip) of one inner frame.
double replay_vxlan_encap_ns(std::size_t payload, bool tcp);
/// internet_checksum over `payload` bytes, scaled to ns per KiB.
double replay_csum_ns_per_kb(std::size_t payload);
/// Fdb::lookup on a table of `entries` MACs.
double replay_fdb_lookup_ns(std::size_t entries);
/// LatencyLedger::record_delivery for an overlay-path journey.
double replay_ledger_record_ns();
/// FlowTable::record over `flows` distinct flows.
double replay_flowtable_record_ns(std::size_t flows);

}  // namespace perfbench
