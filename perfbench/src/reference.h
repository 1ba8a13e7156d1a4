// A fixed reference loop that tracks the host's momentary speed.
//
// On a shared machine the same binary runs up to ~1.7x slower for
// minutes at a time while other tenants load the host. The loop is timed
// before the first repetition and after every one; the host-time
// end-to-end metrics are reported scaled to the speed at which it takes
// its reference time, so a slow spell moves the raw numbers (also
// printed) but not the reported ones.
#pragma once

namespace perfbench {

/// Wall seconds for `threads` threads to run the reference loop: each
/// runs 2,000 rounds of 50 events of an event-queue-shaped loop (binary
/// heap of 1,024 entries, handlers updating a 1 MiB table at
/// pseudo-random offsets), and with more than one thread they meet at a
/// barrier after every round, as the lane engine's workers do. It shares
/// no code with the simulator, so no change to the simulator can move it.
double reference_loop_seconds(int threads);

/// The loop's time on the 4-vCPU sandbox the benchmark was defined on,
/// in a quiet spell, by thread count (index 1..4; more threads use the
/// 4-thread time): the speed the host-time metrics are reported at.
double reference_seconds(int threads);

}  // namespace perfbench
