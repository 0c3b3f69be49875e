// Deterministic fault injection for exercising recovery paths.
//
// Production code sprinkles named *sites* at the places that can fail in
// the wild (checkpoint writes, gradient buffers, SPICE solves, exporter
// I/O). Each call to should_fire(site) increments a per-site occurrence
// counter; a fault fires when the current occurrence matches the active
// spec, so injected failures are reproducible run-to-run — tests assert
// on the recovery behaviour instead of trusting it on faith.
//
// Spec syntax (EVA_FAULT or set_spec): comma-separated `site:occurrence`
// entries, 1-based, plus `site:*` for every occurrence:
//
//   EVA_FAULT=nan_grad:12                 poison gradients on the 12th step
//   EVA_FAULT=ckpt_bitflip:2,io_write:1   corrupt snapshot 2, fail write 1
//   EVA_FAULT=spice_dc:*                  every DC solve gives up
//
// Sites in use: io_write (util/io atomic writer), ckpt_write /
// ckpt_bitflip (train/checkpoint), nan_grad (train/run, every trainer),
// spice_dc (spice/engine), fom_nan (spice/fom), reward_nan
// (rl/reward_model), serve_accept / serve_conn_drop / serve_partial_write
// (serve/server — the network-failure family the router's failover and
// client-side retry are tested against).
//
// With no spec active, should_fire is one relaxed atomic load.
#pragma once

#include <cstdint>
#include <string_view>

namespace eva::fault {

/// True when any fault spec is active (cheap fast-path check).
[[nodiscard]] bool enabled() noexcept;

/// Count one occurrence of `site` and report whether the active spec
/// fires for it. Fired faults are logged (warn) and counted in the
/// `fault.injected` metric.
[[nodiscard]] bool should_fire(std::string_view site);

/// Install a spec programmatically (tests). Resets all occurrence
/// counters; an empty spec disables injection entirely.
void set_spec(std::string_view spec);

/// Occurrences seen so far for a site (tests / diagnostics).
[[nodiscard]] std::uint64_t occurrences(std::string_view site);

}  // namespace eva::fault
