//! The benchmark's contract as data: workloads, metrics, units, directions
//! and bounds. `BENCHMARK.json` at the repo root states the same thing for
//! the driver; a self-test keeps the two in step.

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 12;

/// One metric of the contract.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: higher,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: higher,
        bound: None,
    }
}

/// Why each workload exists, one line each.
pub const WORKLOADS: [(&str, &str); 7] = [
    (
        "poly_compute",
        "seven cache-resident PolyBench kernels: core model and caches do ~90% of host time, the tile little",
    ),
    (
        "mem_read",
        "mvt, trisolv and a shuffled 1 MiB pointer chase: dependent LLC misses, so tile read path, FR-FCFS, bender and device dominate",
    ),
    (
        "stream_write",
        "store sweep, CPU copy and RowClone copy on 2 channels: posted writebacks, CLFLUSH bursts, fence drains and the allocator",
    ),
    (
        "stream_write_t2",
        "one store sweep on 4 channels at threads=2: the only workload whose serve passes go through par::WorkerPool",
    ),
    (
        "corun_write",
        "4 cores x 4 channels of store sweeps: baton hand-offs in cpu::shared and per-requestor stats reduction dominate",
    ),
    (
        "hammer_graphene",
        "double-sided hammer under Graphene with disturbance on: hammer_counts/rows hash maps, the mitigation hook and RFM timing",
    ),
    (
        "corun_traced",
        "2-core chase + writer with tracing on, then both exporters: the only workload where obs rings and exporters are on the path",
    ),
];

/// What a user of the simulator sees. Rates use the fastest op time.
/// Every bound is the widest the contract allows: on the shared 2-CPU host
/// ten runs of one commit spread by 4-13% of their median (README, "Noise"),
/// and a bound has to be about three times that to mean anything.
pub const END_TO_END: [Metric; 4] = [
    e2e("emu_mcycles_per_host_s", "Mcycles/s", true, 0.25),
    e2e("mem_kreqs_per_host_s", "kreq/s", true, 0.25),
    e2e("peak_rss_mib", "MiB", false, 0.25),
    e2e("setup_s", "s", false, 0.25),
];

/// Single layers, from the traced run. No bounds. A value of 0 on the two
/// `cpu_core.self_*` and the four `tile.*` span metrics means the workload
/// is a co-run, whose cores `MultiCoreSystem` owns.
pub const PER_LAYER: [Metric; 47] = [
    // In-situ spans.
    layer("cpu_core.self_share", "share", false),
    layer("cpu_core.self_ns_per_instr", "ns", false),
    layer("tile.self_share", "share", false),
    layer("tile.self_ns_per_req", "ns", false),
    layer("tile.calls_per_op", "count", false),
    layer("tile.reqs_per_pass", "req/pass", true),
    layer("smc.span_share", "share", false),
    layer("smc.span_ns_per_req", "ns", false),
    layer("smc.passes_per_op", "count", false),
    layer("harness.tracing_overhead_ratio", "ratio", false),
    layer("harness.timer_ns", "ns", false),
    layer("harness.op_ms_p50", "ms", false),
    layer("harness.op_ms_p90", "ms", false),
    // Replay of the op's own command stream.
    layer("bender.run_ns_per_cmd", "ns", false),
    layer("dram_device.issue_ns_per_cmd", "ns", false),
    layer("dram_device.line_rw_ns", "ns", false),
    layer("dram_bank.legal_apply_ns_per_cmd", "ns", false),
    layer("dram_bank.earliest_ns_per_cmd", "ns", false),
    layer("dram_address.to_dram_ns", "ns", false),
    layer("timeline.price_ns", "ns", false),
    // Direct micro-timings.
    layer("cpu_cache.lookup_insert_ns", "ns", false),
    layer("cpu_core.fixed_backend_ns_per_instr", "ns", false),
    layer("system.new_us", "us", false),
    layer("report.merge_ns", "ns", false),
    layer("report.system_report_us", "us", false),
    layer("obs.ring_push_ns", "ns", false),
    layer("obs.hist_record_ns", "ns", false),
    layer("obs.export_chrome_ns_per_event", "ns", false),
    layer("obs.export_binary_ns_per_event", "ns", false),
    layer("obs.events_per_op", "count", false),
    layer("obs.dropped_per_op", "count", false),
    layer("par.run_us_per_batch", "us", false),
    layer("par.speedup_t2", "ratio", true),
    layer("par.lane_dispatch_us", "us", false),
    layer("cosched.handoff_ns", "ns", false),
    layer("cosched.solo_ratio", "ratio", false),
    layer("tile.idle_flatness", "ratio", false),
    layer("ramulator.ns_per_req", "ns", false),
    // Simulated counts per op: exact, expected never to move.
    layer("sim.emulated_cycles", "cycles", false),
    layer("sim.instructions", "count", false),
    layer("sim.requests", "count", false),
    layer("sim.row_hit_rate", "share", true),
    layer("sim.dram_cmds", "count", false),
    layer("sim.targeted_refreshes", "count", false),
    layer("sim.lat_p50_cycles", "cycles", false),
    layer("sim.lat_p99_cycles", "cycles", false),
    layer("sim.timescale_err_pct", "%", false),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    fn manifest() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root")).unwrap()
    }

    fn check(listed: &[Value], table: &[Metric]) {
        assert_eq!(listed.len(), table.len());
        for (j, m) in listed.iter().zip(table) {
            assert_eq!(j.get("name").unwrap().as_str(), Some(m.name));
            assert_eq!(j.get("unit").unwrap().as_str(), Some(m.unit), "{}", m.name);
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(
                j.get("better").unwrap().as_str(),
                Some(better),
                "{}",
                m.name
            );
            assert_eq!(
                j.get("bound").and_then(Value::as_f64),
                m.bound,
                "{}",
                m.name
            );
        }
    }

    #[test]
    fn benchmark_json_states_the_same_contract() {
        let m = manifest();
        assert_eq!(
            m.get("run_seconds").unwrap().as_f64(),
            Some(RUN_SECONDS as f64)
        );
        let workloads = m.get("workloads").unwrap().as_arr().unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, (name, why)) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(j.get("name").unwrap().as_str(), Some(name));
            assert_eq!(j.get("why").unwrap().as_str(), Some(why));
            assert!(why.len() <= 200, "{name}");
        }
        check(m.get("end_to_end").unwrap().as_arr().unwrap(), &END_TO_END);
        check(m.get("per_layer").unwrap().as_arr().unwrap(), &PER_LAYER);
    }

    #[test]
    fn names_are_unique_and_match_the_workload_table() {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        assert_eq!(names, crate::workloads::NAMES);
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .chain(names)
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
    }
}
