//! One run of one workload: set-up, warm-up, the timed closed loop, the
//! correctness gate, and the metrics of the requested kind.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::json::{self, Value};
use crate::layers;
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::{median, peak_rss_mib, quantile, sorted};
use crate::workloads::{
    capture_cmd_streams, reference_checksums, run_op, run_op_traced, specs, stream_t2_spec,
    timescale_err_pct, variation_seed, OpResult, Recorder, SimSpec,
};

/// Set-up passes per untraced run; `setup_s` is their median. The first
/// pass opens the run and the others are spread evenly over it, between
/// ops: the host's slow stretches last seconds, and passes run back to back
/// would all fall into the same one.
const SETUP_PASSES: u32 = 8;
/// Untimed ops after the first set-up pass run for at least this long.
const WARMUP: Duration = Duration::from_secs(1);
/// A run never times fewer ops than this, so the quartiles exist.
const MIN_OPS: usize = 8;
/// A traced run alternates this many plain/traced op pairs at least.
const MIN_TRACED_PAIRS: usize = 4;

/// Everything set-up produces for the timed loop.
pub struct Prepared {
    pub specs: Vec<SimSpec>,
    pub refs: Vec<Vec<Option<f64>>>,
    /// The reference op: every later op must reproduce its digest.
    pub first: OpResult,
    /// Digest on file for this seed, when one is.
    pub expected: Option<u64>,
    /// Set-up's own checks held (kernel outputs; `stream_write_t2`: the
    /// two-thread digest equals the one-thread digest of the same op).
    pub ok: bool,
}

fn expected_path(seed: u64) -> String {
    format!("{}/expected/seed-{seed}.json", env!("CARGO_MANIFEST_DIR"))
}

fn load_expected(workload: &str, seed: u64) -> Option<u64> {
    let doc = json::parse(&std::fs::read_to_string(expected_path(seed)).ok()?).ok()?;
    let hex = doc.get("digests")?.get(workload)?.as_str()?;
    u64::from_str_radix(hex, 16).ok()
}

/// `--bless`: records `digest` as the expected digest of `workload` at
/// `seed`, keeping the file's other entries. Benchmark-PR-only.
pub fn bless(workload: &str, seed: u64, digest: u64) -> std::io::Result<()> {
    let mut digests: Vec<(String, String)> = std::fs::read_to_string(expected_path(seed))
        .ok()
        .and_then(|t| json::parse(&t).ok())
        .and_then(|d| d.get("digests").and_then(Value::as_obj).map(<[_]>::to_vec))
        .unwrap_or_default()
        .into_iter()
        .filter_map(|(k, v)| Some((k, v.as_str()?.to_string())))
        .filter(|(k, _)| k != workload)
        .collect();
    digests.push((workload.to_string(), format!("{digest:016x}")));
    digests.sort();
    let body: Vec<String> = digests
        .iter()
        .map(|(k, v)| format!("    {}: {}", json::quote(k), json::quote(v)))
        .collect();
    std::fs::write(
        expected_path(seed),
        format!(
            "{{\n  \"seed\": {seed},\n  \"digests\": {{\n{}\n  }}\n}}\n",
            body.join(",\n")
        ),
    )
}

/// One set-up pass: inputs from the seed, reference checksums on
/// `FixedLatencyBackend`, the expected digest, and the reference op.
pub fn prepare(workload: &str, seed: u64) -> Option<Prepared> {
    let specs = specs(workload, seed)?;
    let refs = reference_checksums(&specs);
    let expected = load_expected(workload, seed);
    let first = run_op(&specs, &refs);
    let mut ok = first.passed;
    if workload == "stream_write_t2" {
        // The repo's byte-identity contract: engine width never changes a
        // simulated statistic.
        let one = [stream_t2_spec(specs[0].cfg.dram.variation.seed, 1)];
        ok &= run_op(&one, &refs).digest() == first.digest();
    }
    Some(Prepared {
        specs,
        refs,
        first,
        expected,
        ok,
    })
}

/// One metric value with its unit.
pub struct Reading {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run hands back: the contract's result line plus diagnostics.
pub struct RunOutput {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Reading>,
    pub digest: u64,
    /// Interquartile range of the timed op times over their median: the
    /// run's own noise estimate, used by `compare`.
    pub op_ms_iqr_share: f64,
    /// Diagnostics, not end-to-end: they do not repeat within a tenth on a
    /// shared host. Lower quartile, median, p90, minimum and p10 of the
    /// plain op times, in that order.
    pub op_ms: [f64; 5],
}

impl RunOutput {
    /// The last line of standard output, exactly as the contract words it.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::quote(m.name),
                    json::num(m.value),
                    json::quote(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn readings(table: &'static [crate::spec::Metric], values: &[(&str, f64)]) -> Vec<Reading> {
    table
        .iter()
        .map(|m| Reading {
            name: m.name,
            unit: m.unit,
            value: values
                .iter()
                .find(|(n, _)| *n == m.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", m.name))
                .1,
        })
        .collect()
}

/// Whether `op` is what set-up established: own checks pass and the sim
/// digest equals the first op's and the one on file.
fn op_ok(op: &OpResult, prepared: &Prepared) -> bool {
    let d = op.digest();
    op.passed && d == prepared.first.digest() && prepared.expected.map_or(true, |e| e == d)
}

fn iqr_share(sorted_ms: &[f64]) -> f64 {
    (quantile(sorted_ms, 0.75) - quantile(sorted_ms, 0.25)) / quantile(sorted_ms, 0.5)
}

fn op_ms_summary(sorted_ms: &[f64]) -> [f64; 5] {
    [0.25, 0.5, 0.9, 0.0, 0.1].map(|p| quantile(sorted_ms, p))
}

/// Runs `workload` and measures the metrics of one kind: end-to-end with
/// `traced == false`, per-layer with `traced == true`.
pub fn run(workload: &str, seed: u64, seconds: u64, traced: bool) -> Option<RunOutput> {
    let t0 = Instant::now();
    let prepared = prepare(workload, seed)?;
    let mut setup_s = vec![t0.elapsed().as_secs_f64()];
    let mut setup_ok = prepared.ok;
    let warm = Instant::now();
    while warm.elapsed() < WARMUP {
        black_box(run_op(&prepared.specs, &prepared.refs));
    }

    let first = &prepared.first;
    let cycles_per_op = first.sum(|s| s.emulated_cycles) as f64;
    let reqs_per_op = first.sum(|s| s.requests) as f64;
    let budget = Duration::from_secs(seconds);

    if !traced {
        // Closed loop, one client: the next op starts when the last ends.
        // The budget counts op time only.
        let (mut op_ms, mut failed) = (Vec::new(), 0u64);
        let mut timed = Duration::ZERO;
        while op_ms.len() < MIN_OPS || timed < budget {
            if timed >= budget * setup_s.len() as u32 / SETUP_PASSES {
                let t0 = Instant::now();
                let again = prepare(workload, seed)?;
                setup_s.push(t0.elapsed().as_secs_f64());
                setup_ok &= again.ok && again.first == prepared.first;
            }
            let t0 = Instant::now();
            let op = run_op(&prepared.specs, &prepared.refs);
            let dt = t0.elapsed();
            timed += dt;
            op_ms.push(dt.as_secs_f64() * 1e3);
            failed += u64::from(!op_ok(&op, &prepared));
        }
        let ms = sorted(op_ms);
        // The fastest op: the host's interference only ever adds time, and
        // when a neighbour slows a whole run by half, only a handful of its
        // ops escape (README, "Noise").
        let min_s = ms[0] / 1e3;
        let values = [
            ("emu_mcycles_per_host_s", cycles_per_op / 1e6 / min_s),
            ("mem_kreqs_per_host_s", reqs_per_op / 1e3 / min_s),
            ("peak_rss_mib", peak_rss_mib()),
            ("setup_s", median(setup_s)),
        ];
        return Some(RunOutput {
            correct: setup_ok && failed == 0,
            attempted: ms.len() as u64,
            failed,
            metrics: readings(&END_TO_END, &values),
            digest: first.digest(),
            op_ms_iqr_share: iqr_share(&ms),
            op_ms: op_ms_summary(&ms),
        });
    }

    // Traced run. Plain and wrapped ops alternate for about half the budget,
    // so both see the same interference; the rest pays for the replay and
    // the micro-timings.
    let mut rec = Recorder::new();
    let timer_ns = rec.clock.read_ns;
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let mut failed = 0u64;
    let start = Instant::now();
    while plain_ms.len() < MIN_TRACED_PAIRS || start.elapsed() < budget / 2 {
        let t0 = Instant::now();
        let op = run_op(&prepared.specs, &prepared.refs);
        plain_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        failed += u64::from(!op_ok(&op, &prepared));
        // Observer freedom: the wrapped op must reproduce the same digest.
        let (op, ns) = run_op_traced(&prepared.specs, &prepared.refs, &mut rec);
        traced_ms.push(ns as f64 / 1e6);
        failed += u64::from(!op_ok(&op, &prepared));
    }
    let attempted = (plain_ms.len() + traced_ms.len()) as u64;
    // Each wrapped op against the plain op run just before it: the host's
    // slow phases last seconds, so they cancel within a pair.
    let overhead = median(
        plain_ms
            .iter()
            .zip(&traced_ms)
            .map(|(p, t)| t / p)
            .collect(),
    );
    let plain_ms = sorted(plain_ms);

    let totals = rec.totals;
    let ops = totals.ops as f64;
    let (core_ns, tile_ns, smc_ns) = totals.self_ns(timer_ns);
    let op_ns = rec.op_ns as f64;
    let instructions = first.sum(|s| s.instructions) as f64;
    // Co-runs cannot wrap the tile: their core and tile spans read 0.
    let wrapped = |v: f64| if rec.tile_unwrapped { 0.0 } else { v };

    let streams = capture_cmd_streams(&prepared.specs);
    let replay = layers::replay(&streams, prepared.specs[0].cfg.mapping);
    drop(streams);
    let micro = layers::micro();
    let cross = layers::cross_workload(variation_seed(seed));
    let ts_err = timescale_err_pct(&prepared.specs, &prepared.refs);

    let hits = first.sum(|s| s.row_hits) as f64;
    let outcomes = hits + first.sum(|s| s.row_misses + s.row_conflicts) as f64;
    let values = [
        ("cpu_core.self_share", wrapped(core_ns / op_ns)),
        (
            "cpu_core.self_ns_per_instr",
            wrapped(core_ns / ops / instructions),
        ),
        ("tile.self_share", wrapped(tile_ns / op_ns)),
        ("tile.self_ns_per_req", wrapped(tile_ns / ops / reqs_per_op)),
        ("tile.calls_per_op", totals.tile_spans as f64 / ops),
        (
            "tile.reqs_per_pass",
            reqs_per_op * ops / (totals.smc_spans as f64).max(1.0),
        ),
        (
            "smc.span_share",
            (totals.smc_covered_ns as f64 - timer_ns * totals.smc_spans as f64).max(0.0) / op_ns,
        ),
        ("smc.span_ns_per_req", smc_ns / ops / reqs_per_op),
        ("smc.passes_per_op", totals.smc_spans as f64 / ops),
        ("harness.tracing_overhead_ratio", overhead),
        ("harness.timer_ns", timer_ns),
        ("harness.op_ms_p50", quantile(&plain_ms, 0.5)),
        ("harness.op_ms_p90", quantile(&plain_ms, 0.9)),
        ("bender.run_ns_per_cmd", replay.bender_run_ns_per_cmd),
        ("dram_device.issue_ns_per_cmd", replay.issue_ns_per_cmd),
        ("dram_device.line_rw_ns", replay.line_rw_ns),
        (
            "dram_bank.legal_apply_ns_per_cmd",
            replay.legal_apply_ns_per_cmd,
        ),
        ("dram_bank.earliest_ns_per_cmd", replay.earliest_ns_per_cmd),
        ("dram_address.to_dram_ns", replay.to_dram_ns),
        ("timeline.price_ns", replay.price_ns),
        ("cpu_cache.lookup_insert_ns", micro.cache_lookup_insert_ns),
        (
            "cpu_core.fixed_backend_ns_per_instr",
            micro.fixed_backend_ns_per_instr,
        ),
        ("system.new_us", micro.system_new_us),
        ("report.merge_ns", micro.merge_ns),
        ("report.system_report_us", micro.system_report_us),
        ("obs.ring_push_ns", micro.ring_push_ns),
        ("obs.hist_record_ns", micro.hist_record_ns),
        (
            "obs.export_chrome_ns_per_event",
            cross.export_chrome_ns_per_event,
        ),
        (
            "obs.export_binary_ns_per_event",
            cross.export_binary_ns_per_event,
        ),
        ("obs.events_per_op", cross.events_per_op),
        ("obs.dropped_per_op", cross.dropped_per_op),
        ("par.run_us_per_batch", micro.pool_run_us_per_batch),
        ("par.speedup_t2", cross.speedup_t2),
        ("par.lane_dispatch_us", cross.lane_dispatch_us),
        ("cosched.handoff_ns", micro.handoff_ns),
        ("cosched.solo_ratio", cross.solo_ratio),
        ("tile.idle_flatness", micro.idle_flatness),
        ("ramulator.ns_per_req", micro.ramulator_ns_per_req),
        ("sim.emulated_cycles", cycles_per_op),
        ("sim.instructions", instructions),
        ("sim.requests", reqs_per_op),
        ("sim.row_hit_rate", hits / outcomes.max(1.0)),
        ("sim.dram_cmds", first.sum(|s| s.dram_cmds()) as f64),
        (
            "sim.targeted_refreshes",
            first.sum(|s| s.targeted_refreshes) as f64,
        ),
        (
            "sim.lat_p50_cycles",
            first.sims.iter().map(|s| s.lat_p50).max().unwrap_or(0) as f64,
        ),
        (
            "sim.lat_p99_cycles",
            first.sims.iter().map(|s| s.lat_p99).max().unwrap_or(0) as f64,
        ),
        ("sim.timescale_err_pct", ts_err),
    ];
    Some(RunOutput {
        correct: setup_ok && failed == 0,
        attempted,
        failed,
        metrics: readings(&PER_LAYER, &values),
        digest: first.digest(),
        op_ms_iqr_share: iqr_share(&plain_ms),
        op_ms: op_ms_summary(&plain_ms),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let out = RunOutput {
            correct: true,
            attempted: 9,
            failed: 0,
            metrics: vec![Reading {
                name: "setup_s",
                value: 0.8127,
                unit: "s",
            }],
            digest: 1,
            op_ms_iqr_share: 0.0,
            op_ms: [0.0; 5],
        };
        let v = json::parse(&out.result_line()).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = v.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(0.8127));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("s"));
    }

    #[test]
    fn an_unknown_workload_is_refused() {
        assert!(prepare("nope", 1).is_none());
    }
}
