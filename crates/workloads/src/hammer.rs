//! RowHammer attack kernels with a built-in victim-row integrity checker.
//!
//! Each kernel is an ordinary [`CpuApi`] program — the attacker code a real
//! RowHammer study runs on the evaluated platform. It (1) writes a
//! deterministic pattern into a victim row and flushes it to DRAM, (2)
//! hammers the aggressor rows with load + `clflush` pairs so every access
//! re-activates the row, and (3) reads the victim back and counts flipped
//! bits. The three classic shapes are provided:
//!
//! * **single-sided** — one aggressor adjacent to the victim, alternated
//!   with a far decoy row of the same bank (under an open-page controller a
//!   lone aggressor would stay row-buffer-resident and never re-activate);
//! * **double-sided** — both rows adjacent to the victim, the strongest
//!   classic pattern;
//! * **many-sided** — `n` aggressors surrounding the victim (TRRespass-style
//!   spray), exercising the full ±2 blast radius.
//!
//! [`HammerKernel::in_bank`] places the rows from the target system's
//! [`Geometry`]/[`MappingScheme`], so the same kernel drives any rig.

use easydram_cpu::CpuApi;
use easydram_dram::det::hash_coords;
use easydram_dram::{AddressMapper, DramAddress, Geometry, MappingScheme};

use crate::Workload;

/// Which aggressor shape the kernel hammers with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HammerPattern {
    /// One adjacent aggressor plus a far same-bank decoy row.
    SingleSided,
    /// Both rows adjacent to the victim.
    DoubleSided,
    /// `n` aggressors closest to the victim (±1, ±2, then a same-bank
    /// spray), capped at 8.
    ManySided(u32),
}

impl HammerPattern {
    fn label(self) -> &'static str {
        match self {
            HammerPattern::SingleSided => "hammer-single",
            HammerPattern::DoubleSided => "hammer-double",
            HammerPattern::ManySided(_) => "hammer-many",
        }
    }
}

/// Deterministic victim-fill word for `(line, word)` — routed through the
/// shared [`easydram_dram::det`] hashing so runs reproduce everywhere.
fn victim_word(line: u64, word: u64) -> u64 {
    hash_coords(0xEA5D_11A3, b"hammer-victim", &[line, word])
}

/// The attack/integrity workload.
#[derive(Debug, Clone)]
pub struct HammerKernel {
    /// Physical line address (column 0) of each aggressor row, in hammer
    /// order.
    aggressors: Vec<u64>,
    /// Physical line addresses of the victim row (every cache line).
    victim_lines: Vec<u64>,
    pattern: HammerPattern,
    iterations: u64,
    bit_flips: Option<u64>,
    measured_cycles: Option<u64>,
}

impl HammerKernel {
    /// Plans an attack on `victim_row` of `bank` (channel 0) for a system
    /// with the given geometry and mapping scheme, hammering each aggressor
    /// `iterations` times (one activation per aggressor per iteration).
    ///
    /// # Panics
    ///
    /// Panics if the victim sits too close to the bank edge for the chosen
    /// pattern, or outside the geometry, or if `iterations` is zero.
    #[must_use]
    pub fn in_bank(
        geometry: &Geometry,
        scheme: MappingScheme,
        bank: u32,
        victim_row: u32,
        pattern: HammerPattern,
        iterations: u64,
    ) -> Self {
        assert!(iterations > 0, "an attack needs at least one activation");
        let mapper = AddressMapper::new(geometry.clone(), scheme);
        let row_addr = |row: u32| mapper.to_phys(DramAddress::new(bank, row, 0));
        let aggressors = match pattern {
            HammerPattern::SingleSided => {
                // The decoy forces a row conflict on every aggressor access;
                // it sits far outside the blast radius so only the ±1
                // neighborhood of the aggressor is disturbed.
                let decoy = if victim_row + 64 < geometry.rows_per_bank {
                    victim_row + 64
                } else {
                    victim_row - 64
                };
                vec![row_addr(victim_row + 1), row_addr(decoy)]
            }
            HammerPattern::DoubleSided => {
                vec![row_addr(victim_row - 1), row_addr(victim_row + 1)]
            }
            HammerPattern::ManySided(n) => {
                let n = n.clamp(2, 8);
                let mut rows = vec![
                    victim_row - 1,
                    victim_row + 1,
                    victim_row - 2,
                    victim_row + 2,
                ];
                // Beyond the blast radius the spray adds activation pressure
                // on the bank without disturbing this victim further.
                let mut d = 3;
                while (rows.len() as u32) < n {
                    rows.push(victim_row + d);
                    d += 1;
                }
                rows.truncate(n as usize);
                rows.into_iter().map(row_addr).collect()
            }
        };
        let victim_lines = (0..geometry.cols_per_row())
            .map(|col| mapper.to_phys(DramAddress::new(bank, victim_row, col)))
            .collect();
        Self {
            aggressors,
            victim_lines,
            pattern,
            iterations,
            bit_flips: None,
            measured_cycles: None,
        }
    }

    /// Victim bits flipped by the attack, once run. 0 means the device (or
    /// an installed mitigation) held.
    #[must_use]
    pub fn bit_flips(&self) -> Option<u64> {
        self.bit_flips
    }

    /// Activations issued per aggressor row.
    #[must_use]
    pub fn iterations(&self) -> u64 {
        self.iterations
    }
}

impl Workload for HammerKernel {
    fn name(&self) -> &str {
        self.pattern.label()
    }

    fn run(&mut self, cpu: &mut dyn CpuApi) {
        // 1) Seed the victim row and push it to DRAM.
        cpu.stream_begin();
        for (li, &line) in self.victim_lines.iter().enumerate() {
            for w in 0..8u64 {
                cpu.store_u64(line + w * 8, victim_word(li as u64, w));
            }
        }
        cpu.stream_end();
        for &line in &self.victim_lines {
            cpu.clflush(line);
        }
        cpu.fence();

        // 2) The hammer loop: every access misses the cache (the line is
        // flushed right after the load) and conflicts in the row buffer
        // (aggressors alternate), so each one costs a full ACT.
        let t0 = cpu.now_cycles();
        for _ in 0..self.iterations {
            for &aggr in &self.aggressors {
                let _ = cpu.load_u64(aggr);
                cpu.clflush(aggr);
            }
        }
        cpu.fence();
        self.measured_cycles = Some(cpu.now_cycles() - t0);

        // 3) Integrity check: the victim lines were never cached since the
        // fence, so these loads read the (possibly disturbed) DRAM array.
        let mut flips = 0u64;
        for (li, &line) in self.victim_lines.iter().enumerate() {
            for w in 0..8u64 {
                let got = cpu.load_u64(line + w * 8);
                flips += u64::from((got ^ victim_word(li as u64, w)).count_ones());
            }
        }
        self.bit_flips = Some(flips);
    }

    fn measured_cycles(&self) -> Option<u64> {
        self.measured_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easydram_cpu::{CoreConfig, CoreModel, FixedLatencyBackend};
    use easydram_dram::DramConfig;

    fn small() -> Geometry {
        DramConfig::small_for_tests().geometry
    }

    #[test]
    fn plans_target_the_right_rows() {
        let g = small();
        let scheme = MappingScheme::RowColBankXor;
        let mapper = AddressMapper::new(g.clone(), scheme);
        let kernel = HammerKernel::in_bank(&g, scheme, 0, 100, HammerPattern::DoubleSided, 1);
        let rows: Vec<u32> = kernel
            .aggressors
            .iter()
            .map(|&a| mapper.to_dram(a).row)
            .collect();
        assert_eq!(rows, vec![99, 101]);
        assert_eq!(kernel.victim_lines.len() as u32, g.cols_per_row());
        assert!(kernel
            .victim_lines
            .iter()
            .all(|&v| mapper.to_dram(v).row == 100 && mapper.to_dram(v).bank == 0));
    }

    #[test]
    fn single_sided_brings_a_far_decoy() {
        let g = small();
        let scheme = MappingScheme::RowColBankXor;
        let mapper = AddressMapper::new(g.clone(), scheme);
        let kernel = HammerKernel::in_bank(&g, scheme, 1, 100, HammerPattern::SingleSided, 1);
        let rows: Vec<u32> = kernel
            .aggressors
            .iter()
            .map(|&a| mapper.to_dram(a).row)
            .collect();
        assert_eq!(rows, vec![101, 164]);
        assert!(
            kernel
                .aggressors
                .iter()
                .all(|&a| mapper.to_dram(a).bank == 1),
            "decoy stays in the bank"
        );
    }

    #[test]
    fn many_sided_covers_the_blast_radius() {
        let g = small();
        let scheme = MappingScheme::RowColBankXor;
        let mapper = AddressMapper::new(g.clone(), scheme);
        let kernel = HammerKernel::in_bank(&g, scheme, 0, 200, HammerPattern::ManySided(6), 1);
        let rows: Vec<u32> = kernel
            .aggressors
            .iter()
            .map(|&a| mapper.to_dram(a).row)
            .collect();
        assert_eq!(rows, vec![199, 201, 198, 202, 203, 204]);
    }

    #[test]
    fn kernel_reports_zero_flips_on_an_undisturbed_backend() {
        // FixedLatencyBackend is a plain memory: whatever the hammer loop
        // does, the victim pattern must read back intact.
        let mut cpu = CoreModel::new(CoreConfig::cortex_a57(), FixedLatencyBackend::new(100));
        let g = small();
        let mut k = HammerKernel::in_bank(
            &g,
            MappingScheme::RowColBankXor,
            0,
            100,
            HammerPattern::DoubleSided,
            50,
        );
        k.run(&mut cpu);
        assert_eq!(k.bit_flips(), Some(0));
        assert!(k.measured_cycles().unwrap() > 0);
        assert_eq!(k.name(), "hammer-double");
    }
}
