//! Property-based tests on the DRAM substrate's core invariants.

use proptest::prelude::*;

use easydram_dram::bank::RankTiming;
use easydram_dram::{
    AddressMapper, CmdOutcome, DramAddress, DramCommand, DramConfig, DramDevice, Geometry,
    MappingScheme, TimingParams, VariationConfig, VariationModel,
};

/// Issues `cmd` at `at`, asserting that it violates no timing rule.
fn issue_legal(dev: &mut DramDevice, cmd: DramCommand, at: u64) -> CmdOutcome {
    let out = dev.issue_raw(cmd, at).unwrap();
    assert!(
        out.violations.is_empty(),
        "{cmd} @ {at}: {:?}",
        out.violations
    );
    out
}

fn any_scheme() -> impl Strategy<Value = MappingScheme> {
    Just(MappingScheme::RowColBankXor)
}

proptest! {
    /// Address mapping is a bijection over the rank capacity.
    #[test]
    fn mapper_round_trips(scheme in any_scheme(), line in 0u64..(1 << 22)) {
        let m = AddressMapper::new(Geometry::default(), scheme);
        let phys = line << 6;
        let d = m.to_dram(phys);
        prop_assert!(d.bank < 16);
        prop_assert!(d.row < 32_768);
        prop_assert!(d.col < 128);
        prop_assert_eq!(m.to_phys(d), phys);
    }

    /// Distinct lines within capacity map to distinct DRAM coordinates.
    #[test]
    fn mapper_is_injective(scheme in any_scheme(), a in 0u64..(1 << 22), b in 0u64..(1 << 22)) {
        prop_assume!(a != b);
        let m = AddressMapper::new(Geometry::default(), scheme);
        prop_assert_ne!(m.to_dram(a << 6), m.to_dram(b << 6));
    }

    /// Address mapping stays a bijection with channel and rank interleave
    /// bits in play: every {1,2,4} channels × {1,2} ranks geometry
    /// round-trips, stays in range, and rotates consecutive lines across
    /// channels.
    #[test]
    fn mapper_round_trips_multi_channel_rank(
        scheme in any_scheme(),
        ch_idx in 0usize..3,
        rank_idx in 0usize..2,
        line in 0u64..(1 << 22),
    ) {
        let channels = [1u32, 2, 4][ch_idx];
        let ranks = [1u32, 2][rank_idx];
        let g = Geometry { channels, ranks, ..Geometry::default() };
        let m = AddressMapper::new(g.clone(), scheme);
        let phys = line << 6;
        let d = m.to_dram(phys);
        prop_assert!(d.channel < channels);
        prop_assert!(d.bank < g.banks_per_channel());
        prop_assert!(d.row < g.rows_per_bank);
        prop_assert!(d.col < g.cols_per_row());
        prop_assert_eq!(d.channel as u64, line % u64::from(channels), "line interleave");
        prop_assert_eq!(m.to_phys(d), phys);
    }

    /// `earliest_issue_ps` is exactly the legality boundary: legal at the
    /// returned time, illegal one picosecond earlier (when constrained).
    #[test]
    fn earliest_issue_is_tight(
        bank in 0u32..2,
        row in 0u32..64,
        col in 0u32..16,
        gap in 0u64..60_000,
    ) {
        let g = DramConfig::small_for_tests().geometry;
        let mut r = RankTiming::new(g, TimingParams::ddr4_1333());
        r.apply(&DramCommand::Activate { bank, row }, 0);
        r.apply(&DramCommand::Read { bank, col }, 13_500 + gap);
        for cmd in [
            DramCommand::Read { bank, col: (col + 1) % 16 },
            DramCommand::Precharge { bank },
            DramCommand::Activate { bank: bank ^ 1, row },
        ] {
            let e = r.earliest_issue_ps(&cmd);
            prop_assert!(r.check(&cmd, e).is_empty(), "{cmd} illegal at its earliest {e}");
            if e > 0 {
                prop_assert!(
                    !r.check(&cmd, e - 1).is_empty(),
                    "{cmd} already legal before earliest {e}"
                );
            }
        }
    }

    /// Legal write-then-read always round-trips data exactly.
    #[test]
    fn legal_write_read_round_trip(
        bank in 0u32..2,
        row in 0u32..1024,
        col in 0u32..128,
        payload in prop::array::uniform32(any::<u8>()),
    ) {
        let mut dev = DramDevice::new(DramConfig::small_for_tests());
        let t = dev.timing().clone();
        let mut line = [0u8; 64];
        line[..32].copy_from_slice(&payload);
        let base = dev.now_ps();
        issue_legal(&mut dev, DramCommand::Activate { bank, row }, base);
        issue_legal(&mut dev, DramCommand::Write { bank, col, data: line }, base + t.t_rcd_ps);
        let rd_at = base + t.t_rcd_ps + t.t_cwl_ps + t.t_burst_ps + t.t_wtr_ps;
        let out = issue_legal(&mut dev, DramCommand::Read { bank, col }, rd_at);
        prop_assert_eq!(out.read_data, Some(line));
        prop_assert!(!out.read_corrupted);
    }

    /// The variation field is stable and bounded: below nominal, above the
    /// floor, and identical on repeated query.
    #[test]
    fn variation_bounds(bank in 0u32..16, row in 0u32..32_768, col in 0u32..128) {
        let v = VariationModel::new(VariationConfig::default(), Geometry::default());
        let a = v.line_min_trcd_ps(bank, row, col);
        let b = v.line_min_trcd_ps(bank, row, col);
        prop_assert_eq!(a, b);
        prop_assert!(a >= 8_200);
        prop_assert!(a < 13_500);
        // Row minimum dominates each of its lines.
        prop_assert!(v.row_min_trcd_ps(bank, row) >= a);
    }

    /// Reads at or above a line's minimum reliable tRCD are always correct.
    #[test]
    fn reads_at_threshold_are_reliable(
        bank in 0u32..4,
        row in 0u32..4096,
        col in 0u32..128,
        nonce in any::<u64>(),
        slack in 0u64..5_000,
    ) {
        let v = VariationModel::new(VariationConfig::default(), Geometry::default());
        let min = v.line_min_trcd_ps(bank, row, col);
        prop_assert!(v.read_ok(bank, row, col, min + slack, nonce));
    }

    /// RowClone attempts never cross subarrays successfully.
    #[test]
    fn rowclone_never_crosses_subarrays(
        bank in 0u32..16,
        src in 0u32..32_768,
        dst in 0u32..32_768,
        nonce in any::<u64>(),
    ) {
        let g = Geometry::default();
        prop_assume!(g.subarray_of(src) != g.subarray_of(dst));
        let v = VariationModel::new(VariationConfig::default(), g);
        prop_assert!(!v.rowclone_ok(bank, src, dst, nonce));
    }

    /// Hammer-window counters count every ACT and reset exactly at each
    /// refresh boundary: k activations before a REF leave a count of k, the
    /// REF zeroes it, and m activations after leave exactly m.
    #[test]
    fn hammer_window_resets_exactly_at_refresh(
        row in 5u32..120,
        k in 1u64..40,
        m in 1u64..40,
    ) {
        let mut cfg = DramConfig::small_for_tests();
        cfg.variation.disturb_enabled = true;
        cfg.variation.hc_first = (1_000, 2_000); // never exceeded here
        let mut dev = DramDevice::new(cfg);
        let t = dev.timing().clone();
        let mut now = 0u64;
        let act_pre = |dev: &mut DramDevice, n: u64, now: &mut u64| {
            for _ in 0..n {
                dev.issue_raw(DramCommand::Activate { bank: 0, row }, *now).unwrap();
                *now += t.t_ras_ps;
                dev.issue_raw(DramCommand::Precharge { bank: 0 }, *now).unwrap();
                *now += t.t_rp_ps;
            }
        };
        act_pre(&mut dev, k, &mut now);
        prop_assert_eq!(dev.hammer_count(0, row), k);
        dev.issue_raw(DramCommand::Refresh, now).unwrap();
        now += t.t_rfc_ps;
        prop_assert_eq!(dev.hammer_count(0, row), 0, "REF closes the window");
        act_pre(&mut dev, m, &mut now);
        prop_assert_eq!(dev.hammer_count(0, row), m, "fresh window counts from zero");
    }

    /// Blast-radius safety: hammering one row never flips bits outside its
    /// ±2-row neighborhood, and flips nothing anywhere while the window
    /// count stays at or below the row's `HCfirst`.
    #[test]
    fn blast_radius_never_exceeds_two_rows_or_fires_below_threshold(
        row in 10u32..110,
        extra in 0u64..40,
    ) {
        let mut cfg = DramConfig::small_for_tests();
        cfg.variation.disturb_enabled = true;
        cfg.variation.hc_first = (8, 16);
        cfg.variation.disturb_flip_milli = 400; // flips arrive fast past HCfirst
        let mut dev = DramDevice::new(cfg);
        let t = dev.timing().clone();
        let hc = dev.variation().hc_first(0, row);
        let zero = vec![0u8; 8192];
        let lo = row - 5;
        let hi = row + 5;
        for r in lo..=hi {
            dev.write_row(0, r, &zero);
        }
        // Phase 1: stay at the threshold — nothing may flip anywhere.
        let mut now = 0u64;
        for _ in 0..hc {
            dev.issue_raw(DramCommand::Activate { bank: 0, row }, now).unwrap();
            now += t.t_ras_ps;
            dev.issue_raw(DramCommand::Precharge { bank: 0 }, now).unwrap();
            now += t.t_rp_ps;
        }
        prop_assert_eq!(dev.stats().disturbance_flips, 0, "at-threshold is safe");
        for r in lo..=hi {
            prop_assert!(dev.row_data(0, r).iter().all(|&b| b == 0), "row {} clean", r);
        }
        // Phase 2: exceed it — damage stays inside ±2 rows (and inside the
        // hammered row's subarray).
        for _ in 0..extra {
            dev.issue_raw(DramCommand::Activate { bank: 0, row }, now).unwrap();
            now += t.t_ras_ps;
            dev.issue_raw(DramCommand::Precharge { bank: 0 }, now).unwrap();
            now += t.t_rp_ps;
        }
        for r in lo..=hi {
            let clean = dev.row_data(0, r).iter().all(|&b| b == 0);
            if r.abs_diff(row) == 0 || r.abs_diff(row) > easydram_dram::BLAST_RADIUS {
                prop_assert!(clean, "row {} outside the blast radius was flipped", r);
            }
        }
    }

    /// Raw issue never panics and always reports violations consistently
    /// with the checker.
    #[test]
    fn raw_issue_is_total(
        cmds in prop::collection::vec(
            (0u32..2, 0u32..1024, 0u32..128, 0u8..4, 1u64..40_000),
            1..20,
        ),
    ) {
        let mut dev = DramDevice::new(DramConfig::small_for_tests());
        let mut t = 0u64;
        for (bank, row, col, kind, dt) in cmds {
            t += dt;
            let cmd = match kind {
                0 => DramCommand::Activate { bank, row },
                1 => DramCommand::Precharge { bank },
                2 => DramCommand::Read { bank, col },
                _ => DramCommand::Write { bank, col, data: [0xAA; 64] },
            };
            let out = dev.issue_raw(cmd, t).unwrap();
            prop_assert!(out.completion_ps >= t);
        }
    }

    /// The static contradiction checker is sound on generated configs: a
    /// verdict of Ok means the closed-rule inequalities really hold (and the
    /// checked table builds); every rejection names a rule whose inequality
    /// genuinely fails for the offending parameters.
    #[test]
    fn consistency_checker_is_sound_on_generated_configs(
        base in 0usize..2,
        field in 0usize..8,
        scale in 0usize..4,
    ) {
        use easydram_dram::ConfigRule;
        let mut t = if base == 0 {
            TimingParams::ddr4_1333()
        } else {
            TimingParams::ddr4_2400()
        };
        {
            let f = [
                &mut t.t_faw_ps,
                &mut t.t_rrd_l_ps,
                &mut t.t_ccd_l_ps,
                &mut t.t_refi_ps,
                &mut t.t_refw_ps,
                &mut t.t_ras_ps,
                &mut t.t_rfm_ps,
                &mut t.t_ck_ps,
            ];
            let v = *f[field];
            *f[field] = match scale {
                0 => 0,
                1 => v / 4,
                2 => v,
                _ => v.saturating_mul(16),
            };
        }
        let verdict = t.check_consistency();
        // Deterministic: same params, same verdict.
        prop_assert_eq!(&verdict, &t.check_consistency());
        match verdict {
            Ok(()) => {
                prop_assert!(t.t_ck_ps > 0 && t.t_burst_ps > 0);
                prop_assert!(t.t_ras_ps >= t.t_rcd_ps);
                prop_assert!(t.t_faw_ps >= 4 * t.t_rrd_s_ps);
                prop_assert!(t.t_rrd_l_ps >= t.t_rrd_s_ps);
                prop_assert!(t.t_ccd_l_ps >= t.t_ccd_s_ps);
                prop_assert!(t.t_refi_ps > t.t_rfc_ps + t.t_rp_ps);
                prop_assert!(t.t_refw_ps >= t.t_refi_ps);
                prop_assert!(t.t_rfm_ps == 0 || t.t_rfm_ps >= t.t_rp_ps);
            }
            Err(errs) => {
                prop_assert!(!errs.is_empty());
                for c in errs {
                    let holds = match c.rule {
                        ConfigRule::ZeroClock => t.t_ck_ps == 0 || t.t_burst_ps == 0,
                        ConfigRule::RasVsRcd => t.t_ras_ps < t.t_rcd_ps,
                        ConfigRule::FawWindow => t.t_faw_ps < 4 * t.t_rrd_s_ps,
                        ConfigRule::RrdScope => t.t_rrd_l_ps < t.t_rrd_s_ps,
                        ConfigRule::CcdScope => t.t_ccd_l_ps < t.t_ccd_s_ps,
                        ConfigRule::RefreshInterval => t.t_refi_ps <= t.t_rfc_ps + t.t_rp_ps,
                        ConfigRule::RefreshWindow => t.t_refw_ps < t.t_refi_ps,
                        ConfigRule::RfmVsRp => t.t_rfm_ps != 0 && t.t_rfm_ps < t.t_rp_ps,
                        // Overflow/coverage rules are unreachable from the
                        // saturating perturbations above.
                        other => return Err(TestCaseError::fail(format!(
                            "unexpected rule {other:?} from a bounded perturbation"
                        ))),
                    };
                    prop_assert!(holds, "{} reported but its inequality holds", c.rule.id());
                }
            }
        }
    }
}

/// A sanity anchor outside proptest: the DRAM address of a remembered
/// pattern survives arbitrary interleaved traffic to other rows.
#[test]
fn data_is_isolated_across_rows() {
    let mut dev = DramDevice::new(DramConfig::small_for_tests());
    let marker = vec![0x5Au8; 8192];
    dev.write_row(1, 100, &marker);
    let t = dev.timing().clone();
    let mut now = dev.now_ps();
    for row in 0..32u32 {
        now += t.t_ras_ps + t.t_rp_ps;
        dev.issue_raw(DramCommand::Activate { bank: 1, row }, now)
            .unwrap();
        now += t.t_ras_ps;
        dev.issue_raw(DramCommand::Precharge { bank: 1 }, now)
            .unwrap();
    }
    assert_eq!(dev.row_data(1, 100), marker.as_slice());
    let m = AddressMapper::new(dev.config().geometry.clone(), MappingScheme::RowColBankXor);
    let d = DramAddress::new(1, 100, 0);
    assert_eq!(m.to_dram(m.to_phys(d)), d);
}
