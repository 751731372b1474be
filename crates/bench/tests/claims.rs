//! Every figure's claims hold at `Scale::QUICK`: the paper's statements
//! (and the extensions'), checked against the numbers the figure produces.
//! `repro all` checks the same claims at `Size::Paper`.

use std::sync::OnceLock;

use easydram_bench::{names, Claim, Figure, Scale, FIGURES};

/// Figure `name` at `Scale::QUICK`. Each entry of `FIGURES` runs once per
/// test binary, however many tests read its figures.
fn quick(name: &str) -> &'static Figure {
    static RUNS: [OnceLock<Vec<Figure>>; FIGURES.len()] =
        [const { OnceLock::new() }; FIGURES.len()];
    let i = FIGURES
        .iter()
        .position(|(names, _)| names.contains(&name))
        .expect("a figure of FIGURES");
    let (names, run) = FIGURES[i];
    let j = names.iter().position(|n| *n == name).expect("its place");
    &RUNS[i].get_or_init(|| run(Scale::QUICK))[j]
}

fn assert_hold<'a>(name: &str, claims: impl IntoIterator<Item = &'a Claim>) {
    let failed: Vec<String> = claims
        .into_iter()
        .filter(|c| !c.holds)
        .map(ToString::to_string)
        .collect();
    assert!(failed.is_empty(), "{name}:\n{}", failed.join("\n"));
}

fn assert_claims(name: &str) {
    let fig = quick(name);
    assert!(!fig.claims.is_empty(), "{name} makes no claim");
    assert_hold(name, &fig.claims);
}

macro_rules! claims {
    ($($name:ident,)*) => {
        $(
            #[test]
            fn $name() {
                assert_claims(stringify!($name));
            }
        )*

        #[test]
        fn every_figure_is_checked() {
            let names: Vec<&str> = names().collect();
            assert_eq!(names, [$(stringify!($name)),*]);
        }
    };
}

claims! {
    table1_platforms,
    validate_timescaling,
    fig8_latency_profile,
    fig10_rowclone_noflush,
    fig11_rowclone_clflush,
    fig12_trcd_heatmap,
    fig13_trcd_speedup,
    fig14_sim_speed,
    fig_channel_sweep,
    fig_multicore_contention,
    fig_rowhammer,
    fig_latency_cdf,
}

/// Fig. 10's Init claims on their own, from the same run: every Copy and
/// Init verifies, Copy beats Init and Ramulator over-reports Init at 256K,
/// and time-scaled Init falls back to the CPU on unclonable rows.
#[test]
fn fig10_init_ordering() {
    let name = "fig10_rowclone_noflush";
    let init: Vec<&Claim> = quick(name)
        .claims
        .iter()
        .filter(|c| c.text.contains("Init"))
        .collect();
    assert_eq!(init.len(), 4, "{init:#?}");
    assert_hold(name, init);
}
