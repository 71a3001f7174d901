//! Cut-threshold studies: Figures 12 (damage rate over time), 13 (errors vs
//! CT), and 14 (damage recovery time vs CT).

use super::par_map;
use crate::output::{f, pct, Table};
use crate::scenario::{DefenseKind, ExpOptions, Scenario};

/// Averaged outcome of one cut-threshold setting.
#[derive(Debug, Clone, PartialEq)]
pub struct CtRow {
    pub cut_threshold: f64,
    /// Good peers wrongly disconnected (paper's false negative), mean.
    pub false_negative: f64,
    /// Attackers still connected at run end (paper's false positive), mean.
    pub false_positive: f64,
    /// Sum (paper's false judgment), mean.
    pub false_judgment: f64,
    /// Damage recovery time in ticks, mean over replicates that recovered.
    pub recovery_ticks: Option<f64>,
    /// Stabilized damage rate.
    pub stable_damage: f64,
}

fn ct_scenario(opts: &ExpOptions, ct: f64, seed: u64) -> Scenario {
    Scenario::builder()
        .peers(opts.peers)
        .ticks(opts.ticks)
        .attackers(opts.agents)
        .defense(DefenseKind::DdPolice { cut_threshold: ct })
        .seed(seed)
        .build()
}

/// Sweep the cut threshold with `opts.agents` attackers, averaging
/// `opts.replicates` seeds per point. With `--checkpoint-every` set, each
/// (CT, replicate) pair checkpoints under a deterministic stem so a killed
/// sweep resumes with `--resume` — to bit-identical rows.
pub fn ct_sweep(opts: &ExpOptions, cts: &[f64]) -> Vec<CtRow> {
    // Paired comparison: every CT value sees the same topologies, workloads
    // and churn (seed depends only on the replicate), so the curves isolate
    // the threshold's effect rather than run-to-run variance.
    par_map(cts, |_, &ct| {
        let mut fneg = 0.0;
        let mut fpos = 0.0;
        let mut damages = 0.0;
        let mut recoveries = Vec::new();
        for r in 0..opts.replicates {
            let scenario = ct_scenario(opts, ct, opts.seed_for(0, r));
            let dr = match opts.checkpoint_stem(&format!("ct{ct}_r{r}")) {
                Some(stem) => {
                    scenario.run_with_damage_checkpointed(&stem, opts.checkpoint_every, opts.resume)
                }
                None => scenario.run_with_damage(),
            };
            fneg += dr.attacked.summary.errors.false_negative as f64;
            fpos += dr.attacked.summary.errors.false_positive as f64;
            damages += dr.stable_damage();
            if let Some(t) = dr.recovery_ticks {
                recoveries.push(t as f64);
            }
        }
        let n = opts.replicates.max(1) as f64;
        CtRow {
            cut_threshold: ct,
            false_negative: fneg / n,
            false_positive: fpos / n,
            false_judgment: (fneg + fpos) / n,
            recovery_ticks: if recoveries.is_empty() {
                None
            } else {
                Some(recoveries.iter().sum::<f64>() / recoveries.len() as f64)
            },
            stable_damage: damages / n,
        }
    })
}

/// The default CT grid of Figures 13/14.
pub const CT_GRID: [f64; 9] = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 9.0, 12.0];

/// Figure 12: damage rate over time for no defense and CT ∈ {3, 7, 10}.
pub fn fig12(opts: &ExpOptions) -> Table {
    let cts = [3.0, 7.0, 10.0];
    let mut runs: Vec<(String, Vec<f64>)> = Vec::new();
    // Undefended reference.
    let run_pair = |scenario: &Scenario, name: &str| match opts.checkpoint_stem(name) {
        Some(stem) => {
            scenario.run_with_damage_checkpointed(&stem, opts.checkpoint_every, opts.resume)
        }
        None => scenario.run_with_damage(),
    };
    let undefended = Scenario::builder()
        .peers(opts.peers)
        .ticks(opts.ticks)
        .attackers(opts.agents)
        .defense(DefenseKind::None)
        .seed(opts.seed)
        .build();
    let undefended = run_pair(&undefended, "fig12_undefended");
    runs.push(("no DD-POLICE".to_string(), undefended.damage.values.clone()));
    let defended = par_map(&cts, |_, &ct| {
        let dr = run_pair(&ct_scenario(opts, ct, opts.seed), &format!("fig12_ct{ct}"));
        (format!("DD-POLICE-{ct:.0}"), dr.damage.values.clone())
    });
    runs.extend(defended);

    let headers: Vec<&str> =
        std::iter::once("tick").chain(runs.iter().map(|(n, _)| n.as_str())).collect();
    let mut t = Table::new(
        "fig12_damage_over_time",
        format!("Figure 12: damage rate vs time ({} agents, {} peers)", opts.agents, opts.peers),
        &headers,
    );
    for tick in 0..opts.ticks {
        let mut row = vec![(tick + 1).to_string()];
        for (_, vals) in &runs {
            row.push(pct(vals.get(tick).copied().unwrap_or(0.0)));
        }
        t.push_row(row);
    }
    t
}

/// Figure 13: the three error kinds vs cut threshold.
pub fn fig13(rows: &[CtRow]) -> Table {
    let mut t = Table::new(
        "fig13_errors_vs_ct",
        "Figure 13: errors vs cut threshold (false negative = good peers cut; false positive = bad peers missed)",
        &["CT", "false negative", "false positive", "false judgment"],
    );
    for r in rows {
        t.push_row(vec![
            f(r.cut_threshold, 0),
            f(r.false_negative, 1),
            f(r.false_positive, 1),
            f(r.false_judgment, 1),
        ]);
    }
    t
}

/// Figure 14: damage recovery time vs cut threshold.
pub fn fig14(rows: &[CtRow]) -> Table {
    let mut t = Table::new(
        "fig14_recovery_vs_ct",
        "Figure 14: damage recovery time (ticks) vs cut threshold",
        &["CT", "recovery time", "stable damage"],
    );
    for r in rows {
        t.push_row(vec![
            f(r.cut_threshold, 0),
            r.recovery_ticks.map_or("not recovered".into(), |v| f(v, 1)),
            pct(r.stable_damage),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> ExpOptions {
        ExpOptions { peers: 240, ticks: 8, seed: 3, agents: 12, ..ExpOptions::default() }
    }

    #[test]
    fn ct_sweep_produces_one_row_per_threshold() {
        let rows = ct_sweep(&tiny_opts(), &[3.0, 7.0]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].cut_threshold, 3.0);
    }

    #[test]
    fn fig12_has_a_row_per_tick_and_defense_helps() {
        let opts = tiny_opts();
        let t = fig12(&opts);
        assert_eq!(t.rows.len(), opts.ticks);
        // Final tick: undefended damage above the best defended damage.
        let last = t.rows.last().unwrap();
        let parse = |s: &str| s.trim_end_matches('%').parse::<f64>().unwrap();
        let undefended = parse(&last[1]);
        let best_defended = last[2..].iter().map(|s| parse(s)).fold(f64::INFINITY, f64::min);
        assert!(
            undefended > best_defended,
            "undefended {undefended}% should exceed defended {best_defended}%"
        );
    }

    #[test]
    fn figures_13_and_14_render() {
        let rows = ct_sweep(&tiny_opts(), &[5.0]);
        assert_eq!(fig13(&rows).rows.len(), 1);
        assert_eq!(fig14(&rows).rows.len(), 1);
    }

    #[test]
    fn checkpointed_ct_sweep_matches_plain_sweep() {
        let mut opts = tiny_opts();
        let plain = ct_sweep(&opts, &[5.0]);
        let dir = std::env::temp_dir().join(format!("ddp-ct-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        opts.checkpoint_every = 3;
        opts.checkpoint_dir = Some(dir.clone());
        let checkpointed = ct_sweep(&opts, &[5.0]);
        assert_eq!(plain, checkpointed, "checkpointing must not change the numbers");
        assert!(dir.join("ct5_r0-defended.snap").exists());
        assert!(dir.join("ct5_r0-baseline.snap").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
