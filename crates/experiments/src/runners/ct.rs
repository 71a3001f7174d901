//! Cut-threshold studies: Figures 12 (damage rate over time), 13 (errors vs
//! CT), and 14 (damage recovery time vs CT).

use super::par_map;
use crate::options::ExpOptions;
use crate::output::{f, pct, Table};
use ddp_oracle::{DamageReport, DefenseKind, Scenario};
use ddp_police::DdPoliceConfig;

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

/// The CT-swept damage pair, checkpointed under `name` when the command line
/// asks for it: a killed sweep resumes with `--resume`, to bit-identical rows.
fn damage_pair(opts: &ExpOptions, defense: DefenseKind, seed: u64, name: &str) -> DamageReport {
    Scenario { defense, seed, ..opts.scenario() }.run_with_damage(opts.checkpoint(name).as_ref())
}

/// DD-POLICE with the paper's defaults at cut threshold `ct`.
fn police(ct: f64) -> DefenseKind {
    DefenseKind::DdPolice(DdPoliceConfig::with_cut_threshold(ct))
}

/// Mean recovery time over the runs that recovered at all.
pub(super) fn mean_recovery(runs: &[Option<usize>]) -> Option<f64> {
    let recovered: Vec<f64> = runs.iter().flatten().map(|&t| t as f64).collect();
    (!recovered.is_empty()).then(|| recovered.iter().sum::<f64>() / recovered.len() as f64)
}

/// How a table prints [`mean_recovery`].
pub(super) fn recovery_cell(mean: Option<f64>) -> String {
    mean.map_or("not recovered".into(), |v| f(v, 1))
}

/// Sweep the cut threshold with `opts.agents` attackers, averaging
/// `opts.replicates` seeds per point. With `--checkpoint-every` set, each
/// (CT, replicate) pair checkpoints under a deterministic stem.
pub fn ct_sweep(opts: &ExpOptions, cts: &[f64]) -> Vec<CtRow> {
    // Paired comparison: every CT value sees the same topologies, workloads
    // and churn (seed depends only on the replicate), so the curves isolate
    // the threshold's effect rather than run-to-run variance.
    par_map(cts, |_, &ct| {
        let mut recoveries = Vec::new();
        let [false_negative, false_positive, false_judgment, stable_damage] = opts.mean_over(|r| {
            let dr = damage_pair(opts, police(ct), opts.seed_for(0, r), &format!("ct{ct}_r{r}"));
            recoveries.push(dr.recovery_ticks);
            let errors = &dr.attacked.summary.errors;
            let (fneg, fpos) = (errors.false_negative as f64, errors.false_positive as f64);
            [fneg, fpos, fneg + fpos, dr.stable_damage()]
        });
        CtRow {
            cut_threshold: ct,
            false_negative,
            false_positive,
            false_judgment,
            recovery_ticks: mean_recovery(&recoveries),
            stable_damage,
        }
    })
}

/// The default CT grid of Figures 13/14.
pub const CT_GRID: [f64; 9] = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 9.0, 12.0];

/// Figure 12: damage rate over time for no defense and CT ∈ {3, 7, 10}.
pub fn fig12(opts: &ExpOptions) -> Table {
    let damage = |defense: DefenseKind, name: &str| {
        damage_pair(opts, defense, opts.seed, name).damage.values
    };
    // Undefended reference.
    let mut runs =
        vec![("no DD-POLICE".to_string(), damage(DefenseKind::None, "fig12_undefended"))];
    runs.extend(par_map(&[3.0, 7.0, 10.0], |_, &ct| {
        (format!("DD-POLICE-{ct:.0}"), damage(police(ct), &format!("fig12_ct{ct}")))
    }));

    let headers: Vec<&str> =
        std::iter::once("tick").chain(runs.iter().map(|(n, _)| n.as_str())).collect();
    Table::from_rows(
        "fig12_damage_over_time",
        format!("Figure 12: damage rate vs time ({} agents, {} peers)", opts.agents, opts.peers),
        &headers,
        (0..opts.ticks).map(|tick| {
            std::iter::once((tick + 1).to_string())
                .chain(runs.iter().map(|(_, vals)| pct(vals.get(tick).copied().unwrap_or(0.0))))
                .collect()
        }),
    )
}

/// Figure 13: the three error kinds vs cut threshold.
pub fn fig13(rows: &[CtRow]) -> Table {
    Table::from_columns(
        "fig13_errors_vs_ct",
        "Figure 13: errors vs cut threshold (false negative = good peers cut; false positive = bad peers missed)",
        rows,
        &[
            ("CT", |r| f(r.cut_threshold, 0)),
            ("false negative", |r| f(r.false_negative, 1)),
            ("false positive", |r| f(r.false_positive, 1)),
            ("false judgment", |r| f(r.false_judgment, 1)),
        ],
    )
}

/// Figure 14: damage recovery time vs cut threshold.
pub fn fig14(rows: &[CtRow]) -> Table {
    Table::from_columns(
        "fig14_recovery_vs_ct",
        "Figure 14: damage recovery time (ticks) vs cut threshold",
        rows,
        &[
            ("CT", |r| f(r.cut_threshold, 0)),
            ("recovery time", |r| recovery_cell(r.recovery_ticks)),
            ("stable damage", |r| pct(r.stable_damage)),
        ],
    )
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
