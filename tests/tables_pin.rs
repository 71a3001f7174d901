//! Tier-1 tables pin: every table `ddp-experiments all` emits, plus the
//! `churn --smoke` grid, frozen cell by cell in a fixture.
//!
//! The 23 tables of `all` (Table 1, Figures 2, 5, 6 and 9–14, the exchange
//! and cheating studies, `resilience`, `collusion`, `readmission`, the seven
//! ablations, `structured_vs_flooding`) are rendered through the public
//! runner functions at one tiny fixed [`ExpOptions`] with two replicates, so
//! the replicate-mean path is exercised, and stored as CSV text in
//! `tests/fixtures/tables_pin.txt` under one `## <table>` heading each. A
//! failure names the table, the row and the column that moved.
//!
//! The fixture was recorded at the commit *before* the experiments crate's
//! scenario wiring, replicate averaging, run entry, table building and
//! command dispatch were each reduced to one place (`DDP_BLESS=1 cargo test
//! --test tables_pin` there), so a pass is the proof that rewrite moved no
//! digit of any table. Re-bless only for a change that is meant to alter
//! what a runner measures or prints.
//!
//! `scale` and `sketch` print wall-clock readings and are pinned by the
//! golden documents of `crates/experiments/tests/bench_schema.rs` instead.

use ddpolice::experiments::runners::{self, CT_GRID};
use ddpolice::experiments::{ExpOptions, Table};
use std::fmt::Write as _;
use std::path::PathBuf;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/tables_pin.txt")
}

/// The one scale every table is rendered at: small enough for a debug build,
/// large enough that agents are cut, good peers are wrongly cut and damage
/// recovers, so the cells are not all zeros.
fn opts() -> ExpOptions {
    ExpOptions { peers: 120, ticks: 8, seed: 21, agents: 8, replicates: 2, ..ExpOptions::default() }
}

/// Every table of `all`, in the order `all` emits them, then `churn --smoke`.
fn tables() -> Vec<Table> {
    let o = opts();
    let mut tables = vec![runners::table1(), runners::fig2(), runners::fig5(), runners::fig6()];
    tables.extend(runners::consequences(&o));
    tables.push(runners::fig12(&o));
    let rows = runners::ct_sweep(&o, &CT_GRID);
    tables.extend([runners::fig13(&rows), runners::fig14(&rows)]);
    tables.extend([
        runners::exchange(&o),
        runners::cheating(&o),
        runners::resilience(&o),
        runners::collusion(&o),
        runners::readmission(&o),
        runners::ablate_warning(&o),
        runners::ablate_radius(&o),
        runners::ablate_forwarding(&o),
        runners::ablate_rejoin(&o),
        runners::ablate_clamp(&o),
        runners::ablate_lists(&o),
        runners::ablate_topology(&o),
        runners::structured(&o),
    ]);
    // The smoke grid fixes its own overlay and run length; a smoke grid is
    // validated against the BENCH_churn.json schema and never written.
    tables.push(runners::churn(&ExpOptions { smoke: true, ..o }));
    tables
}

fn render(tables: &[Table]) -> String {
    tables.iter().fold(String::new(), |mut out, t| {
        write!(out, "## {}\n{}", t.name, t.to_csv()).unwrap();
        out
    })
}

/// `(table, its CSV lines)` per `## <table>` section of the fixture.
fn sections(text: &str) -> Vec<(&str, Vec<&str>)> {
    let mut out: Vec<(&str, Vec<&str>)> = Vec::new();
    for line in text.lines() {
        match line.strip_prefix("## ") {
            Some(name) => out.push((name, Vec::new())),
            None => out.last_mut().expect("fixture starts with a heading").1.push(line),
        }
    }
    out
}

/// Split one CSV line into cells; a quoted cell keeps its commas.
fn cells(line: &str) -> Vec<String> {
    let mut out = vec![String::new()];
    let mut quoted = false;
    for ch in line.chars() {
        match ch {
            '"' => quoted = !quoted,
            ',' if !quoted => out.push(String::new()),
            _ => out.last_mut().unwrap().push(ch),
        }
    }
    out
}

#[test]
fn every_table_matches_the_pre_rewrite_fixture() {
    let path = fixture_path();
    let got = render(&tables());
    if std::env::var_os("DDP_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, got).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing fixture {} ({e}); run with DDP_BLESS=1", path.display())
    });
    let (want, got) = (sections(&golden), sections(&got));
    let names = |s: &[(&str, Vec<&str>)]| s.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
    assert_eq!(names(&got), names(&want), "the set or order of tables changed");
    assert_eq!(want.len(), 24, "23 tables of `all` and the churn smoke grid");
    for ((name, want), (_, got)) in want.iter().zip(&got) {
        let header = cells(want[0]);
        for (row, (w, g)) in want.iter().zip(got).enumerate() {
            for (col, (w, g)) in cells(w).iter().zip(&cells(g)).enumerate() {
                assert_eq!(g, w, "table {name}, row {row}, column {col} ({})", header[col]);
            }
            assert_eq!(g, w, "table {name}, row {row}");
        }
        assert_eq!(got.len(), want.len(), "table {name}: row count");
    }
}
