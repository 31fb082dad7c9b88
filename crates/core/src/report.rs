//! Rendering experiment output: aligned ASCII tables for the terminal and
//! JSON/CSV for machine consumption (README, "Declarative scenarios", shows
//! both from the CLI). This is
//! the unified output writer behind `cocnet run … --out json|csv` and
//! its `--json` flag.
//!
//! Two writer families share the layout, one per kind of scenario. Both
//! print what the one sweep loop
//! ([`crate::runner::Scenario::run_sim_detailed`]) returned, and a
//! scenario's `precision` picks the family: the plain one over [`Series`]
//! (fixed-replication scenarios, and any `--no-sim` run) and the
//! CI-bearing one over [`CiSeries`] (precision-driven scenarios: every
//! simulation point carries its confidence interval and the replications
//! it cost). They stay two because their bytes differ.

use cocnet_stats::{CiSeries, Series, Table};
use serde::{Deserialize, Serialize};

/// Machine-readable formats of the unified output writer
/// (`cocnet run … --out <format>`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputFormat {
    /// Pretty-printed JSON array of series (round-trips via [`from_json`]).
    Json,
    /// One CSV table over the shared rate axis, one column per series.
    Csv,
}

impl std::str::FromStr for OutputFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "json" => Ok(OutputFormat::Json),
            "csv" => Ok(OutputFormat::Csv),
            other => Err(format!("unknown output format {other:?} (use json or csv)")),
        }
    }
}

/// Whether two x values coincide within float noise — the single axis-
/// alignment predicate of every writer here, plain and CI-bearing alike
/// (one definition so the two families can never align rows differently).
fn same_x(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-15 + 1e-9 * a.abs()
}

/// The union of every series' x values, deduplicated within float noise —
/// the shared axis of [`render_figure`] and [`to_csv`].
fn shared_axis(series: &[Series]) -> Vec<f64> {
    let mut xs: Vec<f64> = series
        .iter()
        .flat_map(|s| s.points.iter().map(|p| p.x))
        .collect();
    xs.sort_by(f64::total_cmp);
    xs.dedup_by(|a, b| same_x(*a, *b));
    xs
}

/// The series' y value at shared-axis position `x`, if it has one.
fn value_at(s: &Series, x: f64) -> Option<f64> {
    s.points.iter().find(|p| same_x(x, p.x)).map(|p| p.y)
}

/// Renders a set of series sharing an x axis as one aligned table:
/// first column the rate, one column per series (blank where a series has
/// no point at that x, e.g. past its saturation).
pub fn render_figure(title: &str, series: &[Series]) -> String {
    let mut header = vec!["rate".to_string()];
    header.extend(series.iter().map(|s| s.label.clone()));
    let mut table = Table::new(header);
    for &x in &shared_axis(series) {
        let mut row = vec![format!("{x:.3e}")];
        for s in series {
            row.push(
                value_at(s, x)
                    .map(|y| format!("{y:.2}"))
                    .unwrap_or_default(),
            );
        }
        table.push_row(row);
    }
    format!("## {title}\n{}", table.render())
}

/// Quotes one CSV cell per RFC 4180 (only when needed — labels like
/// `"N=544, Base"` contain commas).
fn csv_cell(cell: &str) -> String {
    if cell.contains([',', '"', '\n']) {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_string()
    }
}

/// Serialises series as CSV over the shared rate axis: header
/// `rate,<label>…`, one row per rate, empty cells where a series has no
/// point (saturation). Values keep full `f64` round-trip precision.
pub fn to_csv(series: &[Series]) -> String {
    let mut out = String::from("rate");
    for s in series {
        out.push(',');
        out.push_str(&csv_cell(&s.label));
    }
    out.push('\n');
    for &x in &shared_axis(series) {
        out.push_str(&format!("{x:e}"));
        for s in series {
            out.push(',');
            if let Some(y) = value_at(s, x) {
                out.push_str(&format!("{y}"));
            }
        }
        out.push('\n');
    }
    out
}

/// The unified machine-readable writer: series in the requested format.
pub fn render_machine(series: &[Series], format: OutputFormat) -> String {
    match format {
        OutputFormat::Json => to_json(series),
        OutputFormat::Csv => to_csv(series),
    }
}

/// Serialises series to pretty JSON (the `--json` output of `cocnet run`).
pub fn to_json(series: &[Series]) -> String {
    serde_json::to_string_pretty(series).expect("series are serialisable")
}

/// Parses series back from JSON (round-trip for tooling).
pub fn from_json(json: &str) -> Result<Vec<Series>, serde_json::Error> {
    serde_json::from_str(json)
}

// ---- CI-bearing writers (precision-driven scenarios) -----------------------

/// The machine-readable shape of a precision-driven run: the analytical
/// series (no CI — the model is deterministic) plus the CI-bearing
/// simulation series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CiReport {
    /// Analytical series, one per workload.
    pub analysis: Vec<Series>,
    /// Simulation series with per-point CI and replication spend.
    pub simulation: Vec<CiSeries>,
}

/// The shared x axis of analysis and CI-bearing simulation series.
fn shared_axis_ci(analysis: &[Series], simulation: &[CiSeries]) -> Vec<f64> {
    let mut xs: Vec<f64> = analysis
        .iter()
        .flat_map(|s| s.points.iter().map(|p| p.x))
        .chain(simulation.iter().flat_map(|s| s.points.iter().map(|p| p.x)))
        .collect();
    xs.sort_by(f64::total_cmp);
    xs.dedup_by(|a, b| same_x(*a, *b));
    xs
}

/// The CI point of `s` at shared-axis position `x`, if it has one.
fn ci_value_at(s: &CiSeries, x: f64) -> Option<&cocnet_stats::CiPoint> {
    s.points.iter().find(|p| same_x(x, p.x))
}

/// Renders a precision-driven figure: the analysis columns as in
/// [`render_figure`], then per simulation series its mean, CI bounds and
/// replications spent (`reps`, suffixed `*` where the point tripped the
/// replication cap before converging).
pub fn render_figure_ci(title: &str, analysis: &[Series], simulation: &[CiSeries]) -> String {
    let mut header = vec!["rate".to_string()];
    header.extend(analysis.iter().map(|s| s.label.clone()));
    for s in simulation {
        header.push(s.label.clone());
        header.push("ci lo".into());
        header.push("ci hi".into());
        header.push("reps".into());
    }
    let mut table = Table::new(header);
    for &x in &shared_axis_ci(analysis, simulation) {
        let mut row = vec![format!("{x:.3e}")];
        for s in analysis {
            row.push(
                value_at(s, x)
                    .map(|y| format!("{y:.2}"))
                    .unwrap_or_default(),
            );
        }
        for s in simulation {
            match ci_value_at(s, x) {
                Some(p) => {
                    row.push(format!("{:.2}", p.y));
                    row.push(format!("{:.2}", p.lo));
                    row.push(format!("{:.2}", p.hi));
                    row.push(format!(
                        "{}{}",
                        p.replications,
                        if p.converged { "" } else { "*" }
                    ));
                }
                None => row.extend([String::new(), String::new(), String::new(), String::new()]),
            }
        }
        table.push_row(row);
    }
    let level = simulation.first().map(|s| s.level).unwrap_or(0.95);
    format!(
        "## {title}\n{}\n(CI level {level}; reps = replications spent, * = \
         replication cap tripped before the precision target was met)",
        table.render()
    )
}

/// Serialises a precision-driven run as CSV over the shared rate axis:
/// the analysis columns, then per simulation series `<label>`,
/// `<label> ci_lo`, `<label> ci_hi`, `<label> reps`, `<label> converged`.
/// Values keep full `f64` round-trip precision.
pub fn to_csv_ci(analysis: &[Series], simulation: &[CiSeries]) -> String {
    let mut out = String::from("rate");
    for s in analysis {
        out.push(',');
        out.push_str(&csv_cell(&s.label));
    }
    for s in simulation {
        for suffix in ["", " ci_lo", " ci_hi", " reps", " converged"] {
            out.push(',');
            out.push_str(&csv_cell(&format!("{}{suffix}", s.label)));
        }
    }
    out.push('\n');
    for &x in &shared_axis_ci(analysis, simulation) {
        out.push_str(&format!("{x:e}"));
        for s in analysis {
            out.push(',');
            if let Some(y) = value_at(s, x) {
                out.push_str(&format!("{y}"));
            }
        }
        for s in simulation {
            match ci_value_at(s, x) {
                Some(p) => out.push_str(&format!(
                    ",{},{},{},{},{}",
                    p.y, p.lo, p.hi, p.replications, p.converged
                )),
                None => out.push_str(",,,,,"),
            }
        }
        out.push('\n');
    }
    out
}

/// Serialises a precision-driven run to pretty JSON (a [`CiReport`]).
pub fn to_json_ci(analysis: &[Series], simulation: &[CiSeries]) -> String {
    let report = CiReport {
        analysis: analysis.to_vec(),
        simulation: simulation.to_vec(),
    };
    serde_json::to_string_pretty(&report).expect("report is serialisable")
}

/// Parses a [`CiReport`] back from JSON (round-trip for tooling).
pub fn from_json_ci(json: &str) -> Result<CiReport, serde_json::Error> {
    serde_json::from_str(json)
}

/// The unified machine-readable writer for precision-driven runs.
pub fn render_machine_ci(
    analysis: &[Series],
    simulation: &[CiSeries],
    format: OutputFormat,
) -> String {
    match format {
        OutputFormat::Json => to_json_ci(analysis, simulation),
        OutputFormat::Csv => to_csv_ci(analysis, simulation),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(label: &str, pts: &[(f64, f64)]) -> Series {
        let mut out = Series::new(label);
        for &(x, y) in pts {
            out.push(x, y);
        }
        out
    }

    #[test]
    fn renders_shared_axis() {
        let a = s("Analysis", &[(1e-4, 40.0), (2e-4, 44.0)]);
        let b = s("Simulation", &[(1e-4, 50.0)]);
        let text = render_figure("Fig. X", &[a, b]);
        assert!(text.contains("## Fig. X"));
        assert!(text.contains("Analysis"));
        assert!(text.contains("Simulation"));
        // The 2e-4 row exists but has no Simulation value.
        let row = text.lines().last().unwrap();
        assert!(row.contains("2.000e-4"));
        assert!(row.contains("44.00"));
        assert!(!row.contains("50.00"));
    }

    #[test]
    fn json_round_trip() {
        let series = vec![s("a", &[(1.0, 2.0)]), s("b", &[(3.0, 4.0)])];
        let json = to_json(&series);
        let back = from_json(&json).unwrap();
        assert_eq!(series, back);
    }

    #[test]
    fn csv_shares_axis_and_quotes_labels() {
        let a = s("N=544, Base", &[(1e-4, 40.0), (2e-4, 44.5)]);
        let b = s("plain", &[(1e-4, 50.0)]);
        let csv = to_csv(&[a, b]);
        let mut lines = csv.lines();
        assert_eq!(lines.next().unwrap(), "rate,\"N=544, Base\",plain");
        assert_eq!(lines.next().unwrap(), "1e-4,40,50");
        // b has no point at 2e-4: trailing empty cell.
        assert_eq!(lines.next().unwrap(), "2e-4,44.5,");
        assert_eq!(lines.next(), None);
    }

    #[test]
    fn output_format_parses() {
        use std::str::FromStr;
        assert_eq!(OutputFormat::from_str("json"), Ok(OutputFormat::Json));
        assert_eq!(OutputFormat::from_str("csv"), Ok(OutputFormat::Csv));
        assert!(OutputFormat::from_str("yaml").is_err());
    }

    fn ci_s(label: &str, pts: &[(f64, f64, f64, f64, usize, bool)]) -> CiSeries {
        let mut out = CiSeries::new(label, 0.95);
        for &(x, y, lo, hi, replications, converged) in pts {
            out.push(cocnet_stats::CiPoint {
                x,
                y,
                lo,
                hi,
                replications,
                converged,
            });
        }
        out
    }

    #[test]
    fn ci_figure_shows_bounds_and_spend() {
        let analysis = vec![s("Analysis (Lm=256)", &[(1e-4, 40.0), (2e-4, 44.0)])];
        let sim = vec![ci_s(
            "Simulation (Lm=256)",
            &[
                (1e-4, 41.0, 40.5, 41.5, 4, true),
                (2e-4, 45.0, 43.0, 47.0, 16, false),
            ],
        )];
        let text = render_figure_ci("Fig. X", &analysis, &sim);
        assert!(text.contains("## Fig. X"));
        assert!(text.contains("ci lo"));
        assert!(text.contains("ci hi"));
        assert!(text.contains("reps"));
        assert!(text.contains("40.50"));
        // Converged spend is bare; cap-tripped spend is starred.
        assert!(text.contains(" 4"));
        assert!(text.contains("16*"));
        assert!(text.contains("CI level 0.95"));
    }

    #[test]
    fn ci_csv_carries_full_precision_and_convergence() {
        let analysis = vec![s("Analysis", &[(1e-4, 40.0)])];
        let sim = vec![ci_s("Sim", &[(1e-4, 41.25, 40.5, 42.0, 4, true)])];
        let csv = to_csv_ci(&analysis, &sim);
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "rate,Analysis,Sim,Sim ci_lo,Sim ci_hi,Sim reps,Sim converged"
        );
        assert_eq!(lines.next().unwrap(), "1e-4,40,41.25,40.5,42,4,true");
        assert_eq!(lines.next(), None);
        // A saturated simulation point leaves its cells empty.
        let sim2 = vec![ci_s("Sim", &[])];
        let analysis2 = vec![s("Analysis", &[(1e-4, 40.0)])];
        let csv2 = to_csv_ci(&analysis2, &sim2);
        assert_eq!(csv2.lines().nth(1).unwrap(), "1e-4,40,,,,,");
    }

    #[test]
    fn ci_json_round_trip() {
        let analysis = vec![s("Analysis", &[(1e-4, 40.0)])];
        let sim = vec![ci_s("Sim", &[(1e-4, 41.0, 40.0, 42.0, 8, true)])];
        let json = to_json_ci(&analysis, &sim);
        let back = from_json_ci(&json).unwrap();
        assert_eq!(back.analysis, analysis);
        assert_eq!(back.simulation, sim);
        assert_eq!(render_machine_ci(&analysis, &sim, OutputFormat::Json), json);
        assert_eq!(
            render_machine_ci(&analysis, &sim, OutputFormat::Csv),
            to_csv_ci(&analysis, &sim)
        );
    }
}
