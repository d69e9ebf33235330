//! `speclint` — the static-analysis gate over every bundled AP spec.
//!
//! Runs the `zmail_ap::analyze` pass (structural lints, footprint
//! coverage, explorer-backed vacuity, declared-vs-observed send
//! cross-check) over the six E12 protocol configurations and the E15
//! bank-exchange configurations, prints one row per configuration plus
//! every diagnostic, and exits nonzero if any configuration produces a
//! `Severity::Error`. CI runs this binary; a structurally unsound spec
//! fails the build before its exploration verdicts can be trusted.
//!
//! For the protocol configurations the lint additionally runs
//! [`zmail_ap::independence_crosscheck`]: the model's independence
//! relation is diffed against the `zmail_sim::World` footprint keys of the
//! harness events mirroring each spec action
//! ([`zmail_core::spec::sim_mirror_footprints`]), and an unexplained
//! divergence (`AP013`) fails the gate just like a structural error.
//!
//! Flags: `--json` emits one machine-readable object per configuration
//! instead of the human tables; `--independence-json` emits *only* the
//! independence relation plus the cross-check as one stable JSON
//! artifact (structure pass only — no exploration — so it is cheap
//! enough for other tools to regenerate at will); `--threads N`
//! parallelizes the vacuity exploration (the verdicts are
//! thread-count-independent).

use std::process::ExitCode;
use zmail_ap::{
    analyze, analyze_structure, independence_crosscheck, AnalysisReport, AnalyzeConfig,
    CrosscheckReport, ExploreConfig, Severity,
};
use zmail_bench::{parse_threads, Report};
use zmail_core::spec::{build_spec, sim_mirror_footprints, SpecParams, TimeoutMode};
use zmail_core::spec_bank::{build_bank_spec, BankSpecParams};
use zmail_sim::Table;

/// Vacuity-exploration budget per configuration. Large enough to exhaust
/// every bundled configuration, so AP010 findings are proofs of dead
/// guards rather than budget artifacts.
const STATE_BUDGET: usize = 5_000_000;

fn lint_config(threads: usize) -> AnalyzeConfig {
    AnalyzeConfig {
        explore: ExploreConfig {
            max_states: STATE_BUDGET,
            threads,
            record_counterexample: false,
            ..ExploreConfig::default()
        },
    }
}

fn spec_cases() -> Vec<(&'static str, SpecParams)> {
    vec![
        ("protocol n=2 m=1 bal=1 r=1", SpecParams::default()),
        (
            "protocol n=2 m=1 bal=2 r=1",
            SpecParams {
                initial_balance: 2,
                ..SpecParams::default()
            },
        ),
        (
            "protocol n=2 m=1 bal=2 r=2",
            SpecParams {
                initial_balance: 2,
                max_rounds: 2,
                ..SpecParams::default()
            },
        ),
        (
            "protocol n=2 m=2 bal=1 r=1",
            SpecParams {
                users: 2,
                limit: 1,
                ..SpecParams::default()
            },
        ),
        (
            "protocol n=3 m=1 bal=1 r=1",
            SpecParams {
                isps: 3,
                limit: 1,
                ..SpecParams::default()
            },
        ),
        (
            "protocol n=2 m=1 bal=2 r=1 LOCAL-DRAIN",
            SpecParams {
                initial_balance: 2,
                timeout_mode: TimeoutMode::LocalDrain,
                ..SpecParams::default()
            },
        ),
    ]
}

fn bank_cases() -> Vec<(&'static str, BankSpecParams)> {
    vec![
        ("bank-exchange loss r=0", BankSpecParams::default()),
        (
            "bank-exchange loss r=2",
            BankSpecParams {
                max_retries: 2,
                ..BankSpecParams::default()
            },
        ),
        (
            "bank-exchange no-loss r=0",
            BankSpecParams {
                allow_loss: false,
                ..BankSpecParams::default()
            },
        ),
        // With a reliable network the retry timer never expires while a
        // buy is outstanding: the analyzer proves `retry` dead (AP010).
        (
            "bank-exchange no-loss r=1",
            BankSpecParams {
                allow_loss: false,
                max_retries: 1,
                ..BankSpecParams::default()
            },
        ),
    ]
}

/// Structure pass + independence cross-check for every protocol
/// configuration (the bank-exchange specs mirror no harness events, so
/// they carry an independence relation but no cross-check).
fn crosscheck_cases() -> Vec<(String, AnalysisReport, CrosscheckReport)> {
    spec_cases()
        .into_iter()
        .map(|(name, params)| {
            let (spec, _) = build_spec(params);
            let report = analyze_structure(&spec);
            let keys = sim_mirror_footprints(&spec);
            let cross = independence_crosscheck(&spec, &report, &keys);
            (name.to_string(), report, cross)
        })
        .collect()
}

/// The `--independence-json` artifact: one array entry per
/// configuration with the action labels, the independence relation, and
/// (for protocol configs) the model-vs-harness cross-check. Field order
/// is fixed; consumers may diff the output byte-for-byte.
fn independence_artifact() -> (String, bool) {
    let mut entries: Vec<String> = Vec::new();
    let mut any_error = false;
    for (name, report, cross) in crosscheck_cases() {
        any_error |= cross.has_errors();
        entries.push(render_independence_entry(&name, &report, Some(&cross)));
    }
    for (name, params) in bank_cases() {
        let (spec, _) = build_bank_spec(params);
        let report = analyze_structure(&spec);
        entries.push(render_independence_entry(name, &report, None));
    }
    (format!("[{}]", entries.join(",")), any_error)
}

fn render_independence_entry(
    name: &str,
    report: &AnalysisReport,
    cross: Option<&CrosscheckReport>,
) -> String {
    let labels: Vec<String> = report
        .action_labels
        .iter()
        .map(|l| format!("\"{}\"", l.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    let pairs: Vec<String> = report
        .independent_pairs
        .iter()
        .map(|(a, b)| format!("[{a},{b}]"))
        .collect();
    format!(
        "{{\"configuration\":\"{name}\",\"action_labels\":[{}],\"independent_pairs\":[{}],\"crosscheck\":{}}}",
        labels.join(","),
        pairs.join(","),
        cross.map_or("null".to_string(), CrosscheckReport::to_json),
    )
}

fn main() -> ExitCode {
    let threads = parse_threads();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    if args.iter().any(|a| a == "--independence-json") {
        let (artifact, any_error) = independence_artifact();
        println!("{artifact}");
        return if any_error {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }
    let config = lint_config(threads);

    let mut reports: Vec<(String, AnalysisReport)> = Vec::new();
    for (name, params) in spec_cases() {
        let (spec, initial) = build_spec(params);
        reports.push((name.to_string(), analyze(&spec, &initial, &config)));
    }
    for (name, params) in bank_cases() {
        let (spec, initial) = build_bank_spec(params);
        reports.push((name.to_string(), analyze(&spec, &initial, &config)));
    }
    let crosschecks = crosscheck_cases();

    if json {
        let mut out = String::from("[");
        for (i, (name, report)) in reports.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let cross = crosschecks
                .iter()
                .find(|(n, _, _)| n == name)
                .map_or("null".to_string(), |(_, _, c)| c.to_json());
            out.push_str(&format!(
                "{{\"configuration\":\"{name}\",\"report\":{},\"crosscheck\":{cross}}}",
                report.to_json()
            ));
        }
        out.push(']');
        println!("{out}");
        let any_error = reports.iter().any(|(_, r)| r.has_errors())
            || crosschecks.iter().any(|(_, _, c)| c.has_errors());
        return if any_error {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }

    let experiment = Report::new(
        "speclint: static analysis of the bundled AP specs",
        "every machine-checked spec is structurally sound — no dead channels, no footprint lies, no vacuously-passing actions hiding behind a mis-encoded guard",
    );
    println!("explorer threads: {threads} (pass --threads N to change; 0 = all cores)\n");

    let mut table = Table::new(&[
        "configuration",
        "actions",
        "footprint",
        "independent pairs",
        "vacuity",
        "errors",
        "warns",
        "infos",
    ]);
    for (name, report) in &reports {
        let vacuity = match report.vacuity_exhausted {
            Some(true) => "exhausted".to_string(),
            Some(false) => "budget hit".to_string(),
            None => "skipped".to_string(),
        };
        table.row_owned(vec![
            name.clone(),
            report.action_count.to_string(),
            format!("{}/{}", report.footprint_covered, report.action_count),
            report.independent_pairs.len().to_string(),
            vacuity,
            report.count(Severity::Error).to_string(),
            report.count(Severity::Warn).to_string(),
            report.count(Severity::Info).to_string(),
        ]);
    }
    println!("{table}");

    for (name, report) in &reports {
        if report.diagnostics.is_empty() {
            continue;
        }
        println!("{name}:");
        for diag in &report.diagnostics {
            println!("  {diag}");
        }
        println!();
    }

    println!("model-vs-harness independence cross-check (protocol configs):");
    for (name, _, cross) in &crosschecks {
        print!("{name}: {cross}");
    }
    println!();

    let any_error = reports.iter().any(|(_, r)| r.has_errors())
        || crosschecks.iter().any(|(_, _, c)| c.has_errors());
    experiment.finish(
        !any_error,
        "all bundled specs lint clean of errors and the model's independence relation agrees with the harness's World footprints; the surviving warnings are the documented intentional ones (the invariant-only `error_detected` variable, the provably-dead retry under a reliable network)",
    );
    if any_error {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
