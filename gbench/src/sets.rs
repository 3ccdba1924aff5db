//! Runs that drive other runs: `--workload all` (every workload in a child
//! process of its own, so each keeps its own peak memory) and `--sets N`
//! (the whole benchmark N times, compared against the bounds declared in
//! `BENCHMARK.json`).

use crate::catalog::{self, Gate};
use crate::json;
use crate::workloads::WORKLOADS;
use crate::{Args, RESULTS_DIR};
use gflink_bench::{jobj, Json};
use std::process::{Command, ExitCode};

/// What one child run reported.
struct Child {
    ok: bool,
    correct: bool,
    attempted: u64,
    failed: u64,
    /// `(metric, value, unit)` from the result line.
    metrics: Vec<(String, f64, String)>,
    /// Within-run spread of each metric that has one (IQR / median).
    spread: Vec<(String, f64)>,
}

/// Run `workload` in a fresh child process, echoing its output.
fn child(args: &Args, workload: &str, trace: bool) -> Child {
    let mut c = Child {
        ok: false,
        correct: false,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        spread: Vec::new(),
    };
    let Ok(exe) = std::env::current_exe() else {
        println!("# cannot locate the gbench executable");
        return c;
    };
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output();
    let Ok(output) = output else {
        println!("# {workload}: child process failed to start");
        return c;
    };
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for l in lines {
        println!("{l}");
    }
    let Ok(doc) = json::parse(last) else {
        println!("# {workload}: no result line");
        return c;
    };
    c.ok = output.status.success();
    c.correct = json::get(&doc, "correct").is_some_and(|v| matches!(v, Json::Bool(true)));
    let count = |k| json::get(&doc, k).and_then(json::num).unwrap_or(0.0) as u64;
    c.attempted = count("attempted");
    c.failed = count("failed");
    if let Some(Json::Obj(ms)) = json::get(&doc, "metrics") {
        for (name, m) in ms {
            let value = json::get(m, "value")
                .and_then(json::num)
                .unwrap_or(f64::NAN);
            let unit = json::get(m, "unit").and_then(json::string).unwrap_or("");
            c.metrics.push((name.clone(), value, unit.to_string()));
        }
    }
    let file = format!("{RESULTS_DIR}/{workload}.json");
    if let Some(Json::Obj(s)) = std::fs::read_to_string(file)
        .ok()
        .and_then(|t| json::parse(&t).ok())
        .and_then(|d| json::get(&d, "spread").cloned())
    {
        c.spread = s
            .iter()
            .filter_map(|(k, v)| json::num(v).map(|x| (k.clone(), x)))
            .collect();
    }
    c
}

/// `--workload all`: every workload, one child process each, one at a
/// time; the result line merges theirs with metrics named
/// `<workload>.<metric>`.
pub fn all(args: &Args) -> ExitCode {
    let (mut ok, mut correct, mut attempted, mut failed) = (true, true, 0, 0);
    let mut metrics = Vec::new();
    for (w, _) in WORKLOADS {
        let c = child(args, w, args.trace);
        ok &= c.ok;
        correct &= c.correct;
        attempted += c.attempted;
        failed += c.failed;
        for (m, v, unit) in c.metrics {
            metrics.push((format!("{w}.{m}"), jobj! { "value": v, "unit": unit }));
        }
    }
    let result = jobj! {
        "correct": correct,
        "attempted": attempted.max(1),
        "failed": failed,
        "metrics": Json::Obj(metrics),
    };
    println!("{}", result.render());
    if ok && correct && failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The verdict on one metric across sets.
fn verdict(gate: &Gate, values: &[f64], spread: f64) -> (f64, &'static str) {
    let base = values[0];
    // The worst change against the first set, signed so that positive
    // means worse.
    let worse = values[1..]
        .iter()
        .map(|&v| {
            let d = (v - base) / base.abs().max(f64::MIN_POSITIVE);
            if gate.higher_better {
                -d
            } else {
                d
            }
        })
        .fold(0.0f64, f64::max);
    if gate.name == "sim_ms" {
        // Simulated time is a pure function of the seed: any drift is a
        // determinism bug, not noise.
        let same = values.iter().all(|v| v.to_bits() == base.to_bits());
        return (worse, if same { "ok" } else { "nondeterministic" });
    }
    if worse <= gate.bound {
        (worse, "ok")
    } else if spread > gate.bound {
        (worse, "unresolved")
    } else {
        (worse, "regressed")
    }
}

/// `--sets N`: run every workload N times in fresh processes, alternating
/// the workload order between sets, and judge each end-to-end metric's
/// change between sets against its bound.
pub fn agree(args: &Args) -> ExitCode {
    let gates = match catalog::gates() {
        Ok(g) => g,
        Err(e) => {
            println!("# {e}");
            return ExitCode::FAILURE;
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.iter().map(|(w, _)| *w).collect()
    } else {
        vec![args.workload.as_str()]
    };
    // runs[w][set] = the child's report.
    let mut runs: Vec<Vec<Child>> = names.iter().map(|_| Vec::new()).collect();
    let mut healthy = true;
    for set in 0..args.sets {
        let mut order: Vec<usize> = (0..names.len()).collect();
        if set % 2 == 1 {
            order.reverse();
        }
        for w in order {
            println!("# set {} of {}: {}", set + 1, args.sets, names[w]);
            let c = child(args, names[w], false);
            healthy &= c.ok && c.correct && c.failed == 0;
            runs[w].push(c);
        }
    }

    println!(
        "workload metric unit {} worse bound verdict",
        (1..=args.sets)
            .map(|s| format!("set{s}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let mut all_ok = healthy;
    for (w, sets) in names.iter().zip(&runs) {
        for gate in &gates {
            let values: Vec<f64> = sets
                .iter()
                .map(|c| {
                    c.metrics
                        .iter()
                        .find(|(m, ..)| *m == gate.name)
                        .map_or(f64::NAN, |(_, v, _)| *v)
                })
                .collect();
            let unit = sets
                .first()
                .and_then(|c| c.metrics.iter().find(|(m, ..)| *m == gate.name))
                .map_or("", |(.., u)| u.as_str());
            let spread = sets
                .iter()
                .filter_map(|c| c.spread.iter().find(|(m, _)| *m == gate.name))
                .map(|(_, s)| *s)
                .fold(0.0f64, f64::max);
            let (worse, v) = if values.iter().any(|v| !v.is_finite()) {
                (f64::NAN, "missing")
            } else {
                verdict(gate, &values, spread)
            };
            all_ok &= v == "ok";
            let cols: Vec<String> = values.iter().map(|v| format!("{v}")).collect();
            println!(
                "{w} {} {unit} {} {:+.4} {} {v}",
                gate.name,
                cols.join(" "),
                worse,
                gate.bound
            );
        }
    }
    if !healthy {
        println!("# a run failed its checks or did not complete");
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(name: &str, higher_better: bool, bound: f64) -> Gate {
        Gate {
            name: name.into(),
            higher_better,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let lower = gate("wall_ms", false, 0.10);
        assert_eq!(verdict(&lower, &[100.0, 105.0], 0.02).1, "ok");
        assert_eq!(
            verdict(&lower, &[100.0, 80.0], 0.02).1,
            "ok",
            "faster is fine"
        );
        assert_eq!(verdict(&lower, &[100.0, 115.0], 0.02).1, "regressed");
        assert_eq!(verdict(&lower, &[100.0, 115.0], 0.20).1, "unresolved");
        let higher = gate("rate", true, 0.10);
        assert_eq!(verdict(&higher, &[100.0, 85.0], 0.0).1, "regressed");
        assert_eq!(verdict(&higher, &[100.0, 120.0], 0.0).1, "ok");
        let (worse, _) = verdict(&lower, &[100.0, 103.0, 107.0], 0.0);
        assert!((worse - 0.07).abs() < 1e-12, "worst set counts");
    }

    #[test]
    fn simulated_time_must_repeat_exactly() {
        let sim = gate("sim_ms", false, 0.02);
        assert_eq!(verdict(&sim, &[20152.9, 20152.9], 0.0).1, "ok");
        assert_eq!(
            verdict(&sim, &[20152.9, 20152.900001], 0.0).1,
            "nondeterministic"
        );
    }
}
