//! End-to-end and per-layer benchmark of the websyn serving stack.
//!
//! ```text
//! perfbench --workload <zipf_head|fuzzy_tail|delta_router> --seed <n>
//!           --seconds <s> --trace <0|1> [--smoke] [--out <dir>]
//! ```
//!
//! Generates its inputs from the seed, starts the stack in this process,
//! drives it over TCP from at most two client threads, checks every
//! answer against planted truth and prints one JSON object as the last
//! line of standard output. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` runs the same workload, then replays its requests through
//! each layer's public entry points and reports the per-layer metrics,
//! writing the spans and counter snapshots to `<out>/trace-*.json`.
//! While it runs, one idle-priority holder process per CPU keeps the
//! CPUs from halting (see [`hold`]). See `perfbench/README.md`.

mod check;
mod client;
mod gen;
mod hold;
mod layers;
mod stats;
mod workload;

use client::Outcome;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workload::{Kind, Stack};

struct Args {
    kind: Kind,
    name: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut name, mut seed, mut seconds, mut trace, mut smoke) = (None, 1u64, 10u64, false, false);
    let mut out = PathBuf::from("perfbench/out");
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => name = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => seconds = value()?.parse().map_err(|_| "bad --seconds")?,
            "--trace" => trace = value()? == "1",
            "--out" => out = PathBuf::from(value()?),
            "--smoke" => smoke = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let name = name.ok_or("--workload is required")?;
    let kind = Kind::parse(&name).ok_or(format!("unknown workload {name}"))?;
    Ok(Args {
        kind,
        name,
        seed,
        seconds: seconds.max(1),
        trace,
        smoke,
        out,
    })
}

type Metric = (&'static str, f64, &'static str);

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some(hold::FLAG) {
        hold::hold();
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((ops, late, metrics)) => {
            let body: Vec<String> = metrics
                .iter()
                .map(|(name, value, unit)| {
                    format!(
                        "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                        json_num(*value)
                    )
                })
                .collect();
            println!(
                "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
                ops.failed == late,
                ops.attempted,
                ops.failed,
                body.join(", ")
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn run(args: &Args) -> std::io::Result<(Outcome, u64, Vec<Metric>)> {
    let _holders = hold::Holders::start()?;
    let run_t0 = Instant::now();
    let steal0 = stats::steal_ticks();
    let kind = args.kind;
    let shape = workload::shape(kind, args.seconds, args.smoke);
    let mut inputs = workload::generate(kind, &shape, args.seed, &args.out)?;
    eprintln!(
        "perfbench: {} seed {} — {} surfaces, pool {}, {} warm + {} saturated + {} paced requests, {} deltas ({:.2}s to generate)",
        args.name,
        args.seed,
        shape.dict_size,
        shape.pool,
        inputs.warm.len(),
        inputs.saturated.len(),
        inputs.paced.len(),
        shape.deltas,
        run_t0.elapsed().as_secs_f64()
    );

    let mut first = Outcome::default();
    let (mut setup, mut load, mut start) = (Vec::new(), Vec::new(), Vec::new());
    let mut stack: Option<Stack> = None;
    for _ in 0..shape.setups {
        if let Some(previous) = stack.take() {
            previous.shutdown();
        }
        let (s, l, st) = Stack::start(kind, &inputs, &mut first)?;
        setup.push(l + st);
        load.push(l);
        start.push(st);
        stack = Some(s);
    }
    let stack = stack.expect("at least one cold start");
    let mut measured = workload::drive(kind, &shape, &mut inputs, &stack, run_t0, args.trace)?;
    measured.ops.count(&first);
    measured.setup_s = setup;
    measured.load_s = load;
    measured.start_s = start;

    let (p50, p90, p99) = stats::paced_percentiles(&measured.paced.latency_us);
    let ack_ms = stats::median(&measured.ack_ms);
    let setup_s = stats::median(&measured.setup_s);
    eprintln!(
        "perfbench: setup {:?} s, qps {:.0}, paced p50/p90/p99 {:.0}/{:.0}/{:.0} us over {} requests, acks {:?} ms",
        measured.setup_s,
        measured.match_qps,
        p50,
        p90,
        p99,
        measured.paced.latency_us.len(),
        measured.ack_ms.iter().map(|a| (a * 100.0).round() / 100.0).collect::<Vec<_>>()
    );
    for (name, from, to) in &measured.phases {
        eprintln!("perfbench: phase {name} {from:.3}..{to:.3} s");
    }
    for e in &measured.ops.errors {
        eprintln!("perfbench: failed: {e}");
    }

    let metrics: Vec<Metric> = if args.trace {
        layers::measure(
            kind,
            &shape,
            &mut inputs,
            &stack,
            &measured,
            &args.out,
            &args.name,
        )?
    } else {
        vec![
            ("setup_s", setup_s, "s"),
            ("match_qps", measured.match_qps, "req/s"),
            ("match_p50_us", p50, "us"),
            ("match_p90_us", p90, "us"),
            ("rss_peak_mb", stats::rss_peak_mb(), "MB"),
            ("delta_ack_ms", ack_ms, "ms"),
        ]
    };
    stack.shutdown();
    let _ = std::fs::remove_file(&inputs.tsv_path);
    eprintln!(
        "perfbench: run took {:.1} s; host steal {} ticks",
        run_t0.elapsed().as_secs_f64(),
        stats::steal_ticks() - steal0
    );
    let late = measured.ops.late;
    Ok((measured.ops, late, metrics))
}
