//! The `tm-obs` binary: consumer-side tooling for the tm-telemetry
//! NDJSON v1 stream.
//!
//! ```text
//! tm-obs summary [FILE|-] [--require-verdicts] [--allow-partial] [--expect-runs N]
//! tm-obs tail    [FILE|-] [--follow]
//! tm-obs explain [FILE|-]
//! tm-obs diff    [--against] BASELINE CANDIDATE
//!                [--count-threshold PCT] [--threshold COL=PCT]
//! ```
//!
//! Exit codes: 0 success, 1 gate failure (regression detected or an
//! expectation not met), 2 usage or parse error.

use std::io::{BufRead, Read as _, Write as _};
use std::process::ExitCode;

use tm_obs::{diff, explain, summary, tail};

const USAGE: &str = "usage: tm-obs <summary|tail|explain|diff> [args]  (tm-obs help for details)";

fn read_input(path: &str) -> Result<String, String> {
    if path == "-" {
        let mut text = String::new();
        std::io::stdin()
            .read_to_string(&mut text)
            .map_err(|e| format!("reading stdin: {e}"))?;
        Ok(text)
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))
    }
}

fn fail(message: &str) -> ExitCode {
    eprintln!("tm-obs: {message}");
    ExitCode::from(2)
}

fn cmd_summary(args: &[String]) -> ExitCode {
    let mut path = "-".to_string();
    let mut require_verdicts = false;
    let mut allow_partial = false;
    let mut expect_runs: Option<usize> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--require-verdicts" => require_verdicts = true,
            "--allow-partial" => allow_partial = true,
            "--expect-runs" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => expect_runs = Some(n),
                None => return fail("--expect-runs needs a number"),
            },
            other => path = other.to_string(),
        }
    }
    let text = match read_input(&path) {
        Ok(text) => text,
        Err(e) => return fail(&e),
    };
    let stream = match summary::summarize(&text) {
        Ok(stream) => stream,
        Err(e) => return fail(&e.to_string()),
    };
    print!("{}", summary::render(&stream));
    if let Some(expected) = expect_runs {
        if stream.runs.len() != expected {
            eprintln!(
                "tm-obs: expected {expected} runs, stream has {}",
                stream.runs.len()
            );
            return ExitCode::from(1);
        }
    }
    if require_verdicts && !stream.all_runs_have_verdicts() {
        let missing = stream.runs.iter().filter(|r| r.verdict.is_none()).count();
        eprintln!(
            "tm-obs: {} of {} runs closed without a verdict",
            missing,
            stream.runs.len()
        );
        return ExitCode::from(1);
    }
    // A partial verdict (budget tripped, worker died) is a verdict that
    // makes no claim: the gate rejects it unless explicitly allowed.
    if require_verdicts && !allow_partial && stream.has_partial_runs() {
        let partial = stream
            .runs
            .iter()
            .filter(|r| r.exhausted.is_some() || r.verdict.as_ref().is_some_and(|v| v.partial))
            .count();
        eprintln!(
            "tm-obs: {} of {} runs closed with a partial verdict (rerun with --allow-partial to accept)",
            partial,
            stream.runs.len()
        );
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

fn print_tail_line(line: &tail::TailLine, width: &mut usize) {
    let mut out = std::io::stdout().lock();
    match line {
        tail::TailLine::Progress(text) => {
            let _ = write!(out, "\r{text:<pad$}", pad = *width);
            *width = text.len();
        }
        tail::TailLine::Keep(text) => {
            let _ = writeln!(out, "\r{text:<pad$}", pad = *width);
            *width = 0;
        }
    }
    let _ = out.flush();
}

fn cmd_tail(args: &[String]) -> ExitCode {
    let mut path = "-".to_string();
    let mut follow = false;
    for arg in args {
        match arg.as_str() {
            "--follow" => follow = true,
            other => path = other.to_string(),
        }
    }
    let mut state = tail::TailState::default();
    let mut width = 0usize;
    let mut line_no = 0usize;
    let mut feed = |chunk: &str| {
        for line in chunk.lines() {
            line_no += 1;
            if line.trim().is_empty() {
                continue;
            }
            if let Ok(env) = tm_obs::parse_line(line, line_no) {
                if let Some(rendered) = tail::fold(&env, &mut state) {
                    print_tail_line(&rendered, &mut width);
                }
            }
        }
    };
    if path == "-" {
        // Stdin is naturally "followed": reads block until the producer
        // writes or closes the pipe.
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            match line {
                Ok(line) => feed(&line),
                Err(_) => break,
            }
        }
    } else {
        let mut consumed = 0usize;
        loop {
            let text = match std::fs::read_to_string(&path) {
                Ok(text) => text,
                Err(e) => return fail(&format!("reading {path}: {e}")),
            };
            // Feed only whole lines beyond what was already consumed.
            let complete = text.rfind('\n').map_or(0, |i| i + 1);
            if complete > consumed {
                feed(&text[consumed..complete]);
                consumed = complete;
            }
            if !follow {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(200));
        }
    }
    println!();
    ExitCode::SUCCESS
}

fn cmd_explain(args: &[String]) -> ExitCode {
    let path = args.first().map_or("-", String::as_str);
    let text = match read_input(path) {
        Ok(text) => text,
        Err(e) => return fail(&e),
    };
    match explain::explain(&text) {
        Ok(report) if report.is_empty() => {
            println!("(no trace events in the stream — run the producer with TM_TELEMETRY set)");
            ExitCode::SUCCESS
        }
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => fail(&e.to_string()),
    }
}

fn cmd_diff(args: &[String]) -> ExitCode {
    let mut th = diff::Thresholds::default();
    let mut paths: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--against" => match it.next() {
                Some(path) => paths.insert(0, path.clone()),
                None => return fail("--against needs a baseline path"),
            },
            "--count-threshold" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(pct) => th.count_pct = pct,
                None => return fail("--count-threshold needs a percentage"),
            },
            "--threshold" => match it.next().and_then(|v| {
                let (col, pct) = v.split_once('=')?;
                Some((col.to_string(), pct.parse::<f64>().ok()?))
            }) {
                Some(over) => th.per_column.push(over),
                None => return fail("--threshold needs COLUMN=PCT"),
            },
            other => paths.push(other.to_string()),
        }
    }
    let [baseline_path, candidate_path] = paths.as_slice() else {
        return fail("diff needs a baseline and a candidate (tm-obs diff [--against] A B)");
    };
    let load = |path: &str| -> Result<diff::DiffInput, String> {
        diff::DiffInput::load(&read_input(path)?).map_err(|e| format!("{path}: {e}"))
    };
    let (baseline, candidate) = match (load(baseline_path), load(candidate_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => return fail(&e),
    };
    let report = diff::diff(&baseline, &candidate, &th);
    print!("{}", report.render());
    if report.is_clean() {
        println!("OK: {candidate_path} within thresholds of {baseline_path}");
        ExitCode::SUCCESS
    } else {
        println!("FAIL: {candidate_path} regressed against {baseline_path}");
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, rest)) => match cmd.as_str() {
            "summary" => cmd_summary(rest),
            "tail" => cmd_tail(rest),
            "explain" => cmd_explain(rest),
            "diff" => cmd_diff(rest),
            "help" | "--help" | "-h" => {
                println!("{USAGE}");
                ExitCode::SUCCESS
            }
            other => fail(&format!("unknown subcommand `{other}`\n{USAGE}")),
        },
        None => fail(USAGE),
    }
}
