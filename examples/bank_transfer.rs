//! A concurrent bank on real threads: the same workload on three
//! concurrent TMs (global lock, TL2, NOrec), checking the conservation
//! invariant and comparing wall-clock throughput — the Amdahl's-law point
//! of the paper's footnote 1 in miniature.
//!
//! Run with: `cargo run --release --example bank_transfer`
//!
//! Telemetry: set `TM_TELEMETRY=stderr` (or a file path) to stream an
//! NDJSON event log of the sweep, or pass `--progress` to force the
//! stderr stream when the variable is unset. The stream is consumable
//! live: `cargo run --release --example bank_transfer -- --progress \
//! 2>&1 >/dev/null | tm-obs tail`.

use std::sync::Arc;
use std::time::Instant;

use tm_liveness_repro::prelude::*;
use tm_liveness_repro::stm::concurrent::ConcurrentTm;
use tm_liveness_repro::stm::concurrent::Transaction as _;
use tm_liveness_repro::telemetry::Json;

const ACCOUNTS: usize = 64;
const INITIAL_BALANCE: u64 = 1_000;
const TRANSFERS_PER_THREAD: usize = 20_000;

fn run_bank<T: ConcurrentTm + 'static>(
    tm: Arc<T>,
    threads: usize,
    telemetry: &Telemetry,
) -> (f64, u64) {
    // Seed the accounts.
    for j in 0..ACCOUNTS {
        atomically(&*tm, |tx| tx.write(TVarId(j), INITIAL_BALANCE));
    }
    let start = Instant::now();
    let mut total_aborts = 0;
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let tm = Arc::clone(&tm);
            std::thread::spawn(move || {
                let mut aborts = 0;
                let mut s = 0x9E3779B97F4A7C15u64 ^ (t as u64).wrapping_mul(0xD1B54A32D192ED03);
                for _ in 0..TRANSFERS_PER_THREAD {
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    let from = (s % ACCOUNTS as u64) as usize;
                    let to = ((s >> 16) % ACCOUNTS as u64) as usize;
                    if from == to {
                        continue;
                    }
                    let (_, a) = atomically(&*tm, |tx| {
                        let src = tx.read(TVarId(from))?;
                        let dst = tx.read(TVarId(to))?;
                        if src > 0 {
                            tx.write(TVarId(from), src - 1)?;
                            tx.write(TVarId(to), dst + 1)?;
                        }
                        Ok(())
                    });
                    aborts += a;
                }
                aborts
            })
        })
        .collect();
    for (done, h) in handles.into_iter().enumerate() {
        total_aborts += h.join().unwrap();
        // One gauge per joined worker (rate-limited at the handle), so
        // `tm-obs tail` shows the sweep advancing on long runs.
        telemetry.heartbeat("bank", || {
            let transfers = ((done + 1) * TRANSFERS_PER_THREAD) as f64;
            vec![
                ("threads_done", Json::Int(done as i64 + 1)),
                ("aborts", Json::Int(total_aborts as i64)),
                (
                    "transfers_per_sec",
                    Json::Num(transfers / start.elapsed().as_secs_f64().max(1e-9)),
                ),
            ]
        });
    }
    let elapsed = start.elapsed().as_secs_f64();
    let throughput = (threads * TRANSFERS_PER_THREAD) as f64 / elapsed;
    (throughput, total_aborts)
}

/// One measured cell of the sweep, bracketed by `run_start` and
/// `verdict` events so the stream feeds `tm-obs tail` / `summary`.
fn measure<T: ConcurrentTm + 'static>(tm: Arc<T>, threads: usize, telemetry: &Telemetry) {
    let name = tm.name();
    if telemetry.streams() {
        telemetry.event(
            "run_start",
            &[
                ("engine", Json::str("bank")),
                ("tm", Json::str(name)),
                ("depth", Json::Int(TRANSFERS_PER_THREAD as i64)),
                ("processes", Json::Int(threads as i64)),
            ],
        );
    }
    let (tput, aborts) = run_bank(Arc::clone(&tm), threads, telemetry);
    // The conservation invariant, read back transactionally.
    let (total, _) = atomically(&*tm, |tx| {
        let mut sum = 0u64;
        for j in 0..ACCOUNTS {
            sum += tx.read(TVarId(j))?;
        }
        Ok(sum)
    });
    let conserved = total == ACCOUNTS as u64 * INITIAL_BALANCE;
    assert!(conserved, "conservation violated!");
    if telemetry.streams() {
        telemetry.event(
            "verdict",
            &[
                ("engine", Json::str("bank")),
                ("tm", Json::str(name)),
                ("conserved", Json::Bool(conserved)),
                ("threads", Json::Int(threads as i64)),
                ("transfers_per_sec", Json::Num(tput)),
                ("aborts", Json::Int(aborts as i64)),
            ],
        );
    }
    println!("{name:<12} {threads:>8} {tput:>16.0} {aborts:>12}");
}

fn main() {
    // `--progress` forces the stderr NDJSON stream when TM_TELEMETRY is
    // unset; otherwise the variable decides (off / stderr / file path).
    let progress = std::env::args().any(|a| a == "--progress");
    let telemetry = if progress && std::env::var_os("TM_TELEMETRY").is_none() {
        Telemetry::to_stderr()
    } else {
        Telemetry::from_env()
    };
    println!("Bank: {ACCOUNTS} accounts, {TRANSFERS_PER_THREAD} transfers/thread\n");
    println!(
        "{:<12} {:>8} {:>16} {:>12}",
        "tm", "threads", "transfers/sec", "aborts"
    );
    for threads in [1, 2, 4, 8] {
        let gl = Arc::new(ConcurrentGlobalLock::new(ACCOUNTS));
        measure(gl, threads, &telemetry);
        let tl2 = Arc::new(ConcurrentTl2::new(ACCOUNTS));
        measure(tl2, threads, &telemetry);
        let norec = Arc::new(ConcurrentNOrec::new(ACCOUNTS));
        measure(norec, threads, &telemetry);
        println!();
    }
    println!("Conservation invariant held for every TM. Note: at this");
    println!("micro-transaction granularity the global lock often wins on raw");
    println!("throughput — the STMs pay per-access bookkeeping — while the");
    println!("liveness difference (a crashed holder starves everyone; see");
    println!("tests/liveness_semantics.rs) is what the paper's footnote 1 is");
    println!("really about.");
}
