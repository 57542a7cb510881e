//! Transactional workloads: the application side of a simulation.
//!
//! A [`Client`] is the program a process runs: it issues invocations one
//! at a time, retries its transaction when aborted, and starts a new
//! transaction after a commit. Clients come in two flavours:
//!
//! * **scripted** ([`ClientScript`]) — a fixed operation list executed in
//!   a loop, used by the exhaustive model checker where determinism is
//!   essential;
//! * **random** ([`random_script`]) — scripts drawn from a
//!   [`WorkloadConfig`] distribution, used by the randomized simulations.

use rand::Rng;
use serde::{Deserialize, Serialize};

use tm_core::{Invocation, Response, TVarId, Value};

/// One planned transactional operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlannedOp {
    /// Read a t-variable.
    Read(TVarId),
    /// Write a constant value.
    Write(TVarId, Value),
    /// Write `last read value + 1` (a read-modify-write increment); falls
    /// back to writing `1` if the transaction has not read yet.
    Bump(TVarId),
}

/// A transaction plan: the operations of one transaction, followed by an
/// implicit `tryC`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClientScript {
    ops: Vec<PlannedOp>,
}

impl ClientScript {
    /// Creates a script from planned operations (the commit is implicit).
    pub fn new(ops: Vec<PlannedOp>) -> Self {
        ClientScript { ops }
    }

    /// The planned operations.
    pub fn ops(&self) -> &[PlannedOp] {
        &self.ops
    }

    /// `read x · write x (v+1) · tryC` — the increment transaction.
    pub fn increment(x: TVarId) -> Self {
        ClientScript::new(vec![PlannedOp::Read(x), PlannedOp::Bump(x)])
    }

    /// `read x · read y · write x · write y · tryC` — a two-variable
    /// transfer-shaped transaction.
    pub fn transfer(x: TVarId, y: TVarId) -> Self {
        ClientScript::new(vec![
            PlannedOp::Read(x),
            PlannedOp::Read(y),
            PlannedOp::Bump(x),
            PlannedOp::Write(y, 7),
        ])
    }

    /// `read x · read y · tryC` — a read-only snapshot transaction.
    pub fn read_both(x: TVarId, y: TVarId) -> Self {
        ClientScript::new(vec![PlannedOp::Read(x), PlannedOp::Read(y)])
    }

    /// `write x v · tryC` — a blind write.
    pub fn blind_write(x: TVarId, v: Value) -> Self {
        ClientScript::new(vec![PlannedOp::Write(x, v)])
    }
}

/// Distribution from which random scripts are drawn.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct WorkloadConfig {
    /// Number of t-variables the workload touches.
    pub tvars: usize,
    /// Minimum operations per transaction.
    pub min_ops: usize,
    /// Maximum operations per transaction.
    pub max_ops: usize,
    /// Probability that an operation is a write (vs a read).
    pub write_fraction: f64,
    /// Written constants are drawn from `0..value_range`.
    pub value_range: Value,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            tvars: 4,
            min_ops: 1,
            max_ops: 4,
            write_fraction: 0.5,
            value_range: 8,
        }
    }
}

/// Draws a random script from the configuration.
pub fn random_script<R: Rng>(config: &WorkloadConfig, rng: &mut R) -> ClientScript {
    let n = rng.gen_range(config.min_ops..=config.max_ops.max(config.min_ops));
    let ops = (0..n)
        .map(|_| {
            let x = TVarId(rng.gen_range(0..config.tvars));
            if rng.gen_bool(config.write_fraction) {
                if rng.gen_bool(0.5) {
                    PlannedOp::Write(x, rng.gen_range(0..config.value_range))
                } else {
                    PlannedOp::Bump(x)
                }
            } else {
                PlannedOp::Read(x)
            }
        })
        .collect();
    ClientScript::new(ops)
}

/// Digest of every client's [`Client::cursor`] — the client component of
/// the liveness checker's configuration keys: exactly the state that
/// determines all future invocations, with the commit/abort tallies
/// excluded (they differ between merged prefixes and influence nothing
/// the checker observes). Allocation-free: this sits on livecheck's
/// per-edge path.
pub(crate) fn clients_digest(clients: &[Client]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut hasher = tm_core::StableHasher::new();
    clients.len().hash(&mut hasher);
    for client in clients {
        client.cursor().hash(&mut hasher);
    }
    hasher.finish()
}

/// A snapshot of a [`Client`]'s execution state, taken by
/// [`Client::mark`] and consumed by [`Client::restore`].
#[derive(Debug, Clone, Copy)]
pub struct ClientMark {
    position: usize,
    last_read: Option<Value>,
    commits: usize,
    aborts: usize,
}

/// The execution state of a client: which operation of its current
/// transaction attempt is next.
#[derive(Debug, Clone)]
pub struct Client {
    script: ClientScript,
    position: usize,
    last_read: Option<Value>,
    /// Completed transactions.
    pub commits: usize,
    /// Aborted transaction attempts.
    pub aborts: usize,
}

impl Client {
    /// Creates a client that loops on `script`, retrying aborted
    /// transactions from the start (the paper's "keeps retrying" premise
    /// behind local progress).
    pub fn new(script: ClientScript) -> Self {
        Client {
            script,
            position: 0,
            last_read: None,
            commits: 0,
            aborts: 0,
        }
    }

    /// The invocation the client issues next.
    pub fn next_invocation(&self) -> Invocation {
        match self.script.ops().get(self.position) {
            Some(PlannedOp::Read(x)) => Invocation::Read(*x),
            Some(PlannedOp::Write(x, v)) => Invocation::Write(*x, *v),
            Some(PlannedOp::Bump(x)) => Invocation::Write(*x, self.last_read.map_or(1, |v| v + 1)),
            None => Invocation::TryCommit,
        }
    }

    /// Feeds the TM's response to the client, advancing (or restarting)
    /// its transaction.
    pub fn observe(&mut self, response: Response) {
        match response {
            Response::Aborted => {
                self.aborts += 1;
                self.position = 0;
                self.last_read = None;
            }
            Response::Committed => {
                self.commits += 1;
                self.position = 0;
                self.last_read = None;
            }
            Response::Value(v) => {
                self.last_read = Some(v);
                self.position += 1;
            }
            Response::Ok => {
                self.position += 1;
            }
        }
    }

    /// Snapshots the execution state (not the script, which is immutable
    /// during exploration). With [`Client::restore`] this lets the model
    /// checker backtrack one step in O(1) without cloning the client.
    pub fn mark(&self) -> ClientMark {
        ClientMark {
            position: self.position,
            last_read: self.last_read,
            commits: self.commits,
            aborts: self.aborts,
        }
    }

    /// Restores a snapshot taken by [`Client::mark`].
    pub fn restore(&mut self, mark: ClientMark) {
        self.position = mark.position;
        self.last_read = mark.last_read;
        self.commits = mark.commits;
        self.aborts = mark.aborts;
    }

    /// The client's transaction cursor: the operation position and the
    /// last read value — exactly the state that determines every future
    /// invocation. The commit/abort tallies are deliberately excluded
    /// (they are observation counters, not behaviour), which is what
    /// lets the liveness lasso search merge configurations reached by
    /// different prefixes.
    pub fn cursor(&self) -> (usize, Option<Value>) {
        (self.position, self.last_read)
    }

    /// Restarts the current transaction attempt without touching the
    /// commit/abort tallies. The liveness checker uses this to model
    /// *parasitic* processes (paper §2.3): instead of reaching the
    /// script's implicit `tryC`, a parasitic client loops its operations
    /// forever.
    pub fn restart_transaction(&mut self) {
        self.position = 0;
        self.last_read = None;
    }

    /// Whether the client is mid-transaction (has issued at least one
    /// operation of its current attempt).
    pub fn mid_transaction(&self) -> bool {
        self.position > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const X: TVarId = TVarId(0);
    const Y: TVarId = TVarId(1);

    #[test]
    fn increment_script_sequences_read_bump_commit() {
        let mut c = Client::new(ClientScript::increment(X));
        assert_eq!(c.next_invocation(), Invocation::Read(X));
        c.observe(Response::Value(4));
        assert_eq!(c.next_invocation(), Invocation::Write(X, 5));
        c.observe(Response::Ok);
        assert_eq!(c.next_invocation(), Invocation::TryCommit);
        c.observe(Response::Committed);
        assert_eq!(c.commits, 1);
        // New transaction starts over.
        assert_eq!(c.next_invocation(), Invocation::Read(X));
    }

    #[test]
    fn abort_restarts_the_attempt() {
        let mut c = Client::new(ClientScript::increment(X));
        c.observe(Response::Value(4));
        c.observe(Response::Aborted);
        assert_eq!(c.aborts, 1);
        assert_eq!(c.next_invocation(), Invocation::Read(X));
        assert!(!c.mid_transaction());
    }

    #[test]
    fn bump_without_read_writes_one() {
        let c = Client::new(ClientScript::new(vec![PlannedOp::Bump(X)]));
        assert_eq!(c.next_invocation(), Invocation::Write(X, 1));
    }

    #[test]
    fn transfer_script_touches_both_vars() {
        let s = ClientScript::transfer(X, Y);
        assert_eq!(s.ops().len(), 4);
    }

    #[test]
    fn random_scripts_respect_config() {
        let config = WorkloadConfig {
            tvars: 2,
            min_ops: 2,
            max_ops: 5,
            write_fraction: 1.0,
            value_range: 3,
        };
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let s = random_script(&config, &mut rng);
            assert!(s.ops().len() >= 2 && s.ops().len() <= 5);
            for op in s.ops() {
                match op {
                    PlannedOp::Read(_) => panic!("write_fraction = 1.0"),
                    PlannedOp::Write(x, v) => {
                        assert!(x.index() < 2);
                        assert!(*v < 3);
                    }
                    PlannedOp::Bump(x) => assert!(x.index() < 2),
                }
            }
        }
    }
}
