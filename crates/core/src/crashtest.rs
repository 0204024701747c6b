//! Crash-restart testing: the simulated process death and the
//! end-to-end durability auditor.
//!
//! The simulator's [`CrashSwitch`](hyrd_cloudsim::CrashSwitch) makes every provider op after a
//! chosen boundary fail with [`CloudError::Crashed`]. This module turns
//! that error into an actual control-flow death — a panic carrying
//! [`ClientCrashed`] that no dispatcher code catches — and provides the
//! [`CrashHarness`] that catches it instead, restarts the client from
//! its crash journal ([`Hyrd::restart`]), and audits the durability
//! contract:
//!
//! * every **acked** file reads back byte-identical to the oracle;
//! * the op in flight at the crash is **atomic**: the file is observed
//!   either entirely pre-op or entirely post-op, never torn;
//! * no provider object is **orphaned** once restart GC has run;
//! * provider **cost accounting** matches the objects actually stored.
//!
//! The oracle is a shadow filesystem built from the same deterministic
//! content synthesis as the replay driver, so the expected bytes of any
//! (path, version) are known without storing per-op history.

use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

use hyrd_cloudsim::Fleet;
use hyrd_gcsapi::{CloudError, CloudStorage};
use hyrd_telemetry::Collector;
use hyrd_workloads::FsOp;

use crate::config::HyrdConfig;
use crate::dispatcher::Hyrd;
use crate::driver::synth_content;
use crate::journal::Journal;
use crate::restart::RestartReport;
use crate::scheme::SchemeResult;

/// The panic payload of a simulated process death. Nothing in the
/// dispatcher catches it; the harness (and only the harness) does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientCrashed;

/// Escalates an injected [`CloudError::Crashed`] into the simulated
/// process death. Called at every point where dispatcher code observes
/// a provider error *before* any fault tolerance (retry, failover,
/// update logging) can treat the dead client's op as a provider fault.
pub(crate) fn escalate_if_crashed(e: &CloudError) {
    if matches!(e, CloudError::Crashed { .. }) {
        panic::panic_any(ClientCrashed);
    }
}

static QUIET_HOOK: Once = Once::new();

/// Installs a panic hook that suppresses the default "thread panicked"
/// report for [`ClientCrashed`] panics (a torture sweep takes thousands
/// of them) while leaving every other panic's report intact. Idempotent.
pub fn silence_crash_panics() {
    QUIET_HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !info.payload().is::<ClientCrashed>() {
                prev(info);
            }
        }));
    });
}

/// What one executed op came to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpOutcome {
    /// The scheme acked the op; its effects are guaranteed durable.
    Acked,
    /// The scheme refused the op (e.g. update of a missing file).
    Refused,
    /// The client died mid-op. The op's effects are indeterminate until
    /// [`CrashHarness::restart_and_audit`] resolves them by observation.
    Crashed,
}

/// One oracle file: the content the client must serve and the driver
/// version counter that generates the next update's bytes.
#[derive(Debug, Clone)]
struct OracleFile {
    content: Vec<u8>,
    version: u32,
}

/// An unresolved crashed op: the set of states the file may legally be
/// in, resolved by reading it back after restart. `None` = absent.
#[derive(Debug, Clone)]
struct PendingPin {
    path: String,
    variants: Vec<Option<OracleFile>>,
}

/// The crash-restart harness (see module docs). Drives a trace op by op
/// against a journaled [`Hyrd`] client, catches injected crashes,
/// restarts from the journal and audits durability.
pub struct CrashHarness {
    fleet: Fleet,
    config: HyrdConfig,
    telemetry: Collector,
    journal: Journal,
    client: Option<Hyrd>,
    oracle: BTreeMap<String, OracleFile>,
    pending_pin: Option<PendingPin>,
    /// Whether a failing read during audit is itself a violation. True
    /// on a clean fleet (torture); false while chaos faults are live.
    strict_reads: bool,
    violations: Vec<String>,
    restart_reports: Vec<RestartReport>,
    acked: u64,
    refused: u64,
    crashes: u64,
}

impl CrashHarness {
    /// Builds the harness and its journaled client. Arm the fleet's
    /// crash switch *after* this returns: construction probes every
    /// provider (evaluator assessment) and those ops must not crash —
    /// a real client that dies before serving anything is trivially
    /// durable and not worth a sweep cell.
    pub fn new(fleet: &Fleet, config: HyrdConfig, telemetry: Collector) -> SchemeResult<Self> {
        silence_crash_panics();
        let journal = Journal::new();
        let client = Hyrd::with_journal(fleet, config.clone(), telemetry.clone(), journal.clone())?;
        Ok(CrashHarness {
            fleet: fleet.clone(),
            config,
            telemetry,
            journal,
            client: Some(client),
            oracle: BTreeMap::new(),
            pending_pin: None,
            strict_reads: true,
            violations: Vec::new(),
            restart_reports: Vec::new(),
            acked: 0,
            refused: 0,
            crashes: 0,
        })
    }

    /// Relaxes audit reads for runs with live injected faults (chaos
    /// composition): an unreadable file is retried at the next audit
    /// instead of being flagged immediately.
    pub fn set_strict_reads(&mut self, strict: bool) {
        self.strict_reads = strict;
    }

    /// Whether the client is currently dead (crashed, not yet
    /// restarted).
    pub fn is_dead(&self) -> bool {
        self.client.is_none()
    }

    /// Executes one op. Must not be called while dead.
    pub fn execute(&mut self, op: &FsOp) -> OpOutcome {
        let result = {
            let client = self.client.as_ref().expect("client is dead; restart first");
            let oracle = &self.oracle;
            panic::catch_unwind(AssertUnwindSafe(|| -> SchemeResult<()> {
                match op {
                    FsOp::Create { path, size } => {
                        let data = synth_content(path, 0, *size as usize);
                        client.create_file(path, &data).map(|_| ())
                    }
                    FsOp::Read { path } => client.read_file(path).map(|_| ()),
                    FsOp::Update { path, offset, len } => {
                        let version = oracle.get(path.as_str()).map_or(1, |f| f.version);
                        let data = synth_content(path, version, *len as usize);
                        client.update_file(path, *offset, &data).map(|_| ())
                    }
                    FsOp::Delete { path } => client.delete_file(path).map(|_| ()),
                    FsOp::ListDir { path } => client.list_dir(path).map(|_| ()),
                }
            }))
        };
        match result {
            Ok(Ok(())) => {
                self.apply_oracle(op);
                self.acked += 1;
                OpOutcome::Acked
            }
            Ok(Err(_)) => {
                self.refused += 1;
                OpOutcome::Refused
            }
            Err(payload) => {
                if !payload.is::<ClientCrashed>() {
                    // A genuine bug, not an injected crash — re-raise.
                    panic::resume_unwind(payload);
                }
                self.crashes += 1;
                self.client = None;
                self.pending_pin = Some(self.pin_variants(op));
                OpOutcome::Crashed
            }
        }
    }

    /// Applies an acked op to the oracle.
    fn apply_oracle(&mut self, op: &FsOp) {
        match op {
            FsOp::Create { path, size } => {
                self.oracle.insert(
                    path.clone(),
                    OracleFile { content: synth_content(path, 0, *size as usize), version: 1 },
                );
            }
            FsOp::Update { path, offset, len } => {
                if let Some(f) = self.oracle.get_mut(path) {
                    let data = synth_content(path, f.version, *len as usize);
                    let off = *offset as usize;
                    f.content[off..off + data.len()].copy_from_slice(&data);
                    f.version += 1;
                }
            }
            FsOp::Delete { path } => {
                self.oracle.remove(path);
            }
            FsOp::Read { .. } | FsOp::ListDir { .. } => {}
        }
    }

    /// The legal post-restart states of the op the client died in.
    fn pin_variants(&self, op: &FsOp) -> PendingPin {
        match op {
            FsOp::Create { path, size } => PendingPin {
                path: path.clone(),
                variants: vec![
                    None,
                    Some(OracleFile {
                        content: synth_content(path, 0, *size as usize),
                        version: 1,
                    }),
                ],
            },
            FsOp::Update { path, offset, len } => match self.oracle.get(path.as_str()) {
                Some(old) => {
                    let mut new = old.clone();
                    let data = synth_content(path, old.version, *len as usize);
                    let off = *offset as usize;
                    new.content[off..off + data.len()].copy_from_slice(&data);
                    new.version += 1;
                    PendingPin { path: path.clone(), variants: vec![Some(old.clone()), Some(new)] }
                }
                None => PendingPin { path: path.clone(), variants: vec![None] },
            },
            FsOp::Delete { path } => PendingPin {
                path: path.clone(),
                variants: vec![self.oracle.get(path.as_str()).cloned(), None],
            },
            // Reads mutate nothing the oracle tracks (a hot-copy install
            // is caught by the orphan audit, not the content audit).
            FsOp::Read { path } | FsOp::ListDir { path } => PendingPin {
                path: path.clone(),
                variants: vec![self.oracle.get(path.as_str()).cloned()],
            },
        }
    }

    /// Disarms the crash switch, restarts the client from the journal,
    /// resolves the crashed op by observation and runs the audit.
    /// Also usable on a live client (a "gratuitous" restart must be a
    /// no-op — that is itself part of the contract).
    pub fn restart_and_audit(&mut self) -> RestartReport {
        self.fleet.crash_switch().reset();
        self.client = None;
        let report = match Hyrd::restart(
            &self.fleet,
            self.config.clone(),
            self.telemetry.clone(),
            self.journal.clone(),
        ) {
            Ok((client, report)) => {
                self.client = Some(client);
                report
            }
            Err(e) => {
                self.violations.push(format!("restart failed: {e}"));
                return RestartReport::default();
            }
        };
        self.restart_reports.push(report.clone());
        self.resolve_pending_pin();
        self.audit();
        report
    }

    /// Resolves the indeterminate op (if any) against observed state.
    fn resolve_pending_pin(&mut self) {
        let Some(pin) = self.pending_pin.take() else {
            return;
        };
        let Some(client) = &self.client else { return };
        let path = pin.path.as_str();
        let observed_size = client.file_size(path);
        if observed_size.is_none() {
            if pin.variants.iter().any(|v| v.is_none()) {
                self.oracle.remove(path);
            } else {
                self.violations.push(format!(
                    "atomicity: '{path}' vanished, but absence is not a legal outcome \
                     of the crashed op"
                ));
            }
            return;
        }
        match client.read_file(path) {
            Ok((bytes, _)) => {
                let matched = pin
                    .variants
                    .iter()
                    .flatten()
                    .find(|v| v.content.as_slice() == &bytes[..])
                    .cloned();
                match matched {
                    Some(v) => {
                        self.oracle.insert(pin.path, v);
                    }
                    None => self.violations.push(format!(
                        "atomicity: '{path}' reads back {} bytes matching neither the \
                         pre-op nor the post-op content (torn op)",
                        bytes.len()
                    )),
                }
            }
            Err(e) if self.strict_reads => self.violations.push(format!(
                "atomicity: '{path}' exists in metadata but is unreadable after \
                 restart: {e}"
            )),
            Err(_) => {
                // Faults still live: retry at the next audit.
                self.pending_pin = Some(pin);
            }
        }
    }

    /// Runs the durability audit against the current client. Violations
    /// accumulate in [`violations`](Self::violations).
    pub fn audit(&mut self) {
        let Some(client) = self.client.take() else {
            return;
        };

        // 1. Content: every oracle file reads back byte-identical.
        for (path, f) in &self.oracle {
            match client.file_size(path) {
                Some(size) if size == f.content.len() as u64 => {}
                Some(size) => self.violations.push(format!(
                    "durability: '{path}' metadata size {size} != oracle {}",
                    f.content.len()
                )),
                None => {
                    self.violations
                        .push(format!("durability: acked file '{path}' lost from metadata"));
                    continue;
                }
            }
            match client.read_file(path) {
                Ok((bytes, _)) => {
                    if &bytes[..] != f.content.as_slice() {
                        self.violations.push(format!(
                            "durability: '{path}' content diverged from the acked \
                             bytes ({} vs {} bytes)",
                            bytes.len(),
                            f.content.len()
                        ));
                    }
                }
                Err(e) if self.strict_reads => {
                    self.violations.push(format!("durability: acked file '{path}' unreadable: {e}"))
                }
                Err(_) => {}
            }
        }

        // 2. Orphans: every stored object is referenced by some inode,
        // hot copy or metadata block. (Reads above may have installed
        // hot copies, so references are collected after them.) Only
        // checked in strict mode: while faults are live, restart GC is
        // gated off, so e.g. a hot copy dropped by a crashed install
        // legitimately lingers until the final clean restart.
        if self.strict_reads {
            let refs = client.audit_references();
            for p in self.fleet.available() {
                for (name, _) in p.object_inventory(Fleet::CONTAINER) {
                    if !refs.contains(&name) {
                        self.violations.push(format!(
                            "orphan: provider#{} holds unreferenced object '{name}'",
                            p.id().0
                        ));
                    }
                }
            }
        }

        // 3. Cost accounting: the billed byte count equals the bytes of
        // the objects actually stored.
        for p in self.fleet.providers() {
            let inventory: u64 =
                p.object_inventory(Fleet::CONTAINER).iter().map(|(_, len)| *len).sum();
            if p.stored_bytes() != inventory {
                self.violations.push(format!(
                    "accounting: provider#{} bills {} stored bytes but holds {}",
                    p.id().0,
                    p.stored_bytes(),
                    inventory
                ));
            }
        }

        self.client = Some(client);
    }

    /// Replays pending logs onto every available provider (quiesce step
    /// before a final strict audit). An armed crash plan can fire here
    /// too — maintenance is made of provider ops like any other — so the
    /// sweep is caught exactly like a crash inside [`execute`](Self::execute)
    /// (no pending pin: maintenance mutates no acked content).
    pub fn recover_all(&mut self) {
        let Some(client) = self.client.take() else {
            return;
        };
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            for p in self.fleet.available() {
                let _ = client.recover_provider(p.id());
            }
        }));
        match result {
            Ok(()) => self.client = Some(client),
            Err(payload) => {
                if !payload.is::<ClientCrashed>() {
                    panic::resume_unwind(payload);
                }
                self.crashes += 1;
            }
        }
    }

    /// Runs one policy migration pass ([`Hyrd::migrate_pass`]) under
    /// crash injection. Like [`recover_all`](Self::recover_all), an
    /// armed plan can kill the client at any migration crashpoint
    /// (`migrate.publish.pre`, `migrate.flip.pre/post`,
    /// `migrate.gc.pre/post`) or provider op; no pending pin is taken
    /// because a migration re-encodes acked bytes without changing them
    /// — whichever placement survives the restart must still serve the
    /// oracle content, which the ordinary audit checks.
    pub fn migrate_pass(&mut self) -> Option<crate::policy::MigrationReport> {
        let client = self.client.take()?;
        let result =
            panic::catch_unwind(AssertUnwindSafe(|| client.migrate_pass().map(|(r, _)| r)));
        match result {
            Ok(outcome) => {
                self.client = Some(client);
                outcome.ok()
            }
            Err(payload) => {
                if !payload.is::<ClientCrashed>() {
                    panic::resume_unwind(payload);
                }
                self.crashes += 1;
                None
            }
        }
    }

    /// The final, strict audit: quiesces recovery state, requires the
    /// pending log to be fully drained, then audits.
    /// Call with all faults cleared and every provider restored.
    pub fn final_audit(&mut self) {
        self.strict_reads = true;
        // Always restart, dead or not: a clean full-availability restart
        // runs the orphan GC (gated off while providers are down), and a
        // gratuitous restart being a no-op is itself part of the
        // durability contract.
        self.restart_and_audit();
        self.recover_all();
        if let Some(pin) = &self.pending_pin {
            let path = pin.path.clone();
            self.resolve_pending_pin();
            if self.pending_pin.is_some() {
                self.violations
                    .push(format!("atomicity: crashed op on '{path}' never became resolvable"));
                self.pending_pin = None;
            }
        }
        if let Some(client) = &self.client {
            let pending = client.pending_log_len();
            if pending != 0 {
                self.violations.push(format!(
                    "recovery: {pending} pending log records remain after full recovery"
                ));
            }
        }
        self.audit();
    }

    /// Durability violations found so far.
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// Per-restart reports, in order.
    pub fn restart_reports(&self) -> &[RestartReport] {
        &self.restart_reports
    }

    /// (acked, refused, crashed) op tallies.
    pub fn tallies(&self) -> (u64, u64, u64) {
        (self.acked, self.refused, self.crashes)
    }

    /// Paths the oracle currently tracks (acked, live files).
    pub fn oracle_len(&self) -> usize {
        self.oracle.len()
    }
}
