//! Deterministic fault-injection sites (the `failpoints` feature).
//!
//! The fault-tolerance layer claims that every fault class — corrupt
//! index, queue overload, worker panic, slow worker — maps to a typed
//! error or a degraded answer, never a hang or abort. Those paths only
//! fire when something actually breaks, so this module makes breakage
//! *injectable*: named sites in the serving path consult a global
//! registry and, when armed, panic, sleep, or fail on command. The
//! deterministic suite in `crates/core/tests/fault_injection.rs` drives
//! them.
//!
//! With the `failpoints` cargo feature disabled (the default), every
//! site compiles to nothing — the registry, the sites, and this module's
//! locking are all absent from production builds.
//!
//! Sites currently wired:
//!
//! * `persist::load` — start of [`crate::Bear::load`];
//! * `persist::save::write` — before the temp file is created; also
//!   honors [`FailAction::TruncateAt`] (once every byte is appended, cut
//!   the temp file to its first `k` and fail before the fsync — a crash
//!   mid-write);
//! * `persist::save::sync` — after the payload write, before `fsync`;
//! * `persist::save::rename` — before the atomic rename into place;
//! * `persist::save::torn` — consulted via [`armed`], not [`eval`]:
//!   [`FailAction::TruncateAt`]/[`FailAction::BitFlip`] corrupt the
//!   synced temp file and then let the rename *succeed* (a lying disk —
//!   save reports Ok, load must catch the damage);
//! * `queue::push` — engine request admission ([`crate::engine::QueryEngine`]);
//! * `queue::pop` — when a job starts being answered (pool worker or
//!   submitting thread), before deadline shedding;
//! * `engine::run_job` — inside each block's `catch_unwind`, before the
//!   query computation.

use std::collections::HashMap;
// lint:allow(L4, compiled under cfg(loom) too, where loom primitives panic outside a model)
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// What an armed failpoint does when its site is reached.
#[derive(Debug, Clone, PartialEq)]
pub enum FailAction {
    /// Panic with a recognizable message (exercises `catch_unwind`
    /// containment and the `worker_panics` accounting).
    Panic,
    /// Sleep for the given duration (simulates a slow worker or a slow
    /// I/O path, exercising deadline enforcement).
    Delay(Duration),
    /// Return an injected `Error::InvalidStructure` from the site
    /// (simulates e.g. a corrupt payload detected mid-operation).
    Fail,
    /// First sleep, then fail — a slow path that ultimately errors.
    DelayThenFail(Duration),
    /// Torn-write injection for the persist path: the artifact is cut to
    /// the first `k` bytes at the armed site. Only the dedicated persist
    /// sites (`persist::save::write`, `persist::save::torn`) interpret
    /// this; [`eval`] treats it as a no-op.
    TruncateAt(u64),
    /// Bit-rot injection for the persist path: the bit at absolute bit
    /// offset `k` (byte `k / 8`, bit `k % 8`) is flipped at the armed
    /// site. Only `persist::save::torn` interprets this; [`eval`] treats
    /// it as a no-op.
    BitFlip(u64),
}

fn registry() -> &'static Mutex<HashMap<&'static str, FailAction>> {
    static REGISTRY: OnceLock<Mutex<HashMap<&'static str, FailAction>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Arms `site` with `action`. Replaces any previous arming.
pub fn configure(site: &'static str, action: FailAction) {
    registry().lock().expect("failpoint registry poisoned").insert(site, action);
}

/// Disarms `site`.
pub fn clear(site: &str) {
    registry().lock().expect("failpoint registry poisoned").remove(site);
}

/// Disarms every site. Test suites call this between cases.
pub fn clear_all() {
    registry().lock().expect("failpoint registry poisoned").clear();
}

/// The action currently armed at `site`, if any.
pub fn armed(site: &str) -> Option<FailAction> {
    registry().lock().expect("failpoint registry poisoned").get(site).cloned()
}

/// Evaluates the site: sleeps on `Delay`, panics on `Panic`, and returns
/// the injected error on `Fail`. Call via [`crate::fail_point!`] so the
/// site disappears entirely when the feature is off.
pub fn eval(site: &'static str) -> bear_sparse::Result<()> {
    let Some(action) = armed(site) else { return Ok(()) };
    let fail = || {
        Err(bear_sparse::Error::InvalidStructure(format!("failpoint '{site}' injected failure")))
    };
    match action {
        FailAction::Panic => panic!("failpoint '{site}' injected panic"),
        FailAction::Delay(d) => {
            std::thread::sleep(d);
            Ok(())
        }
        FailAction::Fail => fail(),
        FailAction::DelayThenFail(d) => {
            std::thread::sleep(d);
            fail()
        }
        // Byte-surgery actions are meaningful only at the persist sites,
        // which consult `armed` directly; at a generic site they do
        // nothing rather than silently failing an unrelated operation.
        FailAction::TruncateAt(_) | FailAction::BitFlip(_) => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_round_trip() {
        configure("test::site", FailAction::Fail);
        assert_eq!(armed("test::site"), Some(FailAction::Fail));
        assert!(eval("test::site").is_err());
        clear("test::site");
        assert_eq!(armed("test::site"), None);
        assert!(eval("test::site").is_ok());
        configure("test::site", FailAction::Delay(Duration::from_millis(1)));
        configure("test::other", FailAction::Panic);
        clear_all();
        assert_eq!(armed("test::site"), None);
        assert_eq!(armed("test::other"), None);
    }
}
