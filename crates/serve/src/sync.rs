//! Synchronization shim: the lock types `bear-serve` uses, imported
//! from here instead of `std::sync` (bear-lint rule L4, DESIGN.md §15),
//! so every lock in the serving crates goes through one audited place —
//! the same discipline as `bear_core`'s `sync` module. A plain
//! re-export: no runtime cost.

pub(crate) use std::sync::RwLock;
