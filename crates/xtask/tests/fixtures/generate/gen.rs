//! L6 fixture: std hash collections in a generator (true positives)
//! and order-stable collections that are fine (true negatives). Never
//! compiled — parsed by the lint tests only.

// True positive ×1: the import.
use std::collections::HashSet;
// True negatives: ordered collections keep iteration order fixed.
use std::collections::{BTreeMap, BTreeSet};

/// True positives ×2: a fully qualified map and the imported set.
pub fn tp_targets(n: usize) -> Vec<usize> {
    let mut seen: std::collections::HashMap<usize, usize> = Default::default();
    let mut chosen = HashSet::new();
    for v in 0..n {
        seen.insert(v, v);
        chosen.insert(v);
    }
    chosen.into_iter().collect()
}

/// True negative: a `Vec` in draw order and a `BTreeSet`, and the names
/// only in a comment ("HashMap") or a string.
pub fn tn_ordered(n: usize) -> (Vec<usize>, BTreeSet<usize>, BTreeMap<usize, &'static str>) {
    let chosen: Vec<usize> = (0..n).collect();
    let mut label = BTreeMap::new();
    label.insert(0, "HashSet");
    (chosen, (0..n).collect(), label)
}

/// True negative: the reasoned allow suppresses its finding.
pub fn tn_allowed() -> usize {
    // lint:allow(L6, membership only, never iterated)
    let set: std::collections::HashSet<usize> = Default::default();
    set.len()
}

#[cfg(test)]
mod tests {
    // True negative: test code builds nothing.
    use std::collections::HashMap;
}
