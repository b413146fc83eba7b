//! The correctness gate: every answer the server returns is compared
//! bit for bit with an in-process `Bear` built from the same edge list.
//! Bodies are parsed here, after the timed phase, never inside it.

use bear_core::{Bear, ScoredNode};
use std::collections::HashMap;

/// Scalar after `"key":` at the start of `s`, and the rest of `s`.
fn number_after<'a>(s: &'a str, key: &str) -> Option<(&'a str, &'a str)> {
    let needle = format!("\"{key}\":");
    let start = s.find(&needle)? + needle.len();
    let rest = &s[start..];
    let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
    Some((rest[..end].trim(), &rest[end..]))
}

/// `(node, score)` pairs of a `/v1/topk` body.
pub fn parse_topk(body: &str) -> Option<Vec<(usize, f64)>> {
    let mut rest = &body[body.find("\"nodes\":[")?..];
    let mut out = Vec::new();
    while let Some((node, after)) = number_after(rest, "node") {
        let (score, after) = number_after(after, "score")?;
        out.push((node.parse().ok()?, score.parse().ok()?));
        rest = after;
    }
    Some(out)
}

/// `(seed, scores)` pairs of a `/v1/batch` body.
pub fn parse_batch(body: &str) -> Option<Vec<(usize, Vec<f64>)>> {
    let mut rest = &body[body.find("\"results\":[")?..];
    let mut out = Vec::new();
    while let Some((seed, after)) = number_after(rest, "seed") {
        let start = after.find("\"scores\":[")? + "\"scores\":[".len();
        let len = after[start..].find(']')?;
        let scores = after[start..start + len]
            .split(',')
            .map(|v| v.parse().ok())
            .collect::<Option<Vec<f64>>>()?;
        out.push((seed.parse().ok()?, scores));
        rest = &after[start + len..];
    }
    Some(out)
}

/// Reference answers, computed once per distinct seed.
pub struct Reference<'a> {
    bear: &'a Bear,
    topk: HashMap<usize, Vec<ScoredNode>>,
}

impl<'a> Reference<'a> {
    pub fn new(bear: &'a Bear) -> Self {
        Reference { bear, topk: HashMap::new() }
    }

    /// Node order and score bits equal `query_top_k_pruned(seed, k)`.
    pub fn topk_matches(&mut self, seed: usize, k: usize, body: &[u8]) -> bool {
        let Some(got) = std::str::from_utf8(body).ok().and_then(parse_topk) else {
            return false;
        };
        let bear = self.bear;
        let want = self
            .topk
            .entry(seed)
            .or_insert_with(|| bear.query_top_k_pruned(seed, k).unwrap_or_default());
        want.len() == got.len()
            && want
                .iter()
                .zip(&got)
                .all(|(w, g)| w.node == g.0 && w.score.to_bits() == g.1.to_bits())
    }

    /// Every vector of a batch body equals `Bear::query` bit for bit,
    /// for exactly the seeds asked, in order.
    pub fn batch_matches(&self, seeds: &[usize], body: &[u8]) -> bool {
        let Some(got) = std::str::from_utf8(body).ok().and_then(parse_batch) else {
            return false;
        };
        got.len() == seeds.len()
            && got.iter().zip(seeds).all(|((seed, scores), want_seed)| {
                let Ok(want) = self.bear.query(*want_seed) else { return false };
                seed == want_seed
                    && want.len() == scores.len()
                    && want.iter().zip(scores).all(|(w, g)| w.to_bits() == g.to_bits())
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_server_bodies() {
        let topk = r#"{"version":2,"seed":7,"k":2,"nodes":[{"node":3,"score":0.5},{"node":11,"score":1e-7}]}"#;
        assert_eq!(parse_topk(topk), Some(vec![(3, 0.5), (11, 1e-7)]));
        assert_eq!(parse_topk(r#"{"nodes":[]}"#), Some(vec![]));
        let batch = r#"{"version":1,"count":2,"degraded":0,"results":[{"seed":4,"scores":[0.25,0.75]},{"seed":9,"scores":[1,0]}]}"#;
        assert_eq!(parse_batch(batch), Some(vec![(4, vec![0.25, 0.75]), (9, vec![1.0, 0.0])]));
        assert_eq!(parse_topk(r#"{"error":"x"}"#), None);
    }
}
