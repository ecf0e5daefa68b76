//! Profile snapshots: the on-disk `profile.json` schema and its text
//! renderings for `slsb profile`.
//!
//! The raw tree comes from the [`slsb_sim::prof`] runtime; this module
//! wraps it with run-level context (wall time of the attributed window,
//! how much of it landed in named scopes) and renders three views:
//!
//! - [`Profile::render_tree`] — the nested tree, inclusive + exclusive
//!   time, calls, allocations, and percent-of-wall per scope;
//! - [`Profile::render_top`] — scopes flattened by path and ranked by
//!   *exclusive* time, the "where does the time actually go" view;
//! - [`Profile::render_collapsed`] — `path;to;scope <micros>` lines,
//!   the folded-stack format flamegraph tooling consumes.
//!
//! The unattributed remainder (wall minus the root scopes' inclusive
//! time) is always reported explicitly rather than silently absorbed.

use serde::{Deserialize, Serialize};
use slsb_sim::ProfileNode;
use std::fmt::Write as _;

/// Schema tag written into every profile JSON document.
pub const PROFILE_SCHEMA: &str = "slsb-profile/v1";

/// A complete profile snapshot for one attributed window (normally one
/// `slsb run` invocation: workload generation + execution + analysis).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Profile {
    /// Schema tag, [`PROFILE_SCHEMA`].
    pub schema: String,
    /// Wall-clock seconds of the attributed window.
    pub wall_secs: f64,
    /// Seconds landing in named root scopes (sum of root inclusive
    /// times). Under a parallel runner this can exceed `wall_secs`:
    /// worker threads accumulate concurrently.
    pub attributed_secs: f64,
    /// `max(0, wall - attributed)` — time the profiler saw no scope for.
    pub unattributed_secs: f64,
    /// Fraction of wall time attributed, capped at 1.
    pub attributed_frac: f64,
    /// The merged scope tree, roots and children sorted by label.
    pub roots: Vec<ProfileNode>,
}

impl Profile {
    /// Wraps a snapshot tree with wall-clock context.
    pub fn new(roots: Vec<ProfileNode>, wall_secs: f64) -> Profile {
        let attributed_secs: f64 = roots.iter().map(ProfileNode::secs).sum();
        let attributed_frac = if wall_secs > 0.0 {
            (attributed_secs / wall_secs).min(1.0)
        } else {
            0.0
        };
        Profile {
            schema: PROFILE_SCHEMA.to_string(),
            wall_secs,
            attributed_secs,
            unattributed_secs: (wall_secs - attributed_secs).max(0.0),
            attributed_frac,
            roots,
        }
    }

    /// Parses a profile document, checking the schema tag.
    pub fn from_json(text: &str) -> Result<Profile, String> {
        let p: Profile =
            serde_json::from_str(text).map_err(|e| format!("invalid profile JSON: {e}"))?;
        if !p.schema.starts_with("slsb-profile/") {
            return Err(format!("not a profile document (schema {:?})", p.schema));
        }
        Ok(p)
    }

    /// Pretty-printed JSON with a trailing newline.
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("profile serializes");
        s.push('\n');
        s
    }

    /// Every scope flattened to `(path, calls, exclusive nanos, inclusive
    /// nanos, allocs)`, depth-first in sorted label order.
    pub fn flatten(&self) -> Vec<FlatScope> {
        let mut out = Vec::new();
        for root in &self.roots {
            flatten_into(root, String::new(), &mut out);
        }
        out
    }

    /// The nested tree view.
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "wall          : {:.3}s\nattributed    : {:.3}s ({:.1}%)\nunattributed  : {:.3}s",
            self.wall_secs,
            self.attributed_secs,
            self.attributed_frac * 100.0,
            self.unattributed_secs,
        );
        let _ = writeln!(
            out,
            "\n{:<42} {:>9} {:>9} {:>6} {:>12} {:>10}",
            "scope", "incl", "excl", "%wall", "calls", "allocs"
        );
        for root in &self.roots {
            render_node(root, 0, self.wall_secs, &mut out);
        }
        out
    }

    /// Scopes ranked by exclusive time, top `n`.
    pub fn render_top(&self, n: usize) -> String {
        let mut flat = self.flatten();
        flat.sort_by_key(|f| std::cmp::Reverse(f.exclusive_nanos));
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<42} {:>9} {:>6} {:>12} {:>10}",
            "scope (by exclusive time)", "excl", "%wall", "calls", "allocs"
        );
        for s in flat.iter().take(n) {
            let pct = if self.wall_secs > 0.0 {
                s.exclusive_nanos as f64 / 1e9 / self.wall_secs * 100.0
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "{:<42} {:>8.3}s {:>5.1}% {:>12} {:>10}",
                s.path,
                s.exclusive_nanos as f64 / 1e9,
                pct,
                s.calls,
                s.allocs
            );
        }
        let unattr = self.unattributed_secs;
        if self.wall_secs > 0.0 {
            let _ = writeln!(
                out,
                "{:<42} {:>8.3}s {:>5.1}%",
                "(unattributed)",
                unattr,
                unattr / self.wall_secs * 100.0
            );
        }
        out
    }

    /// Folded-stack lines (`a;b;c <exclusive-micros>`), the format
    /// `flamegraph.pl`-style tooling consumes. Zero-weight scopes are
    /// skipped; the unattributed remainder gets its own line.
    pub fn render_collapsed(&self) -> String {
        let mut out = String::new();
        for s in self.flatten() {
            let micros = s.exclusive_nanos / 1_000;
            if micros > 0 {
                let _ = writeln!(out, "{} {}", s.path.replace('/', ";"), micros);
            }
        }
        let unattr_micros = (self.unattributed_secs * 1e6).round() as u64;
        if unattr_micros > 0 {
            let _ = writeln!(out, "(unattributed) {unattr_micros}");
        }
        out
    }
}

/// One flattened scope row: full `a/b/c` path plus totals.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatScope {
    /// Slash-joined label path from the root.
    pub path: String,
    /// Times the scope was entered.
    pub calls: u64,
    /// Exclusive wall nanos (children subtracted).
    pub exclusive_nanos: u64,
    /// Inclusive wall nanos.
    pub inclusive_nanos: u64,
    /// Inclusive allocations.
    pub allocs: u64,
}

fn flatten_into(node: &ProfileNode, prefix: String, out: &mut Vec<FlatScope>) {
    let path = if prefix.is_empty() {
        node.label.clone()
    } else {
        format!("{prefix}/{}", node.label)
    };
    out.push(FlatScope {
        path: path.clone(),
        calls: node.calls,
        exclusive_nanos: node.exclusive_nanos(),
        inclusive_nanos: node.nanos,
        allocs: node.allocs,
    });
    for c in &node.children {
        flatten_into(c, path.clone(), out);
    }
}

fn render_node(node: &ProfileNode, depth: usize, wall_secs: f64, out: &mut String) {
    let indent = "  ".repeat(depth);
    let pct = if wall_secs > 0.0 {
        node.secs() / wall_secs * 100.0
    } else {
        0.0
    };
    let label = format!("{indent}{}", node.label);
    let _ = writeln!(
        out,
        "{:<42} {:>8.3}s {:>8.3}s {:>5.1}% {:>12} {:>10}",
        label,
        node.secs(),
        node.exclusive_nanos() as f64 / 1e9,
        pct,
        node.calls,
        node.allocs
    );
    for c in &node.children {
        render_node(c, depth + 1, wall_secs, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Profile {
        let roots = vec![ProfileNode {
            label: "executor/cell".into(),
            calls: 2,
            nanos: 800_000_000,
            allocs: 40,
            children: vec![
                ProfileNode {
                    label: "kernel/pop".into(),
                    calls: 100,
                    nanos: 300_000_000,
                    allocs: 10,
                    children: vec![],
                },
                ProfileNode {
                    label: "platform/serverless".into(),
                    calls: 50,
                    nanos: 400_000_000,
                    allocs: 20,
                    children: vec![],
                },
            ],
        }];
        Profile::new(roots, 1.0)
    }

    #[test]
    fn attribution_accounts_for_the_remainder() {
        let p = sample();
        assert_eq!(p.schema, PROFILE_SCHEMA);
        assert!((p.attributed_secs - 0.8).abs() < 1e-9);
        assert!((p.unattributed_secs - 0.2).abs() < 1e-9);
        assert!((p.attributed_frac - 0.8).abs() < 1e-9);
    }

    #[test]
    fn json_round_trips_and_checks_schema() {
        let p = sample();
        let back = Profile::from_json(&p.to_json()).unwrap();
        assert_eq!(back, p);
        assert!(Profile::from_json("{\"schema\":\"nope\"}").is_err());
        assert!(Profile::from_json("not json").is_err());
    }

    #[test]
    fn flatten_builds_paths_and_exclusive_times() {
        let p = sample();
        let flat = p.flatten();
        let paths: Vec<&str> = flat.iter().map(|f| f.path.as_str()).collect();
        assert_eq!(
            paths,
            vec![
                "executor/cell",
                "executor/cell/kernel/pop",
                "executor/cell/platform/serverless"
            ]
        );
        // Exclusive of the root = 800ms - (300ms + 400ms).
        assert_eq!(flat[0].exclusive_nanos, 100_000_000);
    }

    #[test]
    fn renders_are_nonempty_and_mention_scopes() {
        let p = sample();
        let tree = p.render_tree();
        assert!(tree.contains("kernel/pop"), "{tree}");
        assert!(tree.contains("unattributed"), "{tree}");
        let top = p.render_top(10);
        assert!(top.contains("platform/serverless"), "{top}");
        assert!(top.contains("(unattributed)"), "{top}");
        let collapsed = p.render_collapsed();
        assert!(
            collapsed.contains("executor;cell;kernel;pop 300000"),
            "{collapsed}"
        );
        assert!(collapsed.contains("(unattributed) 200000"), "{collapsed}");
    }
}
