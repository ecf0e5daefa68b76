//! Hierarchical self-profiler shared by the whole workspace.
//!
//! A *tree* of named scopes that accumulate inclusive wall time, entry
//! counts, and heap allocations. It is the workspace's only attribution
//! mechanism: per-subsystem allocation breakdowns (the fleet's `arrival
//! allocs`, the kernel/platform split that `alloc_attribution.rs` checks)
//! are read off the tree's nodes, next to [`crate::alloc`]'s process-wide total. Guards
//! are cheap enough to leave on every hot path:
//!
//! - **Disabled (the default)** a [`ProfGuard`] costs one relaxed atomic
//!   load and the allocator hook one relaxed load — instrumented hot
//!   paths stay honest when nobody is profiling.
//! - **Enabled** each guard stamps `Instant::now()` on entry and exit and
//!   charges the elapsed time to a per-thread tree node keyed by the
//!   nesting path of labels (`executor/cell` → `executor/engine` →
//!   `kernel/pop`, …). Nodes are found by a short linear scan of the
//!   parent's children, so steady-state profiling allocates only when a
//!   path is seen for the first time.
//!
//! Per-thread trees are flushed into a process-wide merged tree whenever
//! a thread's guard stack empties (i.e. its outermost scope closes), so
//! work done on the parallel runner's worker threads is captured without
//! any cross-thread coordination on the hot path. [`take`] snapshots the
//! merged tree — children sorted by label — and resets it.
//!
//! # Determinism
//!
//! The profiler never reads simulation state, touches an RNG, or changes
//! control flow: enabling it cannot perturb a run (traces stay
//! byte-identical). Conversely, the *shape* of the snapshot — the set of
//! label paths and each node's `calls` — is a pure function of the work
//! performed, so for a fixed seed and configuration it is identical
//! across `--jobs` / `--shards` worker budgets (the merge is additive
//! and the snapshot sorts children). Wall times and allocation counts
//! are measurements, not replayable quantities, and vary run to run.

use serde::{Deserialize, Serialize};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns profiling on or off. Off by default; `slsb run --profile` flips
/// it on for the run it wants attributed.
pub fn enable(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether profiling is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Per-thread allocation counter, bumped by the global allocator hook.

thread_local! {
    static TL_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Records one allocation on this thread's profiler counter. Called from
/// [`crate::alloc::note_alloc`] (i.e. inside `GlobalAlloc::alloc`), so it
/// must not allocate; a const-initialized `Cell` thread-local satisfies
/// that, and `try_with` keeps TLS-teardown allocations from panicking.
#[inline]
pub fn note_thread_alloc() {
    let _ = TL_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

#[inline]
fn thread_allocs() -> u64 {
    TL_ALLOCS.try_with(Cell::get).unwrap_or(0)
}

// ---------------------------------------------------------------------------
// Per-thread profile tree.

struct LocalNode {
    label: &'static str,
    /// Indices into `LocalTree::nodes`. Scopes nest a handful deep and
    /// have few distinct children, so a linear scan beats a map.
    children: Vec<u32>,
    calls: u64,
    nanos: u64,
    allocs: u64,
}

impl LocalNode {
    fn new(label: &'static str) -> LocalNode {
        LocalNode {
            label,
            children: Vec::new(),
            calls: 0,
            nanos: 0,
            allocs: 0,
        }
    }
}

struct LocalTree {
    /// `nodes[0]` is the sentinel root (empty label, never reported).
    nodes: Vec<LocalNode>,
    /// Active guard stack, innermost last.
    stack: Vec<u32>,
}

impl LocalTree {
    fn new() -> LocalTree {
        LocalTree {
            nodes: vec![LocalNode::new("")],
            stack: Vec::new(),
        }
    }

    fn child_of(&mut self, parent: u32, label: &'static str) -> u32 {
        for &c in &self.nodes[parent as usize].children {
            if self.nodes[c as usize].label == label {
                return c;
            }
        }
        let idx = self.nodes.len() as u32;
        self.nodes.push(LocalNode::new(label));
        self.nodes[parent as usize].children.push(idx);
        idx
    }
}

thread_local! {
    static TREE: RefCell<LocalTree> = RefCell::new(LocalTree::new());
}

// ---------------------------------------------------------------------------
// Process-wide merged tree.

#[derive(Default)]
struct MergedNode {
    calls: u64,
    nanos: u64,
    allocs: u64,
    children: BTreeMap<&'static str, MergedNode>,
}

static MERGED: Mutex<BTreeMap<&'static str, MergedNode>> = Mutex::new(BTreeMap::new());

fn merge_into(dst: &mut BTreeMap<&'static str, MergedNode>, tree: &LocalTree, node: u32) {
    for &c in &tree.nodes[node as usize].children {
        let child = &tree.nodes[c as usize];
        let slot = dst.entry(child.label).or_default();
        slot.calls += child.calls;
        slot.nanos += child.nanos;
        slot.allocs += child.allocs;
        merge_into(&mut slot.children, tree, c);
    }
}

fn flush_local(tree: &mut LocalTree) {
    if tree.nodes.len() == 1 {
        return;
    }
    {
        let mut merged = MERGED.lock().expect("profiler mutex poisoned");
        merge_into(&mut merged, tree, 0);
    }
    tree.nodes.clear();
    tree.nodes.push(LocalNode::new(""));
}

/// Discards all accumulated profile data (merged and this thread's
/// local tree). Call before the section you want to attribute.
pub fn reset() {
    TREE.with(|t| {
        let mut t = t.borrow_mut();
        debug_assert!(t.stack.is_empty(), "reset inside an active ProfGuard");
        t.nodes.clear();
        t.nodes.push(LocalNode::new(""));
    });
    MERGED.lock().expect("profiler mutex poisoned").clear();
}

/// Snapshots the merged profile tree as sorted root nodes and resets it.
/// Flushes the calling thread's local tree first; worker threads flush
/// themselves whenever their outermost guard closes, so by the time the
/// coordinating thread calls this every scoped region has landed.
pub fn take() -> Vec<ProfileNode> {
    TREE.with(|t| flush_local(&mut t.borrow_mut()));
    let mut merged = MERGED.lock().expect("profiler mutex poisoned");
    let out = std::mem::take(&mut *merged);
    drop(merged);
    out.into_iter()
        .map(|(label, n)| snapshot(label, n))
        .collect()
}

fn snapshot(label: &'static str, node: MergedNode) -> ProfileNode {
    ProfileNode {
        label: label.to_string(),
        calls: node.calls,
        nanos: node.nanos,
        allocs: node.allocs,
        children: node
            .children
            .into_iter()
            .map(|(l, n)| snapshot(l, n))
            .collect(),
    }
}

// ---------------------------------------------------------------------------
// Snapshot type.

/// One node of a profile snapshot: a named scope with inclusive totals
/// and its children sorted by label.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileNode {
    /// Scope label (e.g. `"kernel/pop"`).
    pub label: String,
    /// Times the scope was entered.
    pub calls: u64,
    /// Inclusive wall time, nanoseconds (children included).
    pub nanos: u64,
    /// Inclusive heap allocations on the owning thread.
    pub allocs: u64,
    /// Nested scopes, sorted by label.
    pub children: Vec<ProfileNode>,
}

impl ProfileNode {
    /// Inclusive wall time in seconds.
    pub fn secs(&self) -> f64 {
        self.nanos as f64 / 1e9
    }

    /// Exclusive wall time: inclusive minus the children's inclusive.
    /// Saturating, because a child timed on a different thread of the
    /// same merged path can (rarely) exceed the parent's own clock.
    pub fn exclusive_nanos(&self) -> u64 {
        self.nanos
            .saturating_sub(self.children.iter().map(|c| c.nanos).sum())
    }

    /// Looks a direct child up by label.
    pub fn child(&self, label: &str) -> Option<&ProfileNode> {
        self.children.iter().find(|c| c.label == label)
    }

    /// The tree with every measurement dropped: label paths and call
    /// counts only. Two runs of the same seed and configuration produce
    /// equal shapes; wall times and allocation counts differ.
    pub fn shape(&self) -> ProfileNode {
        ProfileNode {
            label: self.label.clone(),
            calls: self.calls,
            nanos: 0,
            allocs: 0,
            children: self.children.iter().map(ProfileNode::shape).collect(),
        }
    }
}

/// Sums the exclusive allocations (inclusive minus the children's
/// inclusive) of every node in the `roots` forest whose label satisfies
/// `pred`. An allocation is charged to the innermost open scope only, so
/// sums over disjoint label sets never count one twice.
pub fn exclusive_allocs_where(roots: &[ProfileNode], pred: &dyn Fn(&str) -> bool) -> u64 {
    roots
        .iter()
        .map(|n| {
            let own = if pred(&n.label) {
                n.allocs
                    .saturating_sub(n.children.iter().map(|c| c.allocs).sum())
            } else {
                0
            };
            own + exclusive_allocs_where(&n.children, pred)
        })
        .sum()
}

// ---------------------------------------------------------------------------
// The guard.

/// Charges this thread's wall time and allocations to `label` until
/// dropped. Inert — one relaxed load — while profiling is disabled.
///
/// Guards must be dropped in LIFO order; Rust scoping gives this for
/// free as long as a guard is bound to a local (`let _g = …`).
pub struct ProfGuard {
    start: Option<Instant>,
    start_allocs: u64,
    node: u32,
}

impl ProfGuard {
    /// Opens a scope nested under the innermost active scope on this
    /// thread (or at the root if none is active).
    #[inline]
    pub fn enter(label: &'static str) -> ProfGuard {
        if !ENABLED.load(Ordering::Relaxed) {
            return ProfGuard {
                start: None,
                start_allocs: 0,
                node: 0,
            };
        }
        Self::enter_at(label, false)
    }

    /// Opens a scope attached directly to the root, regardless of any
    /// scope currently active on this thread. Used for scopes whose
    /// placement must not depend on which thread runs them (a shard cell
    /// runs inline under `--jobs 1` but on a pool worker otherwise).
    #[inline]
    pub fn enter_root(label: &'static str) -> ProfGuard {
        if !ENABLED.load(Ordering::Relaxed) {
            return ProfGuard {
                start: None,
                start_allocs: 0,
                node: 0,
            };
        }
        Self::enter_at(label, true)
    }

    #[cold]
    fn enter_at(label: &'static str, at_root: bool) -> ProfGuard {
        let node = TREE.with(|t| {
            let mut t = t.borrow_mut();
            let parent = if at_root {
                0
            } else {
                t.stack.last().copied().unwrap_or(0)
            };
            let node = t.child_of(parent, label);
            t.stack.push(node);
            node
        });
        ProfGuard {
            start: Some(Instant::now()),
            start_allocs: thread_allocs(),
            node,
        }
    }

    /// Closes an enabled scope: charges its time and allocations to its
    /// node and pops it off this thread's stack.
    #[cold]
    #[inline(never)]
    fn exit(&self, start: Instant) {
        let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let allocs = thread_allocs().wrapping_sub(self.start_allocs);
        let node = self.node;
        TREE.with(|t| {
            let mut t = t.borrow_mut();
            let popped = t.stack.pop();
            debug_assert_eq!(popped, Some(node), "ProfGuard dropped out of order");
            let n = &mut t.nodes[node as usize];
            n.calls += 1;
            n.nanos += nanos;
            n.allocs += allocs;
            if t.stack.is_empty() {
                flush_local(&mut t);
            }
        });
    }
}

impl Drop for ProfGuard {
    /// One inlined branch while profiling is disabled; the bookkeeping
    /// stays out of line.
    #[inline]
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.exit(start);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every label this test opens, nested ones included, so a scope
    /// that wrongly surfaces as a root still fails the checks below.
    const OWN: [&str; 10] = [
        "a", "a/b", "b", "root2", "w", "x", "outer", "detached", "cell", "kernel",
    ];

    /// The roots this test created. The enabled flag and merged tree are
    /// process-global, so while profiling is on, the event-queue tests
    /// running concurrently flush their own `kernel/*` roots into the
    /// same tree; only the labels opened here are asserted on.
    fn own(roots: Vec<ProfileNode>) -> Vec<ProfileNode> {
        roots
            .into_iter()
            .filter(|r| OWN.contains(&r.label.as_str()))
            .collect()
    }

    // One test, not several: the enabled flag and merged tree are
    // process-global and the harness runs tests concurrently. (The
    // repo-level `tests/profiler.rs` suite exercises the executor
    // integration in its own process.)
    #[test]
    fn guards_build_a_tree_and_disabled_guards_are_inert() {
        // Disabled: no state accumulates.
        enable(false);
        reset();
        {
            let _a = ProfGuard::enter("a");
            let _b = ProfGuard::enter("a/b");
        }
        assert!(own(take()).is_empty());

        // Enabled: nesting shapes the tree, counts accumulate.
        enable(true);
        reset();
        for _ in 0..3 {
            let _a = ProfGuard::enter("a");
            {
                let _b = ProfGuard::enter("b");
            }
            {
                let _b = ProfGuard::enter("b");
            }
        }
        {
            let _r = ProfGuard::enter_root("root2");
        }
        enable(false);
        let roots = own(take());
        assert_eq!(roots.len(), 2, "{roots:?}");
        let a = roots.iter().find(|r| r.label == "a").expect("root a");
        assert_eq!(a.calls, 3);
        assert_eq!(a.children.len(), 1);
        assert_eq!(a.children[0].label, "b");
        assert_eq!(a.children[0].calls, 6);
        assert!(a.nanos >= a.children[0].nanos);
        assert!(roots.iter().any(|r| r.label == "root2"));

        // Shapes of identical work are equal even though times differ.
        enable(true);
        reset();
        let work = || {
            let _a = ProfGuard::enter("w");
            let _b = ProfGuard::enter("x");
        };
        work();
        let s1: Vec<ProfileNode> = own(take()).iter().map(ProfileNode::shape).collect();
        work();
        let s2: Vec<ProfileNode> = own(take()).iter().map(ProfileNode::shape).collect();
        enable(false);
        assert_eq!(s1.len(), 1, "{s1:?}");
        assert_eq!(s1, s2);

        // enter_root detaches from the active scope.
        enable(true);
        reset();
        {
            let _outer = ProfGuard::enter("outer");
            let _detached = ProfGuard::enter_root("detached");
        }
        enable(false);
        let roots = own(take());
        assert_eq!(roots.len(), 2, "{roots:?}");
        assert!(roots.iter().all(|r| r.children.is_empty()), "{roots:?}");

        // Worker threads flush on their own when the outermost scope
        // closes, so `take` on the main thread sees their work merged.
        enable(true);
        reset();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    let _c = ProfGuard::enter_root("cell");
                    let _k = ProfGuard::enter("kernel");
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        enable(false);
        let roots = own(take());
        assert_eq!(roots.len(), 1, "{roots:?}");
        let cell = roots.iter().find(|r| r.label == "cell").expect("cell root");
        assert_eq!(cell.calls, 4);
        assert_eq!(cell.children[0].calls, 4);

        // Snapshots serialize and round-trip.
        let json = serde_json::to_string(&cell).unwrap();
        let back: ProfileNode = serde_json::from_str(&json).unwrap();
        assert_eq!(&back, cell);
    }
}
