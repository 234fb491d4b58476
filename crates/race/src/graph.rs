//! The lock-order graph: observed acquisition edges, rank violations,
//! and cycle detection over them.

use crate::Site;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex as StdMutex, OnceLock, PoisonError};

/// One observed "A held while acquiring B" edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeReport {
    /// Site already held.
    pub from: &'static str,
    /// Site acquired while `from` was held.
    pub to: &'static str,
    /// Rank of `from`.
    pub from_rank: u16,
    /// Rank of `to`.
    pub to_rank: u16,
    /// Name of the first thread observed taking this edge.
    pub first_thread: String,
}

/// An acquisition that broke the rank discipline: the acquired site's
/// rank was not strictly greater than a site already held. A same-site
/// entry (`held == acquired`) means the site was re-acquired while held.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankViolation {
    /// Site already held.
    pub held: &'static str,
    /// Rank of the held site.
    pub held_rank: u16,
    /// Site whose acquisition violated the order.
    pub acquired: &'static str,
    /// Rank of the acquired site.
    pub acquired_rank: u16,
    /// Name of the first thread observed committing the violation.
    pub first_thread: String,
}

/// A set of sites whose observed acquisition orders form a cycle — a
/// potential deadlock even if no run ever deadlocked. `edges` lists the
/// conflicting orders with the contexts that took each direction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cycle {
    /// The sites in the cycle, sorted by name.
    pub sites: Vec<&'static str>,
    /// Every observed edge internal to the cycle.
    pub edges: Vec<EdgeReport>,
}

#[derive(Default)]
struct GraphState {
    /// site name -> rank, for every site ever acquired.
    sites: BTreeMap<&'static str, u16>,
    /// (held, acquired) -> first observation.
    edges: BTreeMap<(&'static str, &'static str), EdgeReport>,
    violations: BTreeMap<(&'static str, &'static str), RankViolation>,
}

/// A handle to one lock-order graph. Cloning is cheap; all clones refer
/// to the same graph. Locks report into the graph they were constructed
/// against — [`LockGraph::global`] unless [`crate::Mutex::new_in`] bound
/// them elsewhere.
#[derive(Clone)]
pub struct LockGraph {
    /// Unique per graph instance; never reused, unlike the `Arc`'s
    /// address, so per-thread dedup caches keyed by it stay correct
    /// when a dropped graph's allocation is recycled.
    id: usize,
    state: Arc<StdMutex<GraphState>>,
}

impl Default for LockGraph {
    fn default() -> Self {
        LockGraph::new()
    }
}

impl LockGraph {
    /// Creates an empty private graph (for fixtures and tests).
    pub fn new() -> Self {
        static NEXT_ID: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(1);
        LockGraph {
            id: NEXT_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            state: Arc::new(StdMutex::new(GraphState::default())),
        }
    }

    /// The process-wide graph every instrumented lock reports to by
    /// default. Release gates assert this graph stays acyclic and
    /// rank-clean across the whole test suite.
    pub fn global() -> &'static LockGraph {
        static GLOBAL: OnceLock<LockGraph> = OnceLock::new();
        GLOBAL.get_or_init(LockGraph::new)
    }

    /// Stable identity of this graph, used by the thread-local held
    /// stack and dedup caches to separate graphs.
    pub(crate) fn id(&self) -> usize {
        self.id
    }

    fn state(&self) -> std::sync::MutexGuard<'_, GraphState> {
        // The graph's own lock is a leaf: nothing is acquired while it
        // is held, so it cannot participate in the orders it audits.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records one acquisition of `site` while `held_new` (the not-yet-
    /// recorded subset of the thread's held stack for this graph) was
    /// held. Called by the wrappers; deduplicated per thread upstream.
    pub(crate) fn record_acquire(&self, held_new: &[Site], site: Site, thread: &str) {
        let mut st = self.state();
        st.sites.entry(site.name).or_insert(site.rank);
        for h in held_new {
            st.sites.entry(h.name).or_insert(h.rank);
            if h.name != site.name {
                st.edges
                    .entry((h.name, site.name))
                    .or_insert_with(|| EdgeReport {
                        from: h.name,
                        to: site.name,
                        from_rank: h.rank,
                        to_rank: site.rank,
                        first_thread: thread.to_string(),
                    });
            }
            if h.rank >= site.rank {
                st.violations
                    .entry((h.name, site.name))
                    .or_insert_with(|| RankViolation {
                        held: h.name,
                        held_rank: h.rank,
                        acquired: site.name,
                        acquired_rank: site.rank,
                        first_thread: thread.to_string(),
                    });
            }
        }
    }

    /// Number of distinct sites observed.
    pub fn site_count(&self) -> usize {
        self.state().sites.len()
    }

    /// Number of distinct observed acquisition-order edges.
    pub fn edge_count(&self) -> usize {
        self.state().edges.len()
    }

    /// Whether the edge `from -> to` (acquired `to` while holding
    /// `from`) has been observed.
    pub fn has_edge(&self, from: &str, to: &str) -> bool {
        self.state().edges.keys().any(|&(f, t)| f == from && t == to)
    }

    /// All rank violations observed so far, sorted by (held, acquired).
    pub fn rank_violations(&self) -> Vec<RankViolation> {
        self.state().violations.values().cloned().collect()
    }

    /// All cycles in the observed acquisition-order graph, each a
    /// strongly connected component of two or more sites. An acyclic
    /// graph returns an empty vector.
    pub fn cycles(&self) -> Vec<Cycle> {
        let (nodes, edges) = {
            let st = self.state();
            let nodes: Vec<&'static str> = st.sites.keys().copied().collect();
            let edges: Vec<EdgeReport> = st.edges.values().cloned().collect();
            (nodes, edges)
        };
        let mut adj: BTreeMap<&'static str, Vec<&'static str>> = BTreeMap::new();
        let mut radj: BTreeMap<&'static str, Vec<&'static str>> = BTreeMap::new();
        for e in &edges {
            adj.entry(e.from).or_default().push(e.to);
            radj.entry(e.to).or_default().push(e.from);
        }
        // Kosaraju: forward DFS finish order, then reverse-graph sweeps.
        let mut visited: BTreeSet<&'static str> = BTreeSet::new();
        let mut order: Vec<&'static str> = Vec::new();
        for &n in &nodes {
            if !visited.insert(n) {
                continue;
            }
            let mut stack: Vec<(&'static str, usize)> = vec![(n, 0)];
            while let Some(frame) = stack.last_mut() {
                let (u, i) = (frame.0, frame.1);
                let next = adj.get(u).and_then(|v| v.get(i)).copied();
                match next {
                    Some(v) => {
                        frame.1 += 1;
                        if visited.insert(v) {
                            stack.push((v, 0));
                        }
                    }
                    None => {
                        order.push(u);
                        stack.pop();
                    }
                }
            }
        }
        let mut assigned: BTreeSet<&'static str> = BTreeSet::new();
        let mut cycles = Vec::new();
        for &n in order.iter().rev() {
            if assigned.contains(n) {
                continue;
            }
            let mut component: BTreeSet<&'static str> = BTreeSet::new();
            let mut stack = vec![n];
            assigned.insert(n);
            while let Some(u) = stack.pop() {
                component.insert(u);
                for &v in radj.get(u).into_iter().flatten() {
                    if assigned.insert(v) {
                        stack.push(v);
                    }
                }
            }
            if component.len() > 1 {
                let sites: Vec<&'static str> = component.iter().copied().collect();
                let internal: Vec<EdgeReport> = edges
                    .iter()
                    .filter(|e| component.contains(e.from) && component.contains(e.to))
                    .cloned()
                    .collect();
                cycles.push(Cycle {
                    sites,
                    edges: internal,
                });
            }
        }
        cycles.sort_by(|a, b| a.sites.cmp(&b.sites));
        cycles
    }

    /// Whether the observed acquisition-order graph is cycle-free.
    pub fn is_acyclic(&self) -> bool {
        self.cycles().is_empty()
    }

    /// Renders the graph as a deterministic report: byte-identical for
    /// identical observation histories (all state is kept in sorted
    /// maps), in the spirit of the simulator's `ScenarioOutcome::render`.
    pub fn render(&self) -> String {
        let (sites, edges, violations) = {
            let st = self.state();
            (
                st.sites.clone(),
                st.edges.values().cloned().collect::<Vec<_>>(),
                st.violations.values().cloned().collect::<Vec<_>>(),
            )
        };
        let cycles = self.cycles();
        let mut out = String::new();
        out.push_str("fl-race lock graph\n");
        out.push_str(&format!(
            "sites={} edges={} rank_violations={} cycles={}\n",
            sites.len(),
            edges.len(),
            violations.len(),
            cycles.len()
        ));
        for (name, rank) in &sites {
            out.push_str(&format!("site {name} rank={rank}\n"));
        }
        for e in &edges {
            out.push_str(&format!(
                "edge {} -> {} ranks={}->{} first-thread={}\n",
                e.from, e.to, e.from_rank, e.to_rank, e.first_thread
            ));
        }
        for v in &violations {
            out.push_str(&format!(
                "rank-violation held {} (rank {}) acquired {} (rank {}) first-thread={}\n",
                v.held, v.held_rank, v.acquired, v.acquired_rank, v.first_thread
            ));
        }
        for c in &cycles {
            out.push_str(&format!(
                "cycle [potential deadlock] sites: {}\n",
                c.sites.join(", ")
            ));
            for e in &c.edges {
                out.push_str(&format!(
                    "  order {} then {} (thread {})\n",
                    e.from, e.to, e.first_thread
                ));
            }
        }
        out
    }
}

impl std::fmt::Debug for LockGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state();
        f.debug_struct("LockGraph")
            .field("sites", &st.sites.len())
            .field("edges", &st.edges.len())
            .field("violations", &st.violations.len())
            .finish()
    }
}
