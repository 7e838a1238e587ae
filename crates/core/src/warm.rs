//! Shared warm-start cache of routing spaces.
//!
//! Building a [`RoutingSpace`] — partitioning, tile splitting, via-site
//! insertion — is pure in (package, layout, space configuration). A
//! [`WarmSpaceCache`] shared across jobs keeps recent builds by `Arc`
//! and serves two callers:
//!
//! - **Route jobs.** For repeat jobs on the same circuit the layout at
//!   the sequential stage's start is identical (the earlier stages are
//!   deterministic), so every job after the first starts from a deep
//!   copy of the cached stage-start space ([`WarmSpaceCache::get_or_build`])
//!   instead of rebuilding it.
//! - **ECO edits.** An edit reads the space of its (base package, prior
//!   layout) through [`WarmSpaceCache::shared`] without copying it, as
//!   the memo of [`RoutingSpace::derive`]: the edited space re-partitions
//!   only the `(layer, cell)` slots whose inputs the edit changed. Every
//!   edit against one prior shares that entry.
//!
//! Correctness rests on two facts:
//!
//! - the key captures *every* input the build reads: a fingerprint of
//!   the package text, the layout's canonical hash, and each
//!   [`RouterConfig`] field that flows into [`space_config`];
//! - `RoutingSpace: Clone` is bit-identical (snapshot/restore in the
//!   rip-up pass already depends on this), so a warm start routes the
//!   same layout, byte for byte, as a cold one; and a derived space
//!   equals a cold build whatever its memo holds.
//!
//! The cache is a small bounded LRU behind a mutex, but the expensive
//! work never happens under it: entries are held by `Arc`, so a hit
//! takes the lock only long enough to clone the pointer and refresh
//! recency — a deep copy is made by the caller after the lock is
//! released. Cold lookups are single-flight: the first job for a key
//! marks it as building and constructs the space outside the lock while
//! racing jobs wait on a condvar and then take the installed entry as a
//! hit, instead of every cold job redoing the whole build (the stampede
//! the serve load test used to pay on its first wave of identical jobs).
//!
//! [`space_config`]: crate::sequential::space_config

use crate::config::RouterConfig;
use info_model::{write_package, Layout, Package};
use info_telemetry::{Counter, Sink};
use info_tile::RoutingSpace;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Everything a space build reads, collapsed to a comparable key. Two
/// jobs with equal keys build bit-identical spaces.
#[derive(Debug, Clone, PartialEq, Eq)]
struct WarmKey {
    /// FNV-1a hash of the package's canonical text serialization — the
    /// same bytes `parse_package` round-trips, so two packages with equal
    /// fingerprints describe the same circuit.
    package_fp: u64,
    /// Layout state the space was built against (the stage-start layout
    /// of a route, the prior layout of an ECO).
    layout_hash: u64,
    /// The one [`RouterConfig`] field [`space_config`] reads; everything
    /// else it derives from the package.
    ///
    /// [`space_config`]: crate::sequential::space_config
    global_cells: usize,
}

pub(crate) fn fnv1a(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl WarmKey {
    fn new(package: &Package, layout: &Layout, cfg: &RouterConfig) -> Self {
        WarmKey {
            package_fp: fnv1a(&write_package(package)),
            layout_hash: layout.canonical_hash(),
            global_cells: cfg.global_cells,
        }
    }
}

/// Lock-guarded cache state: the LRU itself plus the keys currently
/// being built (single-flight markers).
#[derive(Debug, Default)]
struct CacheState {
    /// Most-recently-used at the front.
    entries: VecDeque<(WarmKey, Arc<RoutingSpace>)>,
    /// Keys some thread is building right now; racing lookups wait on
    /// the condvar instead of redoing the build.
    building: Vec<WarmKey>,
}

/// Bounded, thread-safe cache of routing spaces keyed by
/// circuit + configuration (see the module docs).
#[derive(Debug)]
pub struct WarmSpaceCache {
    capacity: usize,
    state: Mutex<CacheState>,
    /// Signalled whenever a build finishes (successfully or not).
    ready: Condvar,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Clears a single-flight marker when the build ends — by any path,
/// including a panic unwinding through `build_stage_space` (waiters must
/// wake and build for themselves rather than hang).
struct BuildingGuard<'a> {
    cache: &'a WarmSpaceCache,
    key: &'a WarmKey,
}

impl Drop for BuildingGuard<'_> {
    fn drop(&mut self) {
        let mut st = self.cache.state.lock().unwrap_or_else(|e| e.into_inner());
        st.building.retain(|k| k != self.key);
        drop(st);
        self.cache.ready.notify_all();
    }
}

impl WarmSpaceCache {
    /// A cache holding at most `capacity` distinct (circuit, config)
    /// spaces; the least recently used entry is evicted beyond that.
    pub fn new(capacity: usize) -> Self {
        WarmSpaceCache {
            capacity: capacity.max(1),
            state: Mutex::new(CacheState::default()),
            ready: Condvar::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Returns a deep copy of the space for this (package, layout,
    /// config), taken from the cache when warm, or built — and installed
    /// — when cold. Counts the outcome into `tel` either way. The copy is
    /// made after the cache lock is released.
    pub fn get_or_build(
        &self,
        package: &Package,
        layout: &Layout,
        cfg: &RouterConfig,
        tel: &Sink,
    ) -> RoutingSpace {
        Arc::unwrap_or_clone(self.shared(package, layout, cfg, tel).0)
    }

    /// Returns the cached space for this (package, layout, config),
    /// building and installing it when cold, and whether it was a hit.
    /// Counts the outcome into `tel` either way.
    ///
    /// Only the `Arc` is cloned under the lock, and concurrent cold
    /// lookups for one key run exactly one build: the rest wait and
    /// count as hits on the installed entry.
    pub fn shared(
        &self,
        package: &Package,
        layout: &Layout,
        cfg: &RouterConfig,
        tel: &Sink,
    ) -> (Arc<RoutingSpace>, bool) {
        let key = WarmKey::new(package, layout, cfg);
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(pos) = st.entries.iter().position(|(k, _)| *k == key) {
                // Refresh recency.
                let hit = st.entries.remove(pos).expect("position came from iter");
                let shared = Arc::clone(&hit.1);
                st.entries.push_front(hit);
                drop(st);
                self.hits.fetch_add(1, Ordering::Relaxed);
                tel.count(Counter::WarmSpaceHits, 1);
                return (shared, true);
            }
            if !st.building.contains(&key) {
                break;
            }
            st = self.ready.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        st.building.push(key.clone());
        drop(st);
        let _guard = BuildingGuard { cache: self, key: &key };
        let space = Arc::new(crate::sequential::build_stage_space(package, layout, cfg));
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if !st.entries.iter().any(|(k, _)| *k == key) {
            st.entries.push_front((key.clone(), Arc::clone(&space)));
            st.entries.truncate(self.capacity);
        }
        drop(st);
        self.misses.fetch_add(1, Ordering::Relaxed);
        tel.count(Counter::WarmSpaceMisses, 1);
        (space, false)
    }

    /// Lifetime (hits, misses) across every job that used this cache.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits.load(Ordering::Relaxed), self.misses.load(Ordering::Relaxed))
    }

    /// Cached entries currently held.
    pub fn len(&self) -> usize {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).entries.len()
    }

    /// True when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use info_geom::{Point, Rect};
    use info_model::{DesignRules, PackageBuilder};

    fn tiny_package() -> Package {
        let mut b = PackageBuilder::new(
            Rect::new(Point::new(0, 0), Point::new(600_000, 400_000)),
            DesignRules::default(),
            2,
        );
        let c = b.add_chip(Rect::new(Point::new(50_000, 50_000), Point::new(200_000, 350_000)));
        let io = b.add_io_pad(c, Point::new(180_000, 200_000)).expect("io pad");
        let g = b.add_bump_pad(Point::new(450_000, 200_000)).expect("bump pad");
        b.add_net(io, g).expect("net");
        b.build().expect("package")
    }

    #[test]
    fn second_lookup_is_a_hit() {
        let pkg = tiny_package();
        let layout = Layout::new(&pkg);
        let cfg = RouterConfig::default().with_global_cells(6);
        let cache = WarmSpaceCache::new(4);
        let tel = Sink::disabled();
        let _ = cache.get_or_build(&pkg, &layout, &cfg, &tel);
        let _ = cache.get_or_build(&pkg, &layout, &cfg, &tel);
        assert_eq!(cache.stats(), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn config_change_misses() {
        let pkg = tiny_package();
        let layout = Layout::new(&pkg);
        let cache = WarmSpaceCache::new(4);
        let tel = Sink::disabled();
        let _ = cache.get_or_build(&pkg, &layout, &RouterConfig::default().with_global_cells(6), &tel);
        let _ = cache.get_or_build(&pkg, &layout, &RouterConfig::default().with_global_cells(8), &tel);
        assert_eq!(cache.stats(), (0, 2));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn capacity_evicts_least_recent() {
        let pkg = tiny_package();
        let layout = Layout::new(&pkg);
        let cache = WarmSpaceCache::new(1);
        let tel = Sink::disabled();
        let a = RouterConfig::default().with_global_cells(6);
        let b = RouterConfig::default().with_global_cells(8);
        let _ = cache.get_or_build(&pkg, &layout, &a, &tel);
        let _ = cache.get_or_build(&pkg, &layout, &b, &tel);
        // `a` was evicted by `b`, so it misses again.
        let _ = cache.get_or_build(&pkg, &layout, &a, &tel);
        assert_eq!(cache.stats(), (0, 3));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn concurrent_cold_lookups_build_once() {
        let pkg = tiny_package();
        let layout = Layout::new(&pkg);
        let cfg = RouterConfig::default().with_global_cells(6);
        let cache = WarmSpaceCache::new(4);
        let tel = Sink::disabled();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let _ = cache.get_or_build(&pkg, &layout, &cfg, &tel);
                });
            }
        });
        let (hits, misses) = cache.stats();
        assert_eq!(misses, 1, "single-flight: one cold build for one key");
        assert_eq!(hits, 7, "every waiter takes the installed entry");
        assert_eq!(cache.len(), 1);
    }
}
