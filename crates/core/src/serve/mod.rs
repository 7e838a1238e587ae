//! Routing-as-a-service: a hardened job front end over the flow.
//!
//! The server accepts many routing jobs concurrently on a fixed worker
//! pool and applies three layers of hardening on top of the flow's own
//! stage guards:
//!
//! 1. **Fine-grained cancellation** — every job owns a
//!    [`CancelToken`] threaded through [`InfoRouter::with_cancel_token`]
//!    into the innermost A\* expansion loop, the rip-up pass, and the LP
//!    sweeps. [`JobServer::cancel`] (or the job's `deadline_ms`) lands
//!    within one checkpoint interval, not at the next stage boundary.
//! 2. **Anytime answers** — an interrupted job still returns its legal
//!    partial layout: [`Completion::Degraded`], per-net status, and the
//!    routability it reached (the flow's DRC verification runs either
//!    way).
//! 3. **Fault isolation** — each job attempt runs under `catch_unwind`
//!    with one retry after a backoff; the queue is bounded and rejects
//!    with a typed reason instead of buffering without limit; malformed
//!    job lines produce [`RouterError::BadInput`], never a panic.
//!
//! Jobs on the same circuit share a [`WarmSpaceCache`], so repeat jobs
//! skip the sequential stage's routing-space construction. All of this
//! is observational: a job's routed layout is byte-identical to the
//! same configuration run through [`InfoRouter::route`] directly.
//!
//! The wire protocol ([`serve_lines`]) is JSON lines: one request object
//! per line in, one response object per line out, correlated by `id`
//! (responses may interleave across jobs). See `README.md` for the
//! schema.
//!
//! [`Completion::Degraded`]: crate::flow::Completion::Degraded

pub mod json;

use crate::config::RouterConfig;
use crate::eco::EcoChangeSet;
use crate::flow::{Completion, InfoRouter, RouteOutcome};
use crate::resilience::{panic_message, FaultPlan, FaultSite, FlowCtx, RouterError};
use crate::warm::{fnv1a, WarmSpaceCache};
use info_model::{parse_package, write_package, NetId, Package, PadId};
use info_tile::CancelToken;
use json::Json;
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// One routing job, ready to run.
#[derive(Debug, Clone)]
pub struct JobRequest {
    /// Client-chosen correlation id (unique among live jobs).
    pub id: String,
    /// The circuit to route.
    pub package: Arc<Package>,
    /// Router configuration for this job.
    pub cfg: RouterConfig,
    /// Job-level wall-clock budget; an over-budget job returns its legal
    /// partial layout as a degraded answer.
    pub deadline: Option<Duration>,
    /// `Some` makes this an ECO job: the change set is applied as a delta
    /// re-route against the server's cached prior for (circuit, config) —
    /// full-routed on the spot when no prior is cached yet.
    pub changes: Option<EcoChangeSet>,
}

/// Why a submission was turned away at the door (backpressure — the job
/// never entered the queue).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reject {
    /// The bounded queue is full; resubmit after results drain.
    QueueFull {
        /// The configured capacity that was hit.
        capacity: usize,
    },
    /// The server is shutting down and accepts no new work.
    ShuttingDown,
    /// A live (queued or running) job already uses this id.
    DuplicateId,
}

impl Reject {
    /// Stable reason string for wire responses.
    pub fn as_str(&self) -> &'static str {
        match self {
            Reject::QueueFull { .. } => "queue_full",
            Reject::ShuttingDown => "shutting_down",
            Reject::DuplicateId => "duplicate_id",
        }
    }
}

/// Job-server tuning.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Bounded queue depth; submissions beyond it are rejected.
    pub queue_capacity: usize,
    /// Distinct (circuit, config) spaces the warm cache holds.
    pub warm_capacity: usize,
    /// Service-layer fault plan (sites `serve.parse`, `serve.worker`,
    /// `serve.cancel`); trigger counts are shared across all jobs.
    pub fault_plan: FaultPlan,
    /// Checkpoints to allow before an injected `serve.cancel` fault trips
    /// the job's token (deterministic mid-search cancel).
    pub cancel_after_checks: u64,
    /// Pause before the single retry of a failed job attempt.
    pub retry_backoff: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_capacity: 64,
            warm_capacity: 4,
            fault_plan: FaultPlan::none(),
            cancel_after_checks: 1,
            retry_backoff: Duration::from_millis(10),
        }
    }
}

/// How one job ended.
#[derive(Debug)]
pub struct JobResult {
    /// The job's correlation id.
    pub id: String,
    /// True when the first attempt failed internally and the retry ran.
    pub retried: bool,
    /// Wall-clock time from dequeue to completion.
    pub elapsed: Duration,
    /// The route outcome, or the typed error that stopped the job.
    pub outcome: Result<Box<RouteOutcome>, RouterError>,
}

#[derive(Debug)]
struct QueueState {
    queue: VecDeque<JobRequest>,
    /// Live tokens by job id — queued and running jobs alike, so a cancel
    /// always has something to trip.
    tokens: BTreeMap<String, CancelToken>,
    shutdown: bool,
}

/// Identifies a prior outcome an ECO job can build on: fingerprints of
/// the circuit text and the router configuration (everything that shapes
/// the base route).
type PriorKey = (u64, u64);

/// Prior outcomes the server remembers for ECO jobs (bounded LRU).
const PRIOR_CAPACITY: usize = 8;

#[derive(Debug)]
struct Inner {
    cfg: ServeConfig,
    state: Mutex<QueueState>,
    work: Condvar,
    warm: Arc<WarmSpaceCache>,
    /// Base outcomes ECO jobs re-route against, most recent first. Route
    /// jobs and ECO results both publish here; the warm-space cache keyed
    /// on the prior layout hash then makes repeat edits start warm.
    priors: Mutex<VecDeque<(PriorKey, Arc<RouteOutcome>)>>,
    /// Serve-layer fault checks; one context for the server's lifetime so
    /// directive trigger counts span jobs.
    fctx: FlowCtx,
}

impl Inner {
    fn prior_key(package: &Package, cfg: &RouterConfig) -> PriorKey {
        (fnv1a(&write_package(package)), fnv1a(&format!("{cfg:?}")))
    }

    fn prior_lookup(&self, key: PriorKey) -> Option<Arc<RouteOutcome>> {
        let mut ps = lock(&self.priors);
        let pos = ps.iter().position(|(k, _)| *k == key)?;
        let hit = ps.remove(pos)?;
        let out = Arc::clone(&hit.1);
        ps.push_front(hit);
        Some(out)
    }

    fn prior_publish(&self, key: PriorKey, out: Arc<RouteOutcome>) {
        let mut ps = lock(&self.priors);
        ps.retain(|(k, _)| *k != key);
        ps.push_front((key, out));
        ps.truncate(PRIOR_CAPACITY);
    }
}

/// A running worker pool (see the module docs).
#[derive(Debug)]
pub struct JobServer {
    inner: Arc<Inner>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl JobServer {
    /// Starts the pool. Results arrive on the returned channel in
    /// completion order (not submission order).
    pub fn start(cfg: ServeConfig) -> (JobServer, mpsc::Receiver<JobResult>) {
        let (tx, rx) = mpsc::channel();
        let inner = Arc::new(Inner {
            warm: Arc::new(WarmSpaceCache::new(cfg.warm_capacity)),
            priors: Mutex::new(VecDeque::new()),
            fctx: FlowCtx::new(cfg.fault_plan),
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                tokens: BTreeMap::new(),
                shutdown: false,
            }),
            work: Condvar::new(),
            cfg,
        });
        let workers = (0..inner.cfg.workers.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                let tx = tx.clone();
                thread::Builder::new()
                    .name(format!("rdl-worker-{i}"))
                    .spawn(move || worker_loop(&inner, &tx))
                    .unwrap_or_else(|e| panic!("spawning worker thread: {e}"))
            })
            .collect();
        (JobServer { inner, workers }, rx)
    }

    /// The shared warm cache (observability; tests assert hit counts).
    pub fn warm_cache(&self) -> &Arc<WarmSpaceCache> {
        &self.inner.warm
    }

    /// Enqueues a job, or rejects it with a typed reason. Never blocks.
    pub fn submit(&self, req: JobRequest) -> Result<(), Reject> {
        let mut st = lock(&self.inner.state);
        if st.shutdown {
            return Err(Reject::ShuttingDown);
        }
        if st.queue.len() >= self.inner.cfg.queue_capacity {
            return Err(Reject::QueueFull {
                capacity: self.inner.cfg.queue_capacity,
            });
        }
        if st.tokens.contains_key(&req.id) {
            return Err(Reject::DuplicateId);
        }
        let token = CancelToken::new();
        token.arm_job_deadline(req.deadline);
        st.tokens.insert(req.id.clone(), token);
        st.queue.push_back(req);
        drop(st);
        self.inner.work.notify_one();
        Ok(())
    }

    /// Cancels a live job by id. A running job stops within one
    /// checkpoint interval and returns its degraded partial answer; a
    /// queued job returns [`RouterError::Cancelled`] without routing.
    /// False when no live job has this id.
    pub fn cancel(&self, id: &str) -> bool {
        let st = lock(&self.inner.state);
        match st.tokens.get(id) {
            Some(token) => {
                token.cancel();
                true
            }
            None => false,
        }
    }

    /// Jobs currently queued (not yet picked up by a worker).
    pub fn queued(&self) -> usize {
        lock(&self.inner.state).queue.len()
    }

    /// Stops accepting work, drains the queue, and joins the workers.
    pub fn shutdown(mut self) {
        self.begin_shutdown();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }

    fn begin_shutdown(&self) {
        lock(&self.inner.state).shutdown = true;
        self.inner.work.notify_all();
    }
}

impl Drop for JobServer {
    fn drop(&mut self) {
        self.begin_shutdown();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Mutex lock that shrugs off poisoning: queue state is only ever
/// mutated under short, panic-free critical sections, and a poisoned
/// inner value is still coherent.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn worker_loop(inner: &Inner, tx: &mpsc::Sender<JobResult>) {
    loop {
        let job = {
            let mut st = lock(&inner.state);
            loop {
                if let Some(job) = st.queue.pop_front() {
                    break job;
                }
                if st.shutdown {
                    return;
                }
                st = inner
                    .work
                    .wait(st)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        let token = lock(&inner.state)
            .tokens
            .get(&job.id)
            .cloned()
            .unwrap_or_default();
        let result = run_job(inner, &job, &token);
        lock(&inner.state).tokens.remove(&job.id);
        if tx.send(result).is_err() {
            // Receiver dropped: nobody wants results any more; keep
            // draining so shutdown still completes.
        }
    }
}

/// Runs one job under the service-grade guard: `catch_unwind` isolation
/// and a single retry with backoff for internal (non-cancel) failures.
fn run_job(inner: &Inner, job: &JobRequest, token: &CancelToken) -> JobResult {
    let t0 = Instant::now();
    // Injected `serve.cancel`: arm a deterministic mid-search trip on the
    // job's own token instead of failing the job.
    if inner.fctx.check(FaultSite::ServeCancel).is_err() {
        token.trip_after_checks(inner.cfg.cancel_after_checks.max(1));
    }
    let mut retried = false;
    let mut attempt_no = 0;
    let outcome = loop {
        attempt_no += 1;
        let attempt = catch_unwind(AssertUnwindSafe(|| attempt_job(inner, job, token)));
        let err = match attempt {
            Ok(Ok(out)) => break Ok(out),
            Ok(Err(e)) => e,
            Err(payload) => {
                RouterError::Serve(format!("worker panic: {}", panic_message(payload.as_ref())))
            }
        };
        // Cancel and bad input are answers, not failures — no retry. An
        // internal failure gets exactly one more attempt after a pause.
        let retryable = !matches!(err, RouterError::Cancelled | RouterError::BadInput { .. });
        if retryable && attempt_no == 1 {
            retried = true;
            thread::sleep(inner.cfg.retry_backoff);
            continue;
        }
        break Err(err);
    };
    JobResult {
        id: job.id.clone(),
        retried,
        elapsed: t0.elapsed(),
        outcome,
    }
}

fn attempt_job(
    inner: &Inner,
    job: &JobRequest,
    token: &CancelToken,
) -> Result<Box<RouteOutcome>, RouterError> {
    if token.is_cancelled() {
        return Err(RouterError::Cancelled);
    }
    // Injected `serve.worker` faults fire here — after dequeue, before
    // any routing commits — as an error or a panic per the directive.
    inner.fctx.check(FaultSite::ServeWorker)?;
    let router = InfoRouter::new(job.cfg)
        .with_warm_cache(Arc::clone(&inner.warm))
        .with_cancel_token(token.clone());
    let key = Inner::prior_key(&job.package, &job.cfg);
    let Some(changes) = &job.changes else {
        // Plain route: publish the outcome so later ECO jobs on this
        // (circuit, config) re-route the delta instead of the die.
        let out = Arc::new(router.route(&job.package));
        inner.prior_publish(key, Arc::clone(&out));
        return Ok(Box::new((*out).clone()));
    };
    // ECO: take the cached prior, or full-route the base on the spot (the
    // cold first edit pays one full route; everything after is a delta).
    let prior = match inner.prior_lookup(key) {
        Some(p) => p,
        None => {
            let out = Arc::new(router.route(&job.package));
            inner.prior_publish(key, Arc::clone(&out));
            out
        }
    };
    let plan = changes.plan(&job.package)?;
    let out = Arc::new(router.reroute_delta(&job.package, &prior, changes)?);
    // Publish the edited design's outcome too: a follow-up ECO that sends
    // the edited netlist as its base starts from this delta's result.
    inner.prior_publish(Inner::prior_key(&plan.package, &job.cfg), Arc::clone(&out));
    Ok(Box::new((*out).clone()))
}

// ---------------------------------------------------------------------------
// Wire protocol: JSON lines
// ---------------------------------------------------------------------------

/// Limits a parsed numeric field to a sane integral range.
fn int_field(v: &Json, key: &str, lo: u64, hi: u64) -> Result<Option<u64>, RouterError> {
    let Some(field) = v.get(key) else {
        return Ok(None);
    };
    let bad = |reason: String| RouterError::BadInput { reason };
    let n = field
        .as_f64()
        .ok_or_else(|| bad(format!("field '{key}' must be a number")))?;
    if n.fract() != 0.0 || n < lo as f64 || n > hi as f64 {
        return Err(bad(format!(
            "field '{key}' must be an integer in [{lo}, {hi}]"
        )));
    }
    Ok(Some(n as u64))
}

fn bool_field(v: &Json, key: &str) -> Result<Option<bool>, RouterError> {
    match v.get(key) {
        None => Ok(None),
        Some(f) => f.as_bool().map(Some).ok_or(RouterError::BadInput {
            reason: format!("field '{key}' must be a boolean"),
        }),
    }
}

/// One parsed request line.
#[derive(Debug)]
pub enum Request {
    /// Route a circuit (or, when the job carries a change set, apply it
    /// as an ECO delta against the cached prior).
    Route(
        Box<JobRequest>,
        /* include per-net status in the response */ bool,
    ),
    /// Cancel a live job by id.
    Cancel(String),
    /// Drain and stop the server.
    Shutdown,
}

/// The keys a request's `config` object may carry.
const CONFIG_KEYS: [&str; 6] = [
    "global_cells",
    "lp",
    "concurrent",
    "stage_budget_ms",
    "deadline_ms",
    "net_status",
];

/// Parses the shared `config` object of `route`/`eco` requests. A key
/// outside [`CONFIG_KEYS`] is rejected rather than ignored, so a client
/// never silently gets a configuration it did not ask for.
fn parse_config(v: &Json) -> Result<(RouterConfig, Option<Duration>, bool), RouterError> {
    let bad = |reason: String| RouterError::BadInput { reason };
    let mut cfg = RouterConfig::default();
    let mut deadline = None;
    let mut net_status = false;
    if let Some(c) = v.get("config") {
        let Some(members) = c.as_obj() else {
            return Err(bad("field 'config' must be an object".into()));
        };
        if let Some((key, _)) = members
            .iter()
            .find(|(k, _)| !CONFIG_KEYS.contains(&k.as_str()))
        {
            return Err(bad(format!("unknown config key '{key}'")));
        }
        if let Some(n) = int_field(c, "global_cells", 1, 512)? {
            cfg.global_cells = n as usize;
        }
        if let Some(b) = bool_field(c, "lp")? {
            cfg.lp_enabled = b;
        }
        if let Some(b) = bool_field(c, "concurrent")? {
            cfg.concurrent_enabled = b;
        }
        if let Some(ms) = int_field(c, "stage_budget_ms", 0, 86_400_000)? {
            cfg.stage_budget = Some(Duration::from_millis(ms));
        }
        if let Some(ms) = int_field(c, "deadline_ms", 0, 86_400_000)? {
            deadline = Some(Duration::from_millis(ms));
        }
        if let Some(b) = bool_field(c, "net_status")? {
            net_status = b;
        }
    }
    Ok((cfg, deadline, net_status))
}

/// Parses the `changes` object of an `eco` request:
/// `{"remove": [net, ...], "add": [[padA, padB], ...],
///   "re_pair": [[net, padA, padB], ...]}` — indices into the base
/// netlist's net/pad tables. Any other key is rejected rather than
/// ignored, so a misspelled edit never comes back as a successful no-op.
/// Semantic validation (unknown ids, pad conflicts) happens when the
/// change set is planned against the package, so malformed edits come
/// back as typed rejections.
fn parse_changes(v: &Json) -> Result<EcoChangeSet, RouterError> {
    let bad = |reason: String| RouterError::BadInput { reason };
    let c = v
        .get("changes")
        .ok_or_else(|| bad("eco requires object field 'changes'".into()))?;
    let Some(members) = c.as_obj() else {
        return Err(bad("field 'changes' must be an object".into()));
    };
    if let Some((key, _)) = members
        .iter()
        .find(|(k, _)| !["remove", "add", "re_pair"].contains(&k.as_str()))
    {
        return Err(bad(format!("unknown changes key '{key}'")));
    }
    let index = |item: &Json, what: &str| -> Result<usize, RouterError> {
        let n = item
            .as_f64()
            .ok_or_else(|| bad(format!("'changes.{what}' entries must be numbers")))?;
        if n.fract() != 0.0 || !(0.0..=1e9).contains(&n) {
            return Err(bad(format!(
                "'changes.{what}' entries must be non-negative integers"
            )));
        }
        Ok(n as usize)
    };
    let tuple = |item: &Json, what: &str, arity: usize| -> Result<Vec<usize>, RouterError> {
        let arr = item.as_arr().filter(|a| a.len() == arity).ok_or_else(|| {
            bad(format!(
                "'changes.{what}' entries must be {arity}-element arrays"
            ))
        })?;
        arr.iter().map(|x| index(x, what)).collect()
    };
    let mut changes = EcoChangeSet::new();
    if let Some(items) = c.get("remove") {
        let arr = items
            .as_arr()
            .ok_or_else(|| bad("'changes.remove' must be an array".into()))?;
        for item in arr {
            changes = changes.remove_net(NetId::from_index(index(item, "remove")?));
        }
    }
    if let Some(items) = c.get("add") {
        let arr = items
            .as_arr()
            .ok_or_else(|| bad("'changes.add' must be an array".into()))?;
        for item in arr {
            let t = tuple(item, "add", 2)?;
            changes = changes.add_net(PadId::from_index(t[0]), PadId::from_index(t[1]));
        }
    }
    if let Some(items) = c.get("re_pair") {
        let arr = items
            .as_arr()
            .ok_or_else(|| bad("'changes.re_pair' must be an array".into()))?;
        for item in arr {
            let t = tuple(item, "re_pair", 3)?;
            changes = changes.re_pair(
                NetId::from_index(t[0]),
                PadId::from_index(t[1]),
                PadId::from_index(t[2]),
            );
        }
    }
    Ok(changes)
}

/// Parses one JSON-lines request. Every malformed input — bad JSON, bad
/// schema, bad netlist — is a typed [`RouterError::BadInput`].
pub fn parse_request(line: &str) -> Result<Request, RouterError> {
    let bad = |reason: String| RouterError::BadInput { reason };
    let v = json::parse(line).map_err(|e| bad(e.to_string()))?;
    let op = v
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("missing string field 'op'".into()))?;
    match op {
        "shutdown" => Ok(Request::Shutdown),
        "cancel" => {
            let id = v
                .get("id")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("cancel requires string field 'id'".into()))?;
            Ok(Request::Cancel(id.to_string()))
        }
        "route" | "eco" => {
            let id = v
                .get("id")
                .and_then(Json::as_str)
                .ok_or_else(|| bad(format!("{op} requires string field 'id'")))?;
            if id.is_empty() || id.len() > 256 {
                return Err(bad("field 'id' must be 1..=256 characters".into()));
            }
            let text = v
                .get("netlist")
                .and_then(Json::as_str)
                .ok_or_else(|| bad(format!("{op} requires string field 'netlist'")))?;
            let package = parse_package(text).map_err(|e| bad(format!("netlist: {e}")))?;
            let (cfg, deadline, net_status) = parse_config(&v)?;
            let changes = if op == "eco" {
                Some(parse_changes(&v)?)
            } else {
                None
            };
            Ok(Request::Route(
                Box::new(JobRequest {
                    id: id.to_string(),
                    package: Arc::new(package),
                    cfg,
                    deadline,
                    changes,
                }),
                net_status,
            ))
        }
        other => Err(bad(format!("unknown op '{other}'"))),
    }
}

/// Renders one job result as a wire response object.
pub fn response_json(r: &JobResult, include_net_status: bool) -> Json {
    let mut members = vec![("id".to_string(), Json::Str(r.id.clone()))];
    match &r.outcome {
        Ok(out) => {
            let status = match (out.cancelled, out.completion) {
                (true, _) => "cancelled",
                (false, Completion::Degraded) => "degraded",
                (false, Completion::Full) => "done",
            };
            members.push(("status".to_string(), Json::Str(status.to_string())));
            members.push((
                "hash".to_string(),
                Json::Str(format!("{:016x}", out.layout.canonical_hash())),
            ));
            members.push((
                "routability_pct".to_string(),
                Json::Num(out.stats.routability_pct),
            ));
            let count = |s: crate::flow::NetStatus| {
                out.net_status.iter().filter(|(_, st)| *st == s).count() as f64
            };
            members.push((
                "routed".to_string(),
                Json::Num(count(crate::flow::NetStatus::Routed)),
            ));
            members.push((
                "failed".to_string(),
                Json::Num(count(crate::flow::NetStatus::Failed)),
            ));
            members.push((
                "skipped".to_string(),
                Json::Num(count(crate::flow::NetStatus::Skipped)),
            ));
            if let Some(eco) = &out.eco {
                members.push((
                    "eco".to_string(),
                    Json::Obj(vec![
                        (
                            "nets_rerouted".to_string(),
                            Json::Num(eco.nets_rerouted as f64),
                        ),
                        ("nets_reused".to_string(), Json::Num(eco.nets_reused as f64)),
                        ("dirty_rects".to_string(), Json::Num(eco.dirty_rects as f64)),
                        (
                            "cells_invalidated".to_string(),
                            Json::Num(eco.cells_invalidated as f64),
                        ),
                        ("space_warm_hit".to_string(), Json::Bool(eco.space_warm_hit)),
                        (
                            "lp_dirty_nets".to_string(),
                            Json::Num(eco.lp_dirty_nets as f64),
                        ),
                        ("lp_reverted".to_string(), Json::Bool(eco.lp_reverted)),
                    ]),
                ));
            }
            if include_net_status {
                let nets = out
                    .net_status
                    .iter()
                    .map(|(id, st)| {
                        Json::Obj(vec![
                            ("net".to_string(), Json::Num(id.0 as f64)),
                            ("status".to_string(), Json::Str(st.as_str().to_string())),
                        ])
                    })
                    .collect();
                members.push(("nets".to_string(), Json::Arr(nets)));
            }
        }
        Err(e) => {
            let status = match e {
                RouterError::Cancelled => "cancelled",
                RouterError::BadInput { .. } => "rejected",
                _ => "error",
            };
            members.push(("status".to_string(), Json::Str(status.to_string())));
            members.push(("error".to_string(), Json::Str(e.to_string())));
        }
    }
    if r.retried {
        members.push(("retried".to_string(), Json::Bool(true)));
    }
    members.push((
        "runtime_ms".to_string(),
        Json::Num((r.elapsed.as_secs_f64() * 1e3 * 1e3).round() / 1e3),
    ));
    Json::Obj(members)
}

fn reject_json(id: &str, reject: &Reject) -> Json {
    Json::Obj(vec![
        ("id".to_string(), Json::Str(id.to_string())),
        ("status".to_string(), Json::Str("rejected".to_string())),
        ("error".to_string(), Json::Str(reject.as_str().to_string())),
    ])
}

fn error_json(reason: &RouterError) -> Json {
    Json::Obj(vec![
        ("status".to_string(), Json::Str("rejected".to_string())),
        ("error".to_string(), Json::Str(reason.to_string())),
    ])
}

/// Serves JSON-lines requests from `input` until EOF or a `shutdown` op,
/// writing one response object per line to `output` as each job
/// completes. Responses interleave across jobs; correlate by `id`.
pub fn serve_lines<R: BufRead, W: Write + Send>(
    input: R,
    output: W,
    cfg: ServeConfig,
) -> std::io::Result<()> {
    let (server, results) = JobServer::start(cfg);
    let out = Mutex::new(output);
    // Per-job response options, keyed by id (currently just net_status).
    let wants_nets = Mutex::new(BTreeMap::<String, bool>::new());
    let write_line = |value: &Json| -> std::io::Result<()> {
        let mut w = lock(&out);
        writeln!(w, "{value}")?;
        w.flush()
    };
    thread::scope(|scope| -> std::io::Result<()> {
        let write_line = &write_line;
        let wants_nets = &wants_nets;
        let drain = scope.spawn(move || -> std::io::Result<()> {
            for r in results {
                let nets = lock(wants_nets).remove(&r.id).unwrap_or(false);
                write_line(&response_json(&r, nets))?;
            }
            Ok(())
        });
        for line in input.lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            // The whole per-line handling is unwind-guarded: an injected
            // (or real) parse-path panic must cost one response, not the
            // server.
            let handled = catch_unwind(AssertUnwindSafe(|| -> std::io::Result<bool> {
                let parsed = server
                    .inner
                    .fctx
                    .check(FaultSite::ServeParse)
                    .and_then(|()| parse_request(&line));
                match parsed {
                    Err(e) => write_line(&error_json(&e))?,
                    Ok(Request::Shutdown) => return Ok(true),
                    Ok(Request::Cancel(id)) => {
                        let found = server.cancel(&id);
                        write_line(&Json::Obj(vec![
                            ("id".to_string(), Json::Str(id)),
                            (
                                "status".to_string(),
                                Json::Str(
                                    if found { "cancelling" } else { "unknown_id" }.to_string(),
                                ),
                            ),
                        ]))?;
                    }
                    Ok(Request::Route(req, nets)) => {
                        let id = req.id.clone();
                        lock(wants_nets).insert(id.clone(), nets);
                        if let Err(reject) = server.submit(*req) {
                            lock(wants_nets).remove(&id);
                            write_line(&reject_json(&id, &reject))?;
                        }
                    }
                }
                Ok(false)
            }));
            match handled {
                Ok(Ok(true)) => break,
                Ok(Ok(false)) => {}
                Ok(Err(e)) => return Err(e),
                Err(payload) => {
                    let e = RouterError::Serve(format!(
                        "request handler panic: {}",
                        panic_message(payload.as_ref())
                    ));
                    write_line(&error_json(&e))?;
                }
            }
        }
        // Drain: stop the pool (waits for queued + running jobs), which
        // drops the results sender and ends the drain thread.
        server.shutdown();
        match drain.join() {
            Ok(r) => r,
            Err(_) => Ok(()),
        }
    })
}

/// Serves JSON-lines connections on a unix socket at `path` (removing a
/// stale socket file first). Connections are handled one at a time; jobs
/// *within* a connection run concurrently on the worker pool, and the
/// warm cache persists across connections. Loops until a connection
/// sends a `shutdown` op.
#[cfg(unix)]
pub fn serve_unix(path: &std::path::Path, cfg: ServeConfig) -> std::io::Result<()> {
    use std::os::unix::net::UnixListener;
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    loop {
        let (stream, _) = listener.accept()?;
        let reader = std::io::BufReader::new(stream.try_clone()?);
        // One shared warm cache across connections would require the
        // JobServer to outlive serve_lines; keep the per-connection pool
        // simple and let the OS-level client reuse one connection for
        // warm behavior. A shutdown op ends the whole listener.
        let mut saw_shutdown = ShutdownSniffer {
            inner: reader,
            saw: false,
        };
        serve_lines(&mut saw_shutdown, stream, cfg.clone())?;
        if saw_shutdown.saw {
            let _ = std::fs::remove_file(path);
            return Ok(());
        }
    }
}

/// BufRead adapter that remembers whether a `"op":"shutdown"` line went
/// through — how the unix-socket loop knows to stop listening.
#[cfg(unix)]
struct ShutdownSniffer<R: BufRead> {
    inner: R,
    saw: bool,
}

#[cfg(unix)]
impl<R: BufRead> std::io::Read for ShutdownSniffer<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.inner.read(buf)
    }
}

#[cfg(unix)]
impl<R: BufRead> BufRead for ShutdownSniffer<R> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        let buf = self.inner.fill_buf()?;
        if !self.saw {
            self.saw = String::from_utf8_lossy(buf).contains("\"shutdown\"");
        }
        Ok(buf)
    }
    fn consume(&mut self, amt: usize) {
        self.inner.consume(amt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use info_geom::{Point, Rect};
    use info_model::{DesignRules, PackageBuilder};

    fn tiny_netlist() -> String {
        let mut b = PackageBuilder::new(
            Rect::new(Point::new(0, 0), Point::new(600_000, 400_000)),
            DesignRules::default(),
            2,
        );
        let c = b.add_chip(Rect::new(
            Point::new(50_000, 50_000),
            Point::new(200_000, 350_000),
        ));
        let io = b
            .add_io_pad(c, Point::new(180_000, 200_000))
            .expect("io pad");
        let g = b
            .add_bump_pad(Point::new(450_000, 200_000))
            .expect("bump pad");
        b.add_net(io, g).expect("net");
        info_model::write_package(&b.build().expect("package"))
    }

    fn route_line(id: &str, netlist: &str) -> String {
        Json::Obj(vec![
            ("op".to_string(), Json::Str("route".to_string())),
            ("id".to_string(), Json::Str(id.to_string())),
            ("netlist".to_string(), Json::Str(netlist.to_string())),
            (
                "config".to_string(),
                Json::Obj(vec![("global_cells".to_string(), Json::Num(8.0))]),
            ),
        ])
        .to_string()
    }

    #[test]
    fn serve_lines_routes_and_shuts_down() {
        let netlist = tiny_netlist();
        let input = format!("{}\n{{\"op\":\"shutdown\"}}\n", route_line("j1", &netlist));
        let mut out = Vec::new();
        serve_lines(input.as_bytes(), &mut out, ServeConfig::default()).expect("serve runs");
        let text = String::from_utf8(out).expect("utf8");
        let resp = json::parse(text.lines().next().expect("one response")).expect("json");
        assert_eq!(resp.get("id").and_then(Json::as_str), Some("j1"));
        assert_eq!(resp.get("status").and_then(Json::as_str), Some("done"));
        assert!(resp.get("hash").and_then(Json::as_str).is_some());
    }

    #[test]
    fn malformed_lines_get_typed_rejections_not_panics() {
        let input = "not json at all\n{\"op\":\"route\"}\n{\"op\":\"route\",\"id\":\"x\",\"netlist\":\"garbage netlist\"}\n{\"op\":\"shutdown\"}\n";
        let mut out = Vec::new();
        serve_lines(input.as_bytes(), &mut out, ServeConfig::default()).expect("serve survives");
        let text = String::from_utf8(out).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "one rejection per bad line: {text}");
        for l in lines {
            let v = json::parse(l).expect("responses are valid json");
            assert_eq!(v.get("status").and_then(Json::as_str), Some("rejected"));
            assert!(v.get("error").is_some());
        }
    }

    #[test]
    fn queue_backpressure_rejects_with_reason() {
        let netlist = tiny_netlist();
        let pkg = Arc::new(parse_package(&netlist).expect("netlist"));
        let cfg = ServeConfig {
            workers: 1,
            queue_capacity: 1,
            ..ServeConfig::default()
        };
        let (server, rx) = JobServer::start(cfg);
        let req = |id: &str| JobRequest {
            id: id.to_string(),
            package: Arc::clone(&pkg),
            cfg: RouterConfig::default().with_global_cells(8),
            deadline: None,
            changes: None,
        };
        // Two submissions race one worker; a third must overflow either
        // the queue (capacity 1) or the duplicate-id check.
        server.submit(req("a")).expect("first fits");
        let mut saw_reject = false;
        for i in 0..64 {
            match server.submit(req(&format!("j{i}"))) {
                Ok(()) => {}
                Err(Reject::QueueFull { capacity }) => {
                    assert_eq!(capacity, 1);
                    saw_reject = true;
                    break;
                }
                Err(other) => panic!("unexpected reject: {other:?}"),
            }
        }
        assert!(saw_reject, "bounded queue must reject at some depth");
        assert!(server.submit(req("a")).is_err() || server.cancel("a"));
        drop(rx);
        server.shutdown();
    }

    #[test]
    fn duplicate_live_id_is_rejected() {
        let netlist = tiny_netlist();
        let pkg = Arc::new(parse_package(&netlist).expect("netlist"));
        let cfg = ServeConfig {
            workers: 1,
            queue_capacity: 8,
            ..ServeConfig::default()
        };
        let (server, rx) = JobServer::start(cfg);
        let req = |id: &str| JobRequest {
            id: id.to_string(),
            package: Arc::clone(&pkg),
            cfg: RouterConfig::default().with_global_cells(8),
            deadline: None,
            changes: None,
        };
        server.submit(req("same")).expect("first");
        // Immediately resubmitting the same id must hit either the
        // duplicate check (still live) — tolerate the tiny race where the
        // job already completed.
        if let Err(e) = server.submit(req("same")) {
            assert_eq!(e, Reject::DuplicateId);
        }
        let first = rx.recv().expect("result");
        assert!(first.outcome.is_ok());
        server.shutdown();
    }
}
