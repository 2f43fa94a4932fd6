//! Library-side half of the benchmark (`perfbench/run.py` drives it).
//!
//! ```text
//! perfbench-tracer traced    <target> [--limit N] [--sim-seed S | --threads]
//! perfbench-tracer bughunt   [--sim-seed S]
//! perfbench-tracer paths     <target> [--limit N]
//! perfbench-tracer reference <target> --journal-dir DIR [--limit N] [--sim-seed S]
//! ```
//!
//! `traced` and `bughunt` drive the same targets and configuration as
//! `mocket-cli test` (POR off, `max_path_len` 60, `RunConfig::fast`, one
//! shared `SimHandle`) through `Pipeline::check` and
//! `Pipeline::run_prepared`. Every SUT the pipeline builds is wrapped in
//! [`TimedSut`], which times each call into the cluster layer, and the
//! pipeline clock is wrapped in [`CountingClock`], which counts the
//! runner's sleeps. From those spans the run is split into layers whose
//! self times, plus an explicit `unattributed_s` remainder, add up to
//! the traced wall time.
//!
//! `paths` prints the traversal's case count; `reference` runs the
//! campaign configuration in-process (untraced) and journals every
//! verdict, so a sharded campaign's merged verdicts can be compared with
//! it case by case.
//!
//! Each mode prints one JSON object on its last stdout line.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mocket::core::{
    ExecReport, MappingRegistry, Offer, Pipeline, PipelineConfig, PipelineResult, RunConfig,
    Snapshot, SutError, SystemUnderTest,
};
use mocket::obs::Tracer;
use mocket::raft_async::XraftBugs;
use mocket::raft_sync::SyncRaftBugs;
use mocket::runtime::Backend;
use mocket::sim::{Clock, RealClock, SimHandle};
use mocket::specs::raft::{RaftSpec, RaftSpecConfig};
use mocket::specs::zab::{ZabSpec, ZabSpecConfig};
use mocket::tla::{ActionInstance, Spec};
use mocket::zab::ZabBugs;

/// The seven seeded Table 2 bugs, in `mocket-cli list` order.
const BUGS: [(&str, &str); 7] = [
    ("xraft", "duplicate-vote-counting"),
    ("xraft", "voted-for-not-persisted"),
    ("xraft", "noop-log-grant"),
    ("raft-java", "ignore-extra-vote-response"),
    ("raft-java", "log-truncation"),
    ("zab", "election-echo-storm"),
    ("zab", "epoch-marker-race"),
];

fn fail(msg: &str) -> ! {
    eprintln!("perfbench-tracer: {msg}");
    std::process::exit(2);
}

// ---------------------------------------------------------------------
// Targets: the same specs, mappings and SUT factories as `mocket-cli`.

struct Target {
    spec: Arc<dyn Spec>,
    registry: MappingRegistry,
    make: Box<dyn FnMut() -> Box<dyn SystemUnderTest>>,
}

fn target(name: &str, bug: Option<&str>, backend: Backend) -> Target {
    match name {
        "xraft" => {
            let mut bugs = XraftBugs::none();
            let mut cfg = RaftSpecConfig::xraft(vec![1, 2]);
            match bug {
                None => {}
                Some("duplicate-vote-counting") => {
                    bugs.duplicate_vote_counting = true;
                    cfg.restart_limit = 0;
                    cfg.client_request_limit = 0;
                }
                Some("voted-for-not-persisted") => {
                    bugs.voted_for_not_persisted = true;
                    cfg.dup_limit = 0;
                    cfg.client_request_limit = 0;
                }
                Some("noop-log-grant") => {
                    bugs.noop_log_grant = true;
                    cfg.dup_limit = 0;
                    cfg.restart_limit = 0;
                    cfg.client_request_limit = 0;
                    cfg.max_term = 3;
                }
                Some(other) => fail(&format!("unknown xraft bug {other:?}")),
            }
            let servers: Vec<u64> = cfg.servers.iter().map(|&i| i as u64).collect();
            Target {
                spec: Arc::new(RaftSpec::new(cfg)),
                registry: mocket::raft_async::mapping(),
                make: Box::new(move || {
                    Box::new(mocket::raft_async::make_sut_full(
                        servers.clone(),
                        bugs.clone(),
                        backend.clone(),
                        None,
                    ))
                }),
            }
        }
        "raft-java" => {
            let mut bugs = SyncRaftBugs::none();
            let mut cfg = RaftSpecConfig::raft_java(vec![1, 2, 3]);
            match bug {
                None => {}
                Some("ignore-extra-vote-response") => {
                    bugs.ignore_extra_vote_response = true;
                    cfg.max_term = 2;
                    cfg.client_request_limit = 0;
                    cfg.candidates = Some(vec![1]);
                }
                Some("log-truncation") => {
                    bugs.log_truncation_bug = true;
                    cfg.max_term = 3;
                    cfg.client_request_limit = 2;
                    cfg.candidates = Some(vec![1, 2]);
                    cfg.max_in_flight = 1;
                }
                Some(other) => fail(&format!("unknown raft-java bug {other:?}")),
            }
            let servers: Vec<u64> = cfg.servers.iter().map(|&i| i as u64).collect();
            Target {
                spec: Arc::new(RaftSpec::new(cfg)),
                registry: mocket::raft_sync::mapping(false),
                make: Box::new(move || {
                    Box::new(mocket::raft_sync::make_sut_full(
                        servers.clone(),
                        bugs.clone(),
                        false,
                        backend.clone(),
                        None,
                    ))
                }),
            }
        }
        "zab" => {
            let mut bugs = ZabBugs::none();
            let mut cfg = ZabSpecConfig::small(vec![1, 2]);
            match bug {
                None => {}
                Some("election-echo-storm") => bugs.election_echo_storm = true,
                Some("epoch-marker-race") => {
                    bugs.epoch_marker_race = true;
                    cfg.restart_limit = 1;
                    cfg.client_request_limit = 0;
                }
                Some(other) => fail(&format!("unknown zab bug {other:?}")),
            }
            let servers: Vec<u64> = cfg.servers.iter().map(|&i| i as u64).collect();
            Target {
                spec: Arc::new(ZabSpec::new(cfg)),
                registry: mocket::zab::mapping(),
                make: Box::new(move || {
                    Box::new(mocket::zab::make_sut_full(
                        servers.clone(),
                        bugs.clone(),
                        backend.clone(),
                        None,
                    ))
                }),
            }
        }
        other => fail(&format!("unknown target {other:?}")),
    }
}

/// `mocket-cli test`'s pipeline configuration.
fn test_config(limit: usize) -> PipelineConfig {
    PipelineConfig {
        por: false,
        stop_at_first_bug: true,
        max_path_len: 60,
        max_test_cases: limit,
        run: RunConfig::fast(),
        ..PipelineConfig::default()
    }
}

/// `mocket-cli campaign`'s pipeline configuration: the whole case set,
/// never stopping at the first bug.
fn campaign_config(limit: usize) -> PipelineConfig {
    let mut pc = test_config(limit);
    pc.stop_at_first_bug = false;
    pc
}

// ---------------------------------------------------------------------
// Decorators.

/// Which `SystemUnderTest` call a span timed.
#[derive(Clone, Copy)]
enum Call {
    Deploy,
    Offers,
    Execute,
    External,
    Snapshot,
    Teardown,
}

const CALLS: usize = 6;

/// Every span spent inside SUT code, on one clock origin.
struct SutLog {
    origin: Instant,
    /// `(start, end)` seconds since `origin`, in call order; the
    /// pipeline is single-threaded, so spans never overlap.
    spans: Vec<(f64, f64)>,
    /// `prefix[i]`: total length of the first `i` spans.
    prefix: Vec<f64>,
    /// One entry per `make_sut` call.
    cases: Vec<CaseSpan>,
    count: [u64; CALLS],
    total: [f64; CALLS],
    execute_samples: Vec<f64>,
}

#[derive(Default)]
struct CaseSpan {
    deploy: Option<f64>,
    teardown_end: Option<f64>,
    steps: u64,
    snapshots: u64,
}

impl SutLog {
    fn new(origin: Instant) -> Self {
        SutLog {
            origin,
            spans: Vec::new(),
            prefix: vec![0.0],
            cases: Vec::new(),
            count: [0; CALLS],
            total: [0.0; CALLS],
            execute_samples: Vec::new(),
        }
    }

    fn at(&self, t: Instant) -> f64 {
        t.duration_since(self.origin).as_secs_f64()
    }

    fn span(&mut self, t0: Instant, t1: Instant) -> (f64, f64) {
        let span = (self.at(t0), self.at(t1));
        self.spans.push(span);
        let total = self.prefix[self.prefix.len() - 1];
        self.prefix.push(total + span.1 - span.0);
        span
    }

    fn call(&mut self, case: usize, call: Call, t0: Instant, t1: Instant) {
        let (s, e) = self.span(t0, t1);
        let c = call as usize;
        self.count[c] += 1;
        self.total[c] += e - s;
        let span = &mut self.cases[case];
        match call {
            Call::Deploy => span.deploy = Some(s),
            Call::Teardown => span.teardown_end = Some(e),
            Call::Execute => {
                span.steps += 1;
                self.execute_samples.push(e - s);
            }
            Call::External => span.steps += 1,
            Call::Snapshot => span.snapshots += 1,
            Call::Offers => {}
        }
    }

    /// Seconds spent inside SUT code within `[a, b]`: two binary
    /// searches over the sorted, disjoint spans.
    fn time_in(&self, a: f64, b: f64) -> f64 {
        let lo = self.spans.partition_point(|&(_, e)| e <= a);
        let hi = self.spans.partition_point(|&(s, _)| s < b);
        if lo >= hi || b <= a {
            return 0.0;
        }
        let inner = self.prefix[hi] - self.prefix[lo];
        inner - (a - self.spans[lo].0).max(0.0) - (self.spans[hi - 1].1 - b).max(0.0)
    }
}

/// Times every call into the wrapped SUT (the cluster layer and the
/// SUT crates below it), including building and dropping it.
struct TimedSut {
    inner: Option<Box<dyn SystemUnderTest>>,
    log: Rc<RefCell<SutLog>>,
    case: usize,
}

impl TimedSut {
    fn timed<T>(&mut self, call: Call, f: impl FnOnce(&mut dyn SystemUnderTest) -> T) -> T {
        let sut = self.inner.as_mut().expect("inner SUT lives until drop");
        let t0 = Instant::now();
        let out = f(sut.as_mut());
        let t1 = Instant::now();
        self.log.borrow_mut().call(self.case, call, t0, t1);
        out
    }
}

impl SystemUnderTest for TimedSut {
    fn deploy(&mut self) -> Result<(), SutError> {
        self.timed(Call::Deploy, |s| s.deploy())
    }

    fn teardown(&mut self) {
        self.timed(Call::Teardown, |s| s.teardown())
    }

    fn offers(&mut self) -> Result<Vec<Offer>, SutError> {
        self.timed(Call::Offers, |s| s.offers())
    }

    fn execute(&mut self, offer: &Offer) -> Result<ExecReport, SutError> {
        self.timed(Call::Execute, |s| s.execute(offer))
    }

    fn execute_external(&mut self, action: &ActionInstance) -> Result<ExecReport, SutError> {
        self.timed(Call::External, |s| s.execute_external(action))
    }

    fn snapshot(&mut self) -> Result<Snapshot, SutError> {
        self.timed(Call::Snapshot, |s| s.snapshot())
    }

    fn install_tracer(&mut self, tracer: &Tracer) {
        if let Some(sut) = self.inner.as_mut() {
            sut.install_tracer(tracer);
        }
    }
}

impl Drop for TimedSut {
    fn drop(&mut self) {
        let t0 = Instant::now();
        drop(self.inner.take());
        let t1 = Instant::now();
        if let Ok(mut log) = self.log.try_borrow_mut() {
            log.span(t0, t1);
        }
    }
}

/// Counts the sleeps taken on the pipeline clock (the runner's poll
/// backoff and retry delays) and the real time they block.
struct CountingClock {
    inner: Arc<dyn Clock>,
    sleeps: AtomicU64,
    slept_ns: AtomicU64,
}

impl Clock for CountingClock {
    fn now(&self) -> Duration {
        self.inner.now()
    }

    fn sleep(&self, d: Duration) {
        let t0 = Instant::now();
        self.inner.sleep(d);
        let ns = t0.elapsed().as_nanos() as u64;
        // Statistics only; nothing is published through these.
        self.sleeps.fetch_add(1, Ordering::Relaxed);
        self.slept_ns.fetch_add(ns, Ordering::Relaxed);
    }

    fn is_virtual(&self) -> bool {
        self.inner.is_virtual()
    }
}

// ---------------------------------------------------------------------
// One traced run.

/// Raw per-layer figures of one or more traced runs; summed across the
/// seven bug runs of `bughunt`.
#[derive(Default)]
struct Layers {
    wall: f64,
    checker: f64,
    states: u64,
    rss_after_check_mb: f64,
    traversal: f64,
    paths: u64,
    cases: u64,
    pipeline_self: f64,
    runner_self: f64,
    cluster_self: f64,
    triage_wall: f64,
    triage_self: f64,
    triage_reruns: u64,
    shrink_original: u64,
    shrink_minimized: u64,
    case_ms: Vec<f64>,
    execute_samples: Vec<f64>,
    count: [u64; CALLS],
    total: [f64; CALLS],
    steps: u64,
    snapshots: u64,
    sleeps: u64,
    slept: f64,
}

impl Layers {
    fn unattributed(&self) -> f64 {
        self.wall
            - (self.checker
                + self.traversal
                + self.pipeline_self
                + self.runner_self
                + self.cluster_self
                + self.triage_self)
    }

    fn absorb(&mut self, o: Layers) {
        self.wall += o.wall;
        self.checker += o.checker;
        self.states += o.states;
        self.rss_after_check_mb = self.rss_after_check_mb.max(o.rss_after_check_mb);
        self.traversal += o.traversal;
        self.paths += o.paths;
        self.cases += o.cases;
        self.pipeline_self += o.pipeline_self;
        self.runner_self += o.runner_self;
        self.cluster_self += o.cluster_self;
        self.triage_wall += o.triage_wall;
        self.triage_self += o.triage_self;
        self.triage_reruns += o.triage_reruns;
        self.shrink_original += o.shrink_original;
        self.shrink_minimized += o.shrink_minimized;
        self.case_ms.extend(o.case_ms);
        self.execute_samples.extend(o.execute_samples);
        for c in 0..CALLS {
            self.count[c] += o.count[c];
            self.total[c] += o.total[c];
        }
        self.steps += o.steps;
        self.snapshots += o.snapshots;
        self.sleeps += o.sleeps;
        self.slept += o.slept;
    }
}

/// What a run decided, for the correctness checks in `run.py`.
struct Verdicts {
    selected: usize,
    run: usize,
    passed: usize,
    quarantined: usize,
    /// SUTs built beyond one per case and one per triage re-run: case
    /// attempts the pipeline retried.
    retries: usize,
    kinds: Vec<String>,
    deterministic: bool,
}

impl Verdicts {
    fn of(result: &PipelineResult, suts_built: usize) -> Self {
        Verdicts {
            selected: result.cases_selected,
            run: result.effort.cases_run,
            passed: result.passed,
            quarantined: result.quarantined.len(),
            retries: suts_built.saturating_sub(result.effort.cases_run + triage_reruns(result)),
            kinds: result
                .reports
                .iter()
                .map(|r| r.inconsistency.kind().to_string())
                .collect(),
            deterministic: result
                .reports
                .iter()
                .all(|r| r.determinism.is_deterministic()),
        }
    }
}

fn triage_reruns(result: &PipelineResult) -> usize {
    let counters = &result.summary.metrics.counters;
    counters.get("pipeline.triage_reruns").copied().unwrap_or(0) as usize
}

fn backend(sim_seed: Option<u64>) -> (Backend, Arc<dyn Clock>) {
    match sim_seed {
        Some(seed) => {
            let handle = SimHandle::new(seed);
            let clock: Arc<dyn Clock> = handle.clock.clone();
            (Backend::Sim(handle), clock)
        }
        None => (Backend::Threads, Arc::new(RealClock::new())),
    }
}

/// Resident set size of this process, in MiB.
fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

fn traced_run(
    name: &str,
    bug: Option<&str>,
    limit: usize,
    sim_seed: Option<u64>,
) -> (Layers, Verdicts) {
    let origin = Instant::now();
    let log = Rc::new(RefCell::new(SutLog::new(origin)));
    let (backend, base_clock) = backend(sim_seed);
    let mut target = target(name, bug, backend);
    let clock = Arc::new(CountingClock {
        inner: base_clock,
        sleeps: AtomicU64::new(0),
        slept_ns: AtomicU64::new(0),
    });
    let mut pc = test_config(limit);
    pc.clock = clock.clone();
    let pipeline = Pipeline::new(target.spec.clone(), target.registry.clone(), pc)
        .unwrap_or_else(|issues| fail(&format!("mapping issues: {issues:?}")));

    let at = |t: Instant| t.duration_since(origin).as_secs_f64();
    let check_start = Instant::now();
    let (graph, check_seconds) = pipeline.check();
    let check_end = Instant::now();
    let rss_after_check_mb = rss_mb();
    let states = graph.state_count() as u64;

    let make_log = log.clone();
    let make = move || -> Box<dyn SystemUnderTest> {
        let t0 = Instant::now();
        let inner = (target.make)();
        let t1 = Instant::now();
        let mut log = make_log.borrow_mut();
        log.span(t0, t1);
        log.cases.push(CaseSpan::default());
        Box::new(TimedSut {
            inner: Some(inner),
            log: make_log.clone(),
            case: log.cases.len() - 1,
        })
    };
    let run_start = Instant::now();
    let result = pipeline.run_prepared(graph, check_seconds, make);
    let run_end = Instant::now();
    let verdicts = Verdicts::of(&result, log.borrow().cases.len());
    let triage_reruns = triage_reruns(&result) as u64;
    let (shrink_original, shrink_minimized) = result
        .reports
        .iter()
        .filter_map(|r| r.minimized.as_ref().map(|m| (r.test_case.len(), m.len())))
        .fold((0, 0), |(a, b), (o, m)| (a + o as u64, b + m as u64));
    drop(result);
    let wall_end = Instant::now();

    let log = log.borrow();
    // The split below assumes one SUT per case; a retried case breaks
    // that, and `run.py` fails the run's checks on `verdicts.retries`.
    let cases_run = verdicts.run.min(log.cases.len());
    let regular = &log.cases[..cases_run];
    let (t_check0, t_check1, t_run0, t_run1) =
        (at(check_start), at(check_end), at(run_start), at(run_end));
    // Traversal: run_prepared's prefix up to the first SUT it builds.
    let first_make = log.spans.first().map(|s| s.0).unwrap_or(t_run1).min(t_run1);
    // The case phase ends with the last regular case; whatever follows
    // a failing case (explanation, confirm re-runs, shrinking) is
    // triage.
    let failed = !verdicts.kinds.is_empty();
    let phase_end = match regular.last() {
        Some(c) if failed => c.teardown_end.unwrap_or(t_run1),
        _ => t_run1,
    };
    let mut case_ms = Vec::with_capacity(regular.len());
    let mut runner_self = 0.0;
    for c in regular {
        if let (Some(d), Some(e)) = (c.deploy, c.teardown_end) {
            case_ms.push((e - d) * 1e3);
            runner_self += (e - d) - log.time_in(d, e);
        }
    }
    let cluster_cases = log.time_in(first_make, phase_end);
    let cluster_triage = log.time_in(phase_end, t_run1);
    let layers = Layers {
        wall: at(wall_end),
        checker: t_check1 - t_check0,
        states,
        rss_after_check_mb,
        traversal: first_make - t_run0,
        paths: verdicts.selected as u64,
        cases: cases_run as u64,
        pipeline_self: (phase_end - first_make) - cluster_cases - runner_self,
        runner_self,
        cluster_self: cluster_cases + cluster_triage,
        triage_wall: t_run1 - phase_end,
        triage_self: (t_run1 - phase_end) - cluster_triage,
        triage_reruns,
        shrink_original,
        shrink_minimized,
        case_ms,
        execute_samples: log.execute_samples.clone(),
        count: log.count,
        total: log.total,
        steps: regular.iter().map(|c| c.steps).sum(),
        snapshots: regular.iter().map(|c| c.snapshots).sum(),
        sleeps: clock.sleeps.load(Ordering::Relaxed),
        slept: clock.slept_ns.load(Ordering::Relaxed) as f64 / 1e9,
    };
    (layers, verdicts)
}

// ---------------------------------------------------------------------
// Output.

fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = ((v.len() - 1) as f64 * q).round() as usize;
    v[idx]
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Metric name -> value; `run.py` owns the units.
type Metrics = BTreeMap<String, f64>;

fn layer_metrics(l: &Layers) -> Metrics {
    let mean_us = |c: Call| ratio(l.total[c as usize], l.count[c as usize] as f64) * 1e6;
    let cases = l.cases as f64;
    let mut m = Metrics::new();
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };
    put("trace.wall_s", l.wall);
    put("checker.wall_s", l.checker);
    put("checker.states_per_s", ratio(l.states as f64, l.checker));
    put("checker.distinct_states", l.states as f64);
    put("checker.rss_mb", l.rss_after_check_mb);
    put("traversal.wall_s", l.traversal);
    put("traversal.paths", l.paths as f64);
    put(
        "pipeline.case_overhead_us",
        ratio(l.pipeline_self, cases) * 1e6,
    );
    put("runner.case_p50_ms", quantile(&l.case_ms, 0.5));
    put("runner.case_p99_ms", quantile(&l.case_ms, 0.99));
    put("runner.sleep_calls", l.sleeps as f64);
    put("runner.sleep_s", l.slept);
    put("runner.steps_per_case", ratio(l.steps as f64, cases));
    put(
        "runner.snapshots_per_case",
        ratio(l.snapshots as f64, cases),
    );
    put("cluster.execute_us", mean_us(Call::Execute));
    put(
        "cluster.execute_p99_us",
        quantile(&l.execute_samples, 0.99) * 1e6,
    );
    put("cluster.snapshot_us", mean_us(Call::Snapshot));
    put("cluster.offers_us", mean_us(Call::Offers));
    put("cluster.external_us", mean_us(Call::External));
    put("cluster.deploy_us", mean_us(Call::Deploy));
    put("cluster.teardown_us", mean_us(Call::Teardown));
    put("cluster.sut_s", l.cluster_self);
    put("triage.wall_s", l.triage_wall);
    put("triage.reruns", l.triage_reruns as f64);
    put(
        "triage.shrink_ratio",
        ratio(l.shrink_minimized as f64, l.shrink_original as f64),
    );
    put("checker.self_s", l.checker);
    put("traversal.self_s", l.traversal);
    put("pipeline.self_s", l.pipeline_self);
    put("runner.self_s", l.runner_self);
    put("cluster.self_s", l.cluster_self);
    put("triage.self_s", l.triage_self);
    put("unattributed_s", l.unattributed());
    m
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

fn verdicts_json(v: &Verdicts) -> String {
    let kinds: Vec<String> = v.kinds.iter().map(|k| json_str(k)).collect();
    format!(
        "{{\"selected\": {}, \"run\": {}, \"passed\": {}, \"quarantined\": {}, \
         \"retries\": {}, \"kinds\": [{}], \"deterministic\": {}}}",
        v.selected,
        v.run,
        v.passed,
        v.quarantined,
        v.retries,
        kinds.join(", "),
        v.deterministic
    )
}

fn print_result(metrics: &Metrics, verdicts: &[(String, Verdicts)]) {
    let m: Vec<String> = metrics
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_num(*v)))
        .collect();
    let v: Vec<String> = verdicts
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), verdicts_json(v)))
        .collect();
    println!(
        "{{\"metrics\": {{{}}}, \"verdicts\": {{{}}}}}",
        m.join(", "),
        v.join(", ")
    );
}

// ---------------------------------------------------------------------
// Modes.

struct Args {
    positional: Vec<String>,
    flags: BTreeMap<String, String>,
}

impl Args {
    fn parse() -> Self {
        let mut positional = Vec::new();
        let mut flags = BTreeMap::new();
        let mut args = std::env::args().skip(1).peekable();
        while let Some(a) = args.next() {
            if let Some(key) = a.strip_prefix("--") {
                let value = match args.peek() {
                    Some(v) if !v.starts_with("--") => args.next().expect("peeked"),
                    _ => "true".to_string(),
                };
                flags.insert(key.to_string(), value);
            } else {
                positional.push(a);
            }
        }
        Args { positional, flags }
    }

    fn num(&self, key: &str, default: u64) -> u64 {
        match self.flags.get(key) {
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| fail(&format!("--{key} needs a number, got {v:?}"))),
            None => default,
        }
    }

    fn target(&self) -> &str {
        self.positional
            .get(1)
            .map(String::as_str)
            .unwrap_or_else(|| fail("missing target"))
    }

    fn sim_seed(&self) -> Option<u64> {
        (!self.flags.contains_key("threads")).then(|| self.num("sim-seed", 42))
    }
}

fn main() {
    let args = Args::parse();
    let limit = args.num("limit", 0) as usize;
    match args.positional.first().map(String::as_str) {
        Some("traced") => {
            let (layers, verdicts) = traced_run(args.target(), None, limit, args.sim_seed());
            print_result(
                &layer_metrics(&layers),
                &[(args.target().to_string(), verdicts)],
            );
        }
        Some("bughunt") => {
            let mut total = Layers::default();
            let mut per_bug = Metrics::new();
            let mut verdicts = Vec::new();
            for (name, bug) in BUGS {
                let (layers, v) = traced_run(name, Some(bug), 0, args.sim_seed());
                per_bug.insert(format!("bughunt.{bug}.wall_s"), layers.wall);
                per_bug.insert(format!("bughunt.{bug}.cases"), layers.cases as f64);
                total.absorb(layers);
                verdicts.push((bug.to_string(), v));
            }
            let mut metrics = layer_metrics(&total);
            metrics.extend(per_bug);
            print_result(&metrics, &verdicts);
        }
        Some("paths") => {
            let t = target(args.target(), None, Backend::Threads);
            let pipeline = Pipeline::new(t.spec, t.registry, test_config(limit))
                .unwrap_or_else(|issues| fail(&format!("mapping issues: {issues:?}")));
            let (graph, _) = pipeline.check();
            let (paths, ..) = pipeline.generate_paths(&graph);
            println!(
                "{{\"states\": {}, \"paths\": {}}}",
                graph.state_count(),
                paths.len()
            );
        }
        Some("reference") => {
            let dir = PathBuf::from(
                args.flags
                    .get("journal-dir")
                    .unwrap_or_else(|| fail("reference needs --journal-dir")),
            );
            let (backend, clock) = backend(args.sim_seed());
            let mut t = target(args.target(), None, backend);
            let mut pc = campaign_config(limit);
            pc.clock = clock;
            pc.triage.campaign_dir = Some(dir);
            let pipeline = Pipeline::new(t.spec, t.registry, pc)
                .unwrap_or_else(|issues| fail(&format!("mapping issues: {issues:?}")));
            let mut built = 0;
            let mut make = || {
                built += 1;
                (t.make)()
            };
            let start = Instant::now();
            let result = pipeline.run(&mut make);
            let wall = start.elapsed().as_secs_f64();
            println!(
                "{{\"wall_s\": {}, \"verdicts\": {}}}",
                json_num(wall),
                verdicts_json(&Verdicts::of(&result, built))
            );
        }
        _ => fail("usage: perfbench-tracer traced|bughunt|paths|reference <target> [flags]"),
    }
}
