//! Campaign-harness throughput and recovery overhead.
//!
//! Runs the Xraft campaign end-to-end **in-process** (worker loops on
//! threads instead of child processes — the orchestration, lease, and
//! journal code paths are identical), measures cases/sec by worker
//! count, then interrupts a campaign mid-flight with an injected drain
//! and times the resume. Canonical merge outputs are asserted
//! byte-identical across worker counts and across the
//! interrupt-and-resume cycle, and the numbers go to
//! `BENCH_campaign.json` at the repository root.
//!
//! `BENCH_SMOKE=1` shrinks the case set and worker-count sweep so CI
//! can exercise the whole harness in seconds.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mocket_checker::StateGraph;
use mocket_core::orchestrator::{
    clear_drain_marker, merge_campaign, worker_loop, CampaignPlan, InjectionConfig, LeaseConfig,
    MergeInputs, PlanCase, ShardSetup, WorkerConfig, WorkerContext,
};
use mocket_core::{Pipeline, PipelineConfig, RunConfig, TestCase};
use mocket_obs::Obs;
use mocket_core::SystemUnderTest;
use mocket_raft_async::{make_sut, mapping, XraftBugs};
use mocket_runtime::Backend;
use mocket_sim::SimHandle;
use mocket_specs::raft::{RaftSpec, RaftSpecConfig};
use mocket_tla::Spec;

/// Peak RSS (VmHWM) in kB, from /proc/self/status; 0 off-Linux.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")
                    .and_then(|rest| rest.split_whitespace().next())
                    .and_then(|kb| kb.parse().ok())
            })
        })
        .unwrap_or(0)
}

/// One campaign scenario: the model, the case budget, sharding.
#[derive(Clone)]
struct Scenario {
    max_states: usize,
    max_test_cases: usize,
    max_path_len: usize,
    shard_size: usize,
}

impl Scenario {
    fn smoke() -> Scenario {
        Scenario {
            max_states: 2000,
            max_test_cases: 12,
            max_path_len: 0,
            shard_size: 4,
        }
    }

    fn full() -> Scenario {
        Scenario {
            max_states: 20_000,
            max_test_cases: 48,
            max_path_len: 0,
            shard_size: 8,
        }
    }

    fn pipeline_config(&self) -> PipelineConfig {
        let mut pc = PipelineConfig::default();
        pc.max_states = self.max_states;
        pc.por = false;
        pc.stop_at_first_bug = false;
        pc.max_path_len = self.max_path_len;
        pc.max_test_cases = self.max_test_cases;
        pc.run = RunConfig::fast();
        pc
    }
}

fn xraft_spec() -> Arc<dyn Spec> {
    Arc::new(RaftSpec::new(RaftSpecConfig::xraft(vec![1, 2])))
}

fn xraft_servers() -> Vec<u64> {
    RaftSpecConfig::xraft(vec![1, 2])
        .servers
        .iter()
        .map(|&i| i as u64)
        .collect()
}

/// Materializes the plan's view of the selected paths, exactly as the
/// CLI does when pinning a campaign.
fn plan_cases(graph: &StateGraph, paths: &[Vec<mocket_checker::EdgeId>]) -> Vec<PlanCase> {
    paths
        .iter()
        .map(|p| match TestCase::from_edge_path(graph, p) {
            Some(tc) => PlanCase {
                hash: tc.stable_hash(),
                len: tc.len(),
            },
            None => PlanCase {
                hash: "-".into(),
                len: 0,
            },
        })
        .collect()
}

const LEASE: LeaseConfig = LeaseConfig {
    heartbeat: Duration::from_millis(50),
    ttl: Duration::from_millis(2000),
};

/// Runs one worker loop on the current thread — the same code a
/// `campaign-worker` child process runs, minus the process boundary.
fn run_worker(scenario: &Scenario, dir: &Path, worker_id: usize, inject: InjectionConfig) {
    let spec = xraft_spec();
    let registry = mapping();
    let servers = xraft_servers();
    let plan = CampaignPlan::load(dir)
        .expect("load pinned plan")
        .expect("plan pinned before workers start");
    let worker_dir = dir.join(format!("worker-{worker_id}"));
    let obs = Obs::jsonl_in(&worker_dir).unwrap_or_else(|_| Obs::disabled());

    let mut base_pc = scenario.pipeline_config();
    base_pc.obs = obs.clone();
    let base = Pipeline::new(spec.clone(), registry.clone(), base_pc).expect("bench mapping");
    let (graph, check_seconds) = base.check();
    let prepared = base.prepare(&graph);

    let run_cfg = RunConfig::fast();
    let spec_name = spec.name().to_string();
    let wcfg = WorkerConfig {
        campaign_dir: dir.to_path_buf(),
        worker_id,
        lease: LEASE,
        poison_threshold: 2,
        plan_hash: plan.stable_hash(),
        inject,
    };
    let ctx = WorkerContext {
        plan: &plan,
        spec_name: &spec_name,
        spec_config: "target=xraft bug=-",
        run: &run_cfg,
        prepared: &prepared,
        check_seconds,
    };
    let build = |setup: &ShardSetup| {
        let mut pc = scenario.pipeline_config();
        pc.obs = obs.clone();
        pc.case_range = Some(setup.range);
        pc.case_gate = Some(setup.gate.clone());
        pc.triage.campaign_dir = Some(setup.shard_dir.clone());
        pc.triage.spec_config = "target=xraft bug=-".to_string();
        Pipeline::new(spec.clone(), registry.clone(), pc).expect("bench mapping")
    };
    let mut make = move || -> Box<dyn mocket_core::SystemUnderTest> {
        Box::new(make_sut(servers.clone(), XraftBugs::none()))
    };
    worker_loop(&wcfg, &ctx, graph, build, &mut make).expect("worker loop");
}

/// Pins the plan (or verifies resume), runs `workers` worker loops on
/// threads, merges. Returns the wall-clock seconds of the worker +
/// merge phase (planning/model-checking excluded — that cost is
/// amortized across a real campaign's lifetime and reported
/// separately).
fn run_campaign(
    scenario: &Scenario,
    dir: &Path,
    workers: usize,
    inject: InjectionConfig,
) -> (f64, usize) {
    let spec = xraft_spec();
    let obs = Obs::disabled();
    let mut pc = scenario.pipeline_config();
    pc.obs = obs.clone();
    let pipeline = Pipeline::new(spec.clone(), mapping(), pc).expect("bench mapping");
    let (graph, _check_seconds) = pipeline.check();
    let (paths, _ec, _ecpor, por_excluded) = pipeline.generate_paths(&graph);
    let fresh = CampaignPlan {
        target: "xraft".into(),
        bug: None,
        max_states: scenario.max_states,
        max_path_len: scenario.max_path_len,
        max_test_cases: scenario.max_test_cases,
        shard_size: scenario.shard_size,
        cases: plan_cases(&graph, &paths),
    };
    let plan = match CampaignPlan::load(dir).expect("load plan") {
        Some(existing) => {
            existing.verify_matches(&fresh).expect("resume plan matches");
            existing
        }
        None => {
            fresh.write_to(dir).expect("pin plan");
            fresh
        }
    };
    clear_drain_marker(dir);

    let started = Instant::now();
    std::thread::scope(|scope| {
        for id in 0..workers {
            let scenario = scenario.clone();
            let inject = inject.clone();
            let dir = dir.to_path_buf();
            scope.spawn(move || run_worker(&scenario, &dir, id, inject));
        }
    });

    let m = obs.metrics();
    let merged = merge_campaign(&MergeInputs {
        campaign_dir: dir,
        plan: &plan,
        graph: &graph,
        paths: &paths,
        spec_name: spec.name(),
        coverage_visited: m.gauge("coverage.edges_visited").unwrap_or(0.0) as u64,
        coverage_targets: m.gauge("coverage.edge_targets").unwrap_or(0.0) as u64,
        coverage_fraction: m.gauge("coverage.fraction").unwrap_or(0.0),
        por_excluded: por_excluded as u64,
        completed: true,
        obs: obs.clone(),
    })
    .expect("merge");
    (started.elapsed().as_secs_f64(), merged.cases_with_verdict)
}

/// The canonical outputs that must not depend on worker count or on
/// an interrupt-and-resume cycle.
const CANONICAL_STABLE: &[&str] = &["journal.log", "coverage.json"];

fn read_canonical(dir: &Path) -> Vec<(String, Vec<u8>)> {
    CANONICAL_STABLE
        .iter()
        .map(|name| {
            let bytes = std::fs::read(dir.join(name))
                .unwrap_or_else(|e| panic!("read {name} in {}: {e}", dir.display()));
            (name.to_string(), bytes)
        })
        .collect()
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("mocket-bench-campaign-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create bench dir");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Run {
    workers: usize,
    secs: f64,
    cases_per_sec: f64,
    speedup: f64,
}

/// One timed case phase on one cluster backend.
struct BackendRow {
    workload: &'static str,
    sim: bool,
    secs: f64,
    cases: usize,
    cases_per_sec: f64,
    /// Throughput relative to the real (threaded) row of the same
    /// workload; 1.0 for the real row itself.
    speedup: f64,
}

/// Times the case-execution phase of one workload on one backend
/// (model checking excluded — it is backend-independent). Returns
/// wall seconds, cases run, and the verdict kinds for parity checks.
fn time_backend<M>(
    spec: Arc<dyn Spec>,
    registry: mocket_core::MappingRegistry,
    max_test_cases: usize,
    mut make: M,
    sim: Option<&SimHandle>,
) -> (f64, usize, Vec<String>)
where
    M: FnMut(Backend) -> Box<dyn SystemUnderTest>,
{
    let mut pc = PipelineConfig::default();
    pc.max_states = 20_000;
    pc.por = false;
    pc.stop_at_first_bug = false;
    pc.max_path_len = 60;
    pc.max_test_cases = max_test_cases;
    pc.run = RunConfig::fast();
    pc.obs = Obs::disabled();
    let backend = match sim {
        Some(handle) => {
            pc.clock = handle.clock.clone();
            Backend::Sim(handle.clone())
        }
        None => Backend::Threads,
    };
    let pipeline = Pipeline::new(spec, registry, pc).expect("bench mapping");
    let (graph, check_seconds) = pipeline.check();
    let started = Instant::now();
    let result = pipeline.run_prepared(graph, check_seconds, || make(backend.clone()));
    let secs = started.elapsed().as_secs_f64();
    let cases = result.passed + result.reports.len() + result.quarantined.len();
    let verdicts = result
        .reports
        .iter()
        .map(|r| r.inconsistency.kind().to_string())
        .collect();
    (secs, cases, verdicts)
}

/// Real-vs-sim throughput on two workloads: the clean Xraft campaign
/// (every case passes; real mode still pays per-step thread
/// round-trips) and a bug-seeded SyncRaft campaign (failing cases
/// wait out 50ms offer deadlines through the runner's backoff, then
/// pay them again during triage and minimization — in sim those waits
/// are instant virtual-time jumps). Verdict parity between backends
/// is asserted before any number is reported.
fn run_backend_comparison(smoke: bool) -> Vec<BackendRow> {
    let mut rows = Vec::new();
    let workloads: Vec<(
        &'static str,
        Arc<dyn Spec>,
        mocket_core::MappingRegistry,
        usize,
        Box<dyn FnMut(Backend) -> Box<dyn SystemUnderTest>>,
    )> = vec![
        (
            "xraft-clean",
            xraft_spec(),
            mapping(),
            if smoke { 8 } else { 24 },
            Box::new(|backend| {
                Box::new(mocket_raft_async::make_sut_backend(
                    xraft_servers(),
                    XraftBugs::none(),
                    backend,
                ))
            }),
        ),
        (
            "raft-java-buggy",
            {
                let mut cfg = RaftSpecConfig::raft_java(vec![1, 2, 3]);
                cfg.max_term = 2;
                cfg.client_request_limit = 0;
                cfg.candidates = Some(vec![1]);
                Arc::new(RaftSpec::new(cfg))
            },
            mocket_raft_sync::mapping(false),
            if smoke { 4 } else { 12 },
            Box::new(|backend| {
                let mut bugs = mocket_raft_sync::SyncRaftBugs::none();
                bugs.ignore_extra_vote_response = true;
                Box::new(mocket_raft_sync::make_sut_backend(
                    vec![1, 2, 3],
                    bugs,
                    backend,
                ))
            }),
        ),
        // The same buggy campaign under seeded time-based delay
        // faults: every deployment holds ~40% of messages for a
        // 5–12ms RTT maturing on the cluster clock. Real mode pays
        // the holds in wall time; sim mode jumps them — and the
        // verdict-parity assertion below doubles as the delay-fault
        // equivalence gate.
        (
            "raft-java-buggy-delays",
            {
                let mut cfg = RaftSpecConfig::raft_java(vec![1, 2, 3]);
                cfg.max_term = 2;
                cfg.client_request_limit = 0;
                cfg.candidates = Some(vec![1]);
                Arc::new(RaftSpec::new(cfg))
            },
            mocket_raft_sync::mapping(false),
            if smoke { 4 } else { 12 },
            Box::new(|backend| {
                let mut bugs = mocket_raft_sync::SyncRaftBugs::none();
                bugs.ignore_extra_vote_response = true;
                let plan = mocket_dsnet::FaultPlan::with_config(
                    99,
                    mocket_dsnet::FaultPlanConfig::timed_delays(
                        Duration::from_millis(5),
                        Duration::from_millis(2),
                    ),
                );
                Box::new(mocket_raft_sync::make_sut_full(
                    vec![1, 2, 3],
                    bugs,
                    false,
                    backend,
                    Some(plan),
                ))
            }),
        ),
    ];
    for (workload, spec, registry, cases_budget, mut make) in workloads {
        let (real_secs, real_cases, real_verdicts) =
            time_backend(spec.clone(), registry.clone(), cases_budget, &mut make, None);
        let handle = SimHandle::new(42);
        let (sim_secs, sim_cases, sim_verdicts) =
            time_backend(spec, registry, cases_budget, &mut make, Some(&handle));
        assert_eq!(
            real_verdicts, sim_verdicts,
            "{workload}: sim backend must reproduce the real backend's verdicts"
        );
        assert_eq!(real_cases, sim_cases);
        let real_rate = real_cases as f64 / real_secs.max(1e-9);
        let sim_rate = sim_cases as f64 / sim_secs.max(1e-9);
        let speedup = sim_rate / real_rate.max(1e-9);
        println!(
            "backend {workload}: real {real_cases} case(s) in {real_secs:.3}s \
             ({real_rate:.1}/sec), sim in {sim_secs:.3}s ({sim_rate:.1}/sec, {speedup:.1}x)"
        );
        rows.push(BackendRow {
            workload,
            sim: false,
            secs: real_secs,
            cases: real_cases,
            cases_per_sec: real_rate,
            speedup: 1.0,
        });
        rows.push(BackendRow {
            workload,
            sim: true,
            secs: sim_secs,
            cases: sim_cases,
            cases_per_sec: sim_rate,
            speedup,
        });
    }
    rows
}

/// The tracing no-op-path guard's measurements.
struct TracingGuard {
    cases: usize,
    off_secs: f64,
    on_secs: f64,
    off_cases_per_sec: f64,
    on_cases_per_sec: f64,
    /// Throughput lost by turning tracing on: `1 - on_rate/off_rate`.
    on_overhead_frac: f64,
}

/// Measures the case-execution loop with causal tracing off (the
/// default every campaign gets) against the same loop with tracing on,
/// interleaved best-of-N on the sim backend so the timing is dominated
/// by the loop itself rather than sleeps or I/O (no campaign dir: the
/// traced runs record events in memory, isolating the hook cost from
/// file appends).
///
/// The guard asserted in `main` (full mode): the off path must not run
/// more than 2% slower than the on path. A disabled tracer is one
/// null-check per hook; if the off path falls measurably behind even
/// the *tracing* loop, the no-op gate broke and every untraced
/// campaign is paying for tracing it did not ask for. The on path's
/// own cost is real work and is recorded, not bounded.
fn run_tracing_guard(smoke: bool) -> TracingGuard {
    let cases = if smoke { 8 } else { 48 };
    let reps = if smoke { 3 } else { 7 };
    let run_once = |trace: bool| -> (f64, usize) {
        let handle = SimHandle::new(42);
        let mut pc = PipelineConfig::default();
        pc.max_states = 20_000;
        pc.por = false;
        pc.stop_at_first_bug = false;
        pc.max_path_len = 60;
        pc.max_test_cases = cases;
        pc.run = RunConfig::fast();
        pc.obs = Obs::disabled();
        pc.clock = handle.clock.clone();
        pc.trace = trace;
        let pipeline = Pipeline::new(xraft_spec(), mapping(), pc).expect("bench mapping");
        let (graph, check_seconds) = pipeline.check();
        let started = Instant::now();
        let result = pipeline.run_prepared(graph, check_seconds, || {
            Box::new(mocket_raft_async::make_sut_backend(
                xraft_servers(),
                XraftBugs::none(),
                Backend::Sim(handle.clone()),
            )) as Box<dyn SystemUnderTest>
        });
        let secs = started.elapsed().as_secs_f64();
        let ran = result.passed + result.reports.len() + result.quarantined.len();
        (secs, ran)
    };
    let (mut off_secs, mut on_secs) = (f64::INFINITY, f64::INFINITY);
    let mut ran = 0usize;
    for _ in 0..reps {
        let (off, n) = run_once(false);
        let (on, m) = run_once(true);
        assert_eq!(n, m, "tracing must not change which cases run");
        ran = n;
        off_secs = off_secs.min(off);
        on_secs = on_secs.min(on);
    }
    let off_rate = ran as f64 / off_secs.max(1e-9);
    let on_rate = ran as f64 / on_secs.max(1e-9);
    let guard = TracingGuard {
        cases: ran,
        off_secs,
        on_secs,
        off_cases_per_sec: off_rate,
        on_cases_per_sec: on_rate,
        on_overhead_frac: 1.0 - on_rate / off_rate.max(1e-9),
    };
    println!(
        "tracing guard: off {ran} case(s) in {off_secs:.4}s ({off_rate:.1}/sec), \
         on in {on_secs:.4}s ({on_rate:.1}/sec, overhead {:.1}%)",
        guard.on_overhead_frac * 100.0
    );
    guard
}

fn main() {
    let smoke = std::env::var("BENCH_SMOKE").is_ok();
    let scenario = if smoke {
        Scenario::smoke()
    } else {
        Scenario::full()
    };
    let worker_counts: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4] };

    // Throughput sweep: one fresh campaign per worker count, canonical
    // outputs byte-compared against the single-worker baseline.
    let mut runs: Vec<Run> = Vec::new();
    let mut cases_total = 0usize;
    let mut baseline: Option<Vec<(String, Vec<u8>)>> = None;
    let mut reference: Option<(usize, f64)> = None;
    for &workers in worker_counts {
        let dir = TempDir::new(&format!("w{workers}"));
        let (secs, cases) = run_campaign(&scenario, &dir.0, workers, InjectionConfig::default());
        cases_total = cases;
        let outputs = read_canonical(&dir.0);
        match &baseline {
            None => baseline = Some(outputs),
            Some(base) => {
                for ((name, a), (_, b)) in base.iter().zip(&outputs) {
                    assert_eq!(a, b, "{name} must not depend on worker count");
                }
            }
        }
        let base_secs = reference.get_or_insert((workers, secs)).1;
        let speedup = if secs > 0.0 { base_secs / secs } else { 1.0 };
        println!(
            "workers={workers}: {cases} case(s) in {secs:.3}s ({:.1} cases/sec, {speedup:.2}x)",
            cases as f64 / secs.max(1e-9)
        );
        runs.push(Run {
            workers,
            secs,
            cases_per_sec: cases as f64 / secs.max(1e-9),
            speedup,
        });
    }

    // Recovery overhead: drain mid-campaign, then resume the same
    // directory and verify the merged outputs match an uninterrupted
    // run byte for byte.
    let workers = *worker_counts.last().unwrap();
    let clean = TempDir::new("recovery-clean");
    let (clean_secs, _) = run_campaign(&scenario, &clean.0, workers, InjectionConfig::default());
    let interrupted = TempDir::new("recovery-interrupted");
    let drain_at = scenario.max_test_cases / 2;
    let inject = InjectionConfig {
        drain: Some(drain_at),
        ..InjectionConfig::default()
    };
    let (interrupted_secs, _) = run_campaign(&scenario, &interrupted.0, workers, inject);
    let (resume_secs, _) =
        run_campaign(&scenario, &interrupted.0, workers, InjectionConfig::default());
    for ((name, a), (_, b)) in read_canonical(&clean.0)
        .iter()
        .zip(&read_canonical(&interrupted.0))
    {
        assert_eq!(a, b, "{name} must survive interrupt-and-resume unchanged");
    }
    let overhead_frac = ((interrupted_secs + resume_secs) - clean_secs) / clean_secs.max(1e-9);
    println!(
        "recovery: clean {clean_secs:.3}s, interrupted {interrupted_secs:.3}s + resume \
         {resume_secs:.3}s (overhead {:.0}%)",
        overhead_frac * 100.0
    );

    // Causal tracing's fast no-op path: the default (untraced) loop
    // must not pay for the tracing hooks.
    let tracing = run_tracing_guard(smoke);
    if !smoke {
        assert!(
            tracing.off_cases_per_sec >= tracing.on_cases_per_sec * 0.98,
            "tracing-off loop regressed >2% below the tracing-on loop \
             ({:.1} vs {:.1} cases/sec) — the no-op gate is broken",
            tracing.off_cases_per_sec,
            tracing.on_cases_per_sec
        );
    }

    // Simulation backend: same campaigns, virtual clock, no wall-clock
    // sleeps.
    let backend_rows = run_backend_comparison(smoke);
    if !smoke {
        let buggy_sim = backend_rows
            .iter()
            .find(|r| r.workload == "raft-java-buggy" && r.sim)
            .expect("buggy sim row");
        assert!(
            buggy_sim.speedup >= 50.0,
            "sim backend must deliver >=50x cases/sec on the bug-seeded \
             workload, got {:.1}x",
            buggy_sim.speedup
        );
    }

    let rss_kb = peak_rss_kb();
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"campaign\",");
    let _ = writeln!(json, "  \"model\": \"xraft\",");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"cases\": {cases_total},");
    let _ = writeln!(json, "  \"shard_size\": {},", scenario.shard_size);
    let _ = writeln!(json, "  \"peak_rss_kb\": {rss_kb},");
    let _ = writeln!(
        json,
        "  \"recovery\": {{\"clean_secs\": {clean_secs:.4}, \"interrupted_secs\": \
         {interrupted_secs:.4}, \"resume_secs\": {resume_secs:.4}, \"overhead_frac\": \
         {overhead_frac:.4}}},"
    );
    let _ = writeln!(
        json,
        "  \"tracing_guard\": {{\"cases\": {}, \"off_secs\": {:.4}, \"on_secs\": {:.4}, \
         \"off_cases_per_sec\": {:.1}, \"on_cases_per_sec\": {:.1}, \"on_overhead_frac\": \
         {:.4}, \"off_regression_budget_frac\": 0.02}},",
        tracing.cases,
        tracing.off_secs,
        tracing.on_secs,
        tracing.off_cases_per_sec,
        tracing.on_cases_per_sec,
        tracing.on_overhead_frac
    );
    let _ = writeln!(json, "  \"runs\": [");
    for (i, r) in runs.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"workers\": {}, \"secs\": {:.4}, \"cases_per_sec\": {:.1}, \"speedup\": {:.3}}}{}",
            r.workers,
            r.secs,
            r.cases_per_sec,
            r.speedup,
            if i + 1 < runs.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"backends\": [");
    for (i, r) in backend_rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"workload\": \"{}\", \"sim\": {}, \"secs\": {:.4}, \"cases\": {}, \
             \"cases_per_sec\": {:.1}, \"speedup\": {:.1}}}{}",
            r.workload,
            r.sim,
            r.secs,
            r.cases,
            r.cases_per_sec,
            r.speedup,
            if i + 1 < backend_rows.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");

    // Walk up from the bench crate to the workspace root so the
    // artifact lands beside the other BENCH_*.json files.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root");
    let out = root.join("BENCH_campaign.json");
    std::fs::write(&out, &json).expect("write BENCH_campaign.json");
    println!("wrote {}", out.display());
}
