#!/usr/bin/env python3
"""End-to-end benchmark of mocket-cli, with a traced per-layer mode.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --smoke

Run from the repository root. The script builds `mocket-cli` and the
tracer package (perfbench/tracer) into $CARGO_TARGET_DIR (default
`.bench_build`), repeats the workload until `--seconds` are used up and
prints, as its last stdout line, one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
end-to-end metrics (medians over the repetitions), `--trace 1` the
per-layer metrics of a separate traced run. Workloads, metrics and
their meaning are described in perfbench/README.md.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
# Scratch space inside the checkout, one directory per process.
WORK_DIR = os.path.join(".perfbench_work", str(os.getpid()))

WORKLOADS = ("conformance-sim", "bughunt-sim", "campaign-sim", "conformance-threads")

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cases_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "ratio"),
]

# The seven seeded Table 2 bugs with the outcome recorded from
# `mocket-cli test <target> --bug <bug> --sim` at the commit that added
# this benchmark: (target, bug, inconsistency kind, states). Neither
# depends on the sim seed. The cases run up to the report are measured
# (bughunt.<bug>.cases), not checked: finding a bug sooner is a gain.
BUGS = [
    ("xraft", "duplicate-vote-counting", "Inconsistent state", 215),
    ("xraft", "voted-for-not-persisted", "Inconsistent state", 178),
    ("xraft", "noop-log-grant", "Unexpected action", 832),
    ("raft-java", "ignore-extra-vote-response", "Missing action", 76),
    ("raft-java", "log-truncation", "Inconsistent state", 37249),
    ("zab", "election-echo-storm", "Unexpected action", 8993),
    ("zab", "epoch-marker-race", "Missing action", 11306),
]

# Case counts of the limited workloads (0 = the whole suite), and the
# tiny sizes the smoke mode uses instead.
SIZES = {"conformance-sim": 0, "conformance-threads": 1500, "campaign-sim": 480}
SMOKE_SIZES = {"conformance-sim": 40, "conformance-threads": 40, "campaign-sim": 32}
CAMPAIGN_WORKERS = 2
REFERENCE_SEED = 42

LAYER_METRICS = [
    ("trace.wall_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("checker.wall_s", "s"),
    ("checker.states_per_s", "1/s"),
    ("checker.distinct_states", "count"),
    ("checker.rss_mb", "MiB"),
    ("traversal.wall_s", "s"),
    ("traversal.paths", "count"),
    ("pipeline.case_overhead_us", "us"),
    ("runner.case_p50_ms", "ms"),
    ("runner.case_p99_ms", "ms"),
    ("runner.sleep_calls", "count"),
    ("runner.sleep_s", "s"),
    ("runner.steps_per_case", "count"),
    ("runner.snapshots_per_case", "count"),
    ("cluster.execute_us", "us"),
    ("cluster.execute_p99_us", "us"),
    ("cluster.snapshot_us", "us"),
    ("cluster.offers_us", "us"),
    ("cluster.external_us", "us"),
    ("cluster.deploy_us", "us"),
    ("cluster.teardown_us", "us"),
    ("cluster.sut_s", "s"),
    ("triage.wall_s", "s"),
    ("triage.reruns", "count"),
    ("triage.shrink_ratio", "ratio"),
    ("campaign.plan_s", "s"),
    ("campaign.worker_start_s", "s"),
    ("campaign.shard_p50_s", "s"),
    ("campaign.shard_p90_s", "s"),
    ("campaign.shard_gap_s", "s"),
    ("campaign.insight_rewrites", "count"),
    ("campaign.merge_s", "s"),
    ("campaign.restarts", "count"),
    ("campaign.overhead_x", "ratio"),
]
for _target, _bug, *_ in BUGS:
    LAYER_METRICS += [(f"bughunt.{_bug}.wall_s", "s"), (f"bughunt.{_bug}.cases", "count")]
# Accounting rows: on every workload these self times plus
# unattributed_s split trace.wall_s into disjoint parts.
SELF_LAYERS = ["checker", "traversal", "pipeline", "runner", "cluster", "triage", "campaign", "shards"]
LAYER_METRICS += [(f"{layer}.self_s", "s") for layer in SELF_LAYERS] + [("unattributed_s", "s")]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


# ----------------------------------------------------------------------
# Build and host facts.


def build():
    """Builds both binaries; returns their paths. Exits 1 on failure."""
    if not os.path.isfile("Cargo.toml"):
        fail("run from the repository root (no Cargo.toml here)")
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--bin", "mocket-cli"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(BENCH_DIR, "tracer", "Cargo.toml")],
    ):
        r = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        if r.returncode != 0:
            sys.stderr.write(r.stderr.decode(errors="replace")[-4000:])
            fail("build failed: " + " ".join(cmd))
    release = os.path.join(os.path.abspath(env["CARGO_TARGET_DIR"]), "release")
    return os.path.join(release, "mocket-cli"), os.path.join(release, "perfbench-tracer")


def host_facts():
    """nproc, load averages and the CPU steal ticks so far (/proc/stat)."""
    facts = {"nproc": os.cpu_count()}
    try:
        facts["available_parallelism"] = len(os.sched_getaffinity(0))
    except AttributeError:
        facts["available_parallelism"] = os.cpu_count()
    try:
        with open("/proc/loadavg") as f:
            facts["loadavg"] = [float(x) for x in f.read().split()[:3]]
        with open("/proc/stat") as f:
            facts["steal_ticks"] = int(f.readline().split()[8])
    except (OSError, IndexError, ValueError):
        pass
    return facts


# ----------------------------------------------------------------------
# One process launch, measured from outside.


class Launch:
    """Runs one command and measures it from outside: wall time, rusage
    (waited-for children included), and when `stderr_marker` /
    `stdout_marker` first appear in its output. Output goes to files,
    not pipes, so that once the markers are seen nothing on this side
    wakes up until the command exits. `poll(elapsed)` is called on the
    same schedule until it returns True."""

    def __init__(self, cmd, stderr_marker=None, stdout_marker=None, poll=None):
        os.makedirs(WORK_DIR, exist_ok=True)
        out_path = os.path.join(WORK_DIR, "stdout")
        err_path = os.path.join(WORK_DIR, "stderr")
        self.marks = {}
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            self.t0 = time.perf_counter()
            self.wall_t0 = time.time()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, stdin=subprocess.DEVNULL)
        done = threading.Event()
        watch = [(k, path, m) for k, path, m in (("stderr", err_path, stderr_marker),
                                                 ("stdout", out_path, stdout_marker)) if m]
        watcher = threading.Thread(target=self._watch, args=(watch, poll, done))
        watcher.start()
        _, status, ru = os.wait4(proc.pid, 0)
        self.wall = time.perf_counter() - self.t0
        proc.returncode = self.returncode = os.waitstatus_to_exitcode(status)
        done.set()
        watcher.join()
        self.cpu = ru.ru_utime + ru.ru_stime
        self.rss_mb = ru.ru_maxrss / 1024.0
        with open(out_path, errors="replace") as f:
            self.out = f.read()

    def _watch(self, watch, poll, done):
        seen = {k: (0, b"") for k, _, _ in watch}  # read offset, unsearched tail
        while True:
            finished = done.is_set()
            now = time.perf_counter() - self.t0
            for key, path, marker in watch:
                if key in self.marks:
                    continue
                offset, tail = seen[key]
                with open(path, "rb") as f:
                    f.seek(offset)
                    chunk = f.read()
                text = tail + chunk
                if marker.encode() in text:
                    self.marks[key] = now
                seen[key] = (offset + len(chunk), text[-len(marker):])
            polled = poll is None or poll(now)
            if finished or (polled and all(k in self.marks for k, _, _ in watch)):
                return
            time.sleep(0.002)


# ----------------------------------------------------------------------
# Workload iterations. Each returns a dict with the raw end-to-end
# figures and the checks it made: {"wall", "setup", "cases", "cpu",
# "rss", "ops", "ok", "notes"}.


class Ctx:
    def __init__(self, cli, tracer, seed, smoke):
        self.cli = cli
        self.tracer = tracer
        self.seed = seed
        self.smoke = smoke
        self.iteration = 0
        self._expected = {}

    def size(self, workload):
        return (SMOKE_SIZES if self.smoke else SIZES)[workload]

    def tracer_json(self, *args):
        """The tracer's result, with its process wall time measured from
        here as `process_wall_s`."""
        t0 = time.perf_counter()
        r = subprocess.run([self.tracer, *args], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        elapsed = time.perf_counter() - t0
        if r.returncode != 0:
            fail(f"tracer {' '.join(args)} failed: {r.stderr.decode(errors='replace')[-2000:]}")
        result = json.loads(r.stdout.decode().strip().splitlines()[-1])
        result["process_wall_s"] = elapsed
        return result

    def expected_paths(self, limit):
        """The traversal's case count, from the library (seed-free)."""
        key = ("paths", limit)
        if key not in self._expected:
            self._expected[key] = self.tracer_json("paths", "xraft", "--limit", str(limit))["paths"]
        return self._expected[key]

    def reference(self, limit):
        """In-process verdicts of the campaign's cases on the reference
        seed: ordered [(hash, outcome line)]."""
        key = ("reference", limit)
        if key not in self._expected:
            d = os.path.join(WORK_DIR, "reference")
            shutil.rmtree(d, ignore_errors=True)
            os.makedirs(d)
            self.tracer_json("reference", "xraft", "--journal-dir", d, "--limit", str(limit),
                             "--sim-seed", str(REFERENCE_SEED))
            self._expected[key] = read_journal(os.path.join(d, "journal.log"))
            shutil.rmtree(d, ignore_errors=True)
        return self._expected[key]


SUMMARY_RE = re.compile(
    r"(\d+) states, (\d+) cases selected, (\d+) run, (\d+) passed, (\d+) quarantined")


def sim_args(ctx):
    return ["--sim", "--sim-seed", str(ctx.seed)]


def conformance_iteration(ctx, workload):
    limit = ctx.size(workload)
    cmd = [ctx.cli, "test", "xraft", "--progress"]
    if limit:
        cmd += ["--limit", str(limit)]
    if workload == "conformance-sim":
        cmd += sim_args(ctx)
    run = Launch(cmd, stderr_marker="cases selected")
    m = SUMMARY_RE.search(run.out)
    expected = ctx.expected_paths(limit)
    notes = []
    if run.returncode != 0:
        notes.append(f"exit {run.returncode}")
    if not m:
        notes.append("no summary line")
    else:
        _, selected, ran, passed, quarantined = map(int, m.groups())
        if not (selected == ran == passed == expected and quarantined == 0):
            notes.append(f"selected {selected} run {ran} passed {passed} quarantined "
                         f"{quarantined}, traversal has {expected}")
    if "the implementation conforms" not in run.out:
        notes.append("no conformance verdict")
    if "stderr" not in run.marks:
        notes.append("no set-up marker")
    cases = int(m.group(3)) if m else 0
    return {
        "wall": run.wall, "setup": run.marks.get("stderr", run.wall), "cases": cases,
        "cpu": run.cpu, "rss": run.rss_mb, "ops": 1, "ok": 0 if notes else 1, "notes": notes,
    }


def bughunt_iteration(ctx, _workload):
    total = {"wall": 0.0, "setup": 0.0, "cases": 0, "cpu": 0.0, "rss": 0.0,
             "ops": 0, "ok": 0, "notes": []}
    for target, bug, kind, states in BUGS:
        run = Launch([ctx.cli, "test", target, "--bug", bug, "--progress", *sim_args(ctx)],
                     stderr_marker="cases selected")
        m = SUMMARY_RE.search(run.out)
        notes = []
        if run.returncode != 0:
            notes.append(f"exit {run.returncode}")
        if not m:
            notes.append("no summary line")
        elif int(m.group(1)) != states:
            notes.append(f"{m.group(1)} states, expected {states}")
        if f"=== Bug report ({kind}," not in run.out:
            notes.append(f"no {kind!r} report")
        if "Reproducibility: deterministic" not in run.out:
            notes.append("not confirmed deterministic")
        if "stderr" not in run.marks:
            notes.append("no set-up marker")
        total["wall"] += run.wall
        total["setup"] += run.marks.get("stderr", run.wall)
        total["cases"] += int(m.group(3)) if m else 0
        total["cpu"] += run.cpu
        total["rss"] = max(total["rss"], run.rss_mb)
        total["ops"] += 1
        total["ok"] += 0 if notes else 1
        total["notes"] += [f"{bug}: {n}" for n in notes]
    return total


def case_lines(path):
    """The fields after `case:` on every case line of a plan or journal."""
    try:
        with open(path) as f:
            return [line.split()[1:] for line in f if line.startswith("case: ")]
    except OSError:
        return []


def read_journal(path):
    """[(hash, outcome)] in journal order."""
    return [(f[0], next((x for x in f if x.startswith("outcome=")), "")) for f in case_lines(path)]


class ShardWatch:
    """Polls a campaign's shards/ directory: the first claim (setup) and,
    when `timeline` is set, every shard's claim and retirement times."""

    def __init__(self, campaign_dir, timeline):
        self.shards = os.path.join(campaign_dir, "shards")
        self.timeline = timeline
        self.first_claim = None
        self.claimed = {}
        self.done = {}

    def __call__(self, now):
        """True once nothing more needs watching."""
        try:
            names = os.listdir(self.shards)
        except OSError:
            return False
        for name in names:
            stem, _, ext = name.partition(".")
            if ext not in ("lease", "done"):
                continue
            if self.first_claim is None:
                self.first_claim = now
                if not self.timeline:
                    return True
            table = self.claimed if ext == "lease" else self.done
            if stem not in table:
                table[stem] = now
        return False


def campaign_iteration(ctx, _workload, timeline=False):
    limit = ctx.size("campaign-sim")
    ctx.iteration += 1
    d = os.path.join(WORK_DIR, f"campaign-{ctx.iteration}")
    shutil.rmtree(d, ignore_errors=True)
    watch = ShardWatch(d, timeline)
    run = Launch([ctx.cli, "campaign", "xraft", "--campaign-dir", d, "--workers",
                  str(CAMPAIGN_WORKERS), "--limit", str(limit), *sim_args(ctx)],
                 stdout_marker="campaign plan pinned", poll=watch)
    notes = []
    shard_count = -(-limit // 8)
    if run.returncode != 0:
        notes.append(f"exit {run.returncode}")
    if f"{shard_count}/{shard_count} shards done, 0 worker restart(s), 0 hung" not in run.out:
        notes.append("not every shard done without restarts")
    if f"merged: {limit} case(s) with verdicts, {limit} passed" not in run.out:
        notes.append("merged verdict counts differ")
    reference = ctx.reference(limit)
    if len(reference) != limit:
        notes.append(f"in-process reference journaled {len(reference)} of {limit} cases")
    if read_journal(os.path.join(d, "journal.log")) != reference:
        notes.append("merged verdicts differ from the in-process verdicts")
    if [f[1] for f in case_lines(os.path.join(d, "plan.txt"))] != [h for h, _ in reference]:
        notes.append(f"case hashes under seed {ctx.seed} differ from seed {REFERENCE_SEED}")
    if watch.first_claim is None:
        notes.append("no shard claim seen")
    result = {
        "wall": run.wall, "setup": watch.first_claim or run.wall, "cases": limit,
        "cpu": run.cpu, "rss": run.rss_mb, "ops": 1, "ok": 0 if notes else 1, "notes": notes,
    }
    if timeline:
        result["layers"] = campaign_layers(run, watch, d)
    shutil.rmtree(d, ignore_errors=True)
    return result


def campaign_layers(run, watch, d):
    """Campaign sub-layers from the files it wrote and its exit time."""
    plan = run.marks.get("stdout", 0.0)
    first = watch.first_claim or plan
    durations, gaps = [], []
    by_worker = {}
    for stem, claimed in watch.claimed.items():
        finished = watch.done.get(stem)
        if finished is None:
            continue
        durations.append(finished - claimed)
        try:
            with open(os.path.join(watch.shards, stem + ".done")) as f:
                worker = re.search(r"worker=(\d+)", f.read()).group(1)
        except (OSError, AttributeError):
            continue
        by_worker.setdefault(worker, []).append((claimed, finished))
    busy = []
    for spans in by_worker.values():
        spans.sort()
        gaps += [b[0] - a[1] for a, b in zip(spans, spans[1:])]
        busy += spans
    last_done = max(watch.done.values(), default=first)
    try:
        last_reap = os.stat(os.path.join(d, "supervisor.log")).st_mtime - run.wall_t0
    except OSError:
        last_reap = last_done
    last_reap = min(max(last_reap, last_done), run.wall)
    rewrites = 0
    for name in os.listdir(d):
        if name.startswith("worker-"):
            try:
                with open(os.path.join(d, name, "campaign-history.jsonl")) as f:
                    rewrites += sum(1 for _ in f)
            except OSError:
                pass
    restarts = re.search(r"(\d+) worker restart", run.out)
    shards_busy = union_length(busy)
    return {
        "trace.wall_s": run.wall,
        "campaign.plan_s": plan,
        "campaign.worker_start_s": first - plan,
        "campaign.shard_p50_s": quantile(durations, 0.5),
        "campaign.shard_p90_s": quantile(durations, 0.9),
        "campaign.shard_gap_s": quantile(gaps, 0.5),
        "campaign.insight_rewrites": rewrites,
        "campaign.merge_s": run.wall - last_reap,
        "campaign.restarts": int(restarts.group(1)) if restarts else -1,
        # Sequential supervisor phases: plan and worker start-up up to
        # the first claim, then reaping the workers and merging.
        "campaign.self_s": first + (run.wall - last_done),
        # Time in the run phase during which some shard was leased.
        "shards.self_s": shards_busy,
        "unattributed_s": (last_done - first) - shards_busy,
    }


def union_length(spans):
    total, end = 0.0, None
    for s, e in sorted(spans):
        if end is None or s > end:
            total += e - s
            end = e
        elif e > end:
            total += e - end
            end = e
    return total


def quantile(values, q):
    if not values:
        return 0.0
    v = sorted(values)
    return v[round((len(v) - 1) * q)]


ITERATIONS = {
    "conformance-sim": conformance_iteration,
    "conformance-threads": conformance_iteration,
    "bughunt-sim": bughunt_iteration,
    "campaign-sim": campaign_iteration,
}


def repeat(seconds, step):
    """Calls `step` until the next call would overrun `seconds` (at least
    once); returns the list of results."""
    start = time.perf_counter()
    results = []
    while True:
        results.append(step())
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(results) > seconds:
            return results


# ----------------------------------------------------------------------
# Modes.


def end_to_end(ctx, workload, seconds):
    iters = repeat(seconds, lambda: ITERATIONS[workload](ctx, workload))
    med = lambda key: statistics.median(it[key] for it in iters)
    ops = sum(it["ops"] for it in iters)
    ok = sum(it["ok"] for it in iters)
    rates = [it["cases"] / (it["wall"] - it["setup"]) for it in iters if it["wall"] > it["setup"]]
    values = {
        "wall_s": med("wall"),
        "setup_s": med("setup"),
        "cases_per_s": statistics.median(rates) if rates else 0.0,
        "cpu_s": med("cpu"),
        "peak_rss_mb": max(it["rss"] for it in iters),
        "ok_frac": ok / ops if ops else 0.0,
    }
    notes = [n for it in iters for n in it["notes"]]
    info = {"samples": len(iters), "cases": [it["cases"] for it in iters],
            "walls": [round(it["wall"], 4) for it in iters]}
    return values, ops, ops - ok, notes, info


def traced(ctx, workload, seconds):
    """Alternates untraced CLI iterations with traced runs; per-layer
    metrics come from the traced run with the median wall time."""
    untraced_walls, traced_runs = [], []
    ops = failed = 0
    notes = []

    def pair():
        nonlocal ops, failed
        plain = ITERATIONS[workload](ctx, workload)
        untraced_walls.append(plain["wall"])
        t = traced_once(ctx, workload)
        traced_runs.append(t)
        ops += plain["ops"] + t["ops"]
        failed += (plain["ops"] - plain["ok"]) + (t["ops"] - t["ok"])
        notes.extend(plain["notes"] + t["notes"])

    repeat(seconds, pair)
    traced_runs.sort(key=lambda t: t["metrics"]["trace.wall_s"])
    chosen = traced_runs[(len(traced_runs) - 1) // 2]
    metrics = {name: 0.0 for name, _ in LAYER_METRICS}
    metrics.update(chosen["metrics"])
    traced_median = statistics.median(t["metrics"]["trace.wall_s"] for t in traced_runs)
    metrics["trace.overhead_frac"] = traced_median / statistics.median(untraced_walls) - 1.0
    if workload == "campaign-sim":
        metrics["campaign.overhead_x"] = statistics.median(
            t["overhead_x"] for t in traced_runs)
    info = {"samples": len(traced_runs), "untraced_walls": [round(w, 4) for w in untraced_walls]}
    return metrics, ops, failed, notes, info


def accounting_notes(metrics, process_wall=None):
    """Layer accounting of one traced run. The layers are disjoint parts
    of the traced wall, so no self time and no remainder may be negative
    (a negative one means overlapping or double-counted spans), and a
    library run's traced wall must fit inside the tracer process's wall
    as measured from outside."""
    wall = metrics["trace.wall_s"]
    tolerance = 1e-6 * max(1.0, wall)
    notes = [f"{name} is {metrics[name]}" for name in
             [f"{layer}.self_s" for layer in SELF_LAYERS if f"{layer}.self_s" in metrics]
             + ["unattributed_s"] if metrics[name] < -tolerance]
    if process_wall is not None and wall > process_wall:
        notes.append(f"trace.wall_s is {wall}, the tracer process took {process_wall}")
    return notes


def library_notes(lib, name, expected=None):
    """Checks of one library run's verdicts: every selected case run
    exactly once, none quarantined."""
    v = lib["verdicts"][name]
    ok = v["retries"] == 0 and v["quarantined"] == 0
    if expected is not None:
        ok = ok and v["selected"] == v["run"] == v["passed"] == expected
    return [] if ok else [f"traced {name}: {v}"]


def traced_once(ctx, workload):
    """One traced run: {"metrics", "ops", "ok", "notes"}."""
    if workload == "campaign-sim":
        run = campaign_iteration(ctx, workload, timeline=True)
        limit = ctx.size(workload)
        inproc = Launch([ctx.cli, "test", "xraft", "--limit", str(limit), *sim_args(ctx)])
        lib = ctx.tracer_json("traced", "xraft", "--limit", str(limit), "--sim-seed", str(ctx.seed))
        notes = list(run["notes"]) + library_notes(lib, "xraft", limit)
        notes += accounting_notes(lib["metrics"], lib["process_wall_s"])
        metrics = {k: v for k, v in lib["metrics"].items()
                   if not k.endswith(".self_s") and k not in ("unattributed_s", "trace.wall_s")}
        metrics.update(run["layers"])
        notes += accounting_notes(metrics)
        if inproc.returncode != 0 or f"{limit} passed" not in inproc.out:
            notes.append("in-process comparison run did not pass")
        return {"metrics": metrics, "ops": 1, "ok": 0 if notes else 1, "notes": notes,
                "overhead_x": run["wall"] / inproc.wall}
    if workload == "bughunt-sim":
        lib = ctx.tracer_json("bughunt", "--sim-seed", str(ctx.seed))
        notes = []
        for _target, bug, kind, _states in BUGS:
            v = lib["verdicts"][bug]
            if v["kinds"] != [kind] or not v["deterministic"]:
                notes.append(f"traced {bug}: {v}")
            notes += library_notes(lib, bug)
    else:
        limit = ctx.size(workload)
        args = ["traced", "xraft", "--limit", str(limit)]
        args += ["--sim-seed", str(ctx.seed)] if workload == "conformance-sim" else ["--threads"]
        lib = ctx.tracer_json(*args)
        notes = library_notes(lib, "xraft", ctx.expected_paths(limit))
    notes += accounting_notes(lib["metrics"], lib["process_wall_s"])
    return {"metrics": lib["metrics"], "ops": 1, "ok": 0 if notes else 1, "notes": notes}


def run_one(args):
    cli, tracer = build()
    os.makedirs(WORK_DIR, exist_ok=True)
    ctx = Ctx(cli, tracer, args.seed, args.smoke_size)
    before = host_facts()
    try:
        if args.trace:
            values, ops, failed, notes, info = traced(ctx, args.workload, args.seconds)
            units = dict(LAYER_METRICS)
        else:
            values, ops, failed, notes, info = end_to_end(ctx, args.workload, args.seconds)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(WORK_DIR))
        except OSError:
            pass
    after = host_facts()
    host = dict(after)
    if "steal_ticks" in before and "steal_ticks" in after:
        host["steal_ticks"] = after["steal_ticks"] - before["steal_ticks"]
    for note in notes:
        print(f"check failed: {note}")
    print("host: " + json.dumps(host))
    print("info: " + json.dumps(info))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ops,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k, _ in
                    (LAYER_METRICS if args.trace else END_TO_END)},
    }))


def smoke():
    """Tiny run of every workload in both modes: every named metric of
    BENCHMARK.json must be printed with its unit, and every check pass."""
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    problems = []
    for w in bench["workloads"]:
        for trace, declared in (("0", bench["end_to_end"]), ("1", bench["per_layer"])):
            r = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", w["name"],
                                "--seconds", "1", "--trace", trace, "--smoke-size"],
                               stdout=subprocess.PIPE)
            lines = r.stdout.decode().strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                problems.append(f"{w['name']} trace {trace}: no result (exit {r.returncode})")
                continue
            if r.returncode != 0 or not result["correct"]:
                problems.append(f"{w['name']} trace {trace}: exit {r.returncode}, "
                                f"correct={result['correct']}: {lines[:-1]}")
            for metric in declared:
                got = result["metrics"].get(metric["name"])
                if not got or got.get("unit") != metric["unit"] or \
                        not isinstance(got.get("value"), (int, float)):
                    problems.append(f"{w['name']} trace {trace}: {metric['name']} missing "
                                    f"or without unit {metric['unit']}")
            print(f"smoke {w['name']} trace {trace}: {len(result['metrics'])} metrics")
    for p in problems:
        print(f"smoke: {p}")
    print("smoke ok" if not problems else "smoke FAILED")
    sys.exit(1 if problems else 0)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=REFERENCE_SEED,
                   help="workload seed, passed to every sim run as --sim-seed")
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="check every metric is printed")
    p.add_argument("--smoke-size", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args()
    if args.smoke:
        smoke()
    if not args.workload:
        p.error("--workload is required")
    run_one(args)


if __name__ == "__main__":
    main()
