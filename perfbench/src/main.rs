//! Helper program for the flov benchmark (`perfbench/run.py`).
//!
//! `run.py` runs the timed end-to-end commands through the repository's
//! own `flov` binary; this program supplies everything around them:
//!
//! - `info`: the build's `KERNEL_VERSION`, which keys the recorded digests;
//! - `specs`: the RunSpec JSON a workload feeds to `flov sweep --spec`;
//! - `fill`: the `sweep_warm` set-up, a result cache of several sweeps;
//! - `expected`: what `flov sweep` must print when it re-runs one of them;
//! - `trace`: the traced run, which calls each layer's public functions
//!   with a span around every call and prints the per-layer metrics.
//!
//! Usage: `flov-perfbench <info|specs|fill|expected|trace> [--workload W]
//! [--variant V] [--out FILE] [--cache DIR] [--expected FILE] [--dir DIR]`

use flov_bench::cache::CacheEntry;
use flov_bench::scheduler::{run_work_stealing, workers_for};
use flov_bench::{binfmt, Engine, KernelMode, ResultCache, RunResult, RunSpec, WorkloadSpec};
use flov_bench::{run_kernel, KERNEL_VERSION};
use flov_core::mechanism;
use flov_noc::network::Simulation;
use flov_workloads::{GatingSchedule, PatternSpace, SyntheticWorkload};
use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

// ------------------------------------------------------------- workloads

/// Traffic seed of input variant `v`; variant 0 is the paper's seed.
fn traffic_seed(variant: u64) -> u64 {
    0xF10F + variant
}

/// `fig6_cold`: the paper's Fig. 6 grid (uniform random, 8×8 mesh,
/// 9 gated fractions × 4 mechanisms × 2 rates, 10k warmup, 100k cycles,
/// 100k drain) as one 72-run sweep, in `flov fig6`'s order.
fn fig6_specs(variant: u64) -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for rate in flov_bench::axes::INJECTION_RATES {
        for fraction in flov_bench::axes::GATED_FRACTIONS {
            for mech in ["Baseline", "RP", "rFLOV", "gFLOV"] {
                specs.push(
                    RunSpec::builder()
                        .mechanism(mech)
                        .rate(rate)
                        .gated_fraction(fraction)
                        .seed(traffic_seed(variant))
                        .warmup(10_000)
                        .cycles(100_000)
                        .drain(100_000)
                        .build(),
                );
            }
        }
    }
    specs
}

/// `mesh32_gated`: the spec `flov sim --mech rFLOV --k 32 --gated 0.3
/// --rate 0.02 --warmup 5000 --cycles 15000 --seed S` builds.
fn mesh32_spec(variant: u64) -> RunSpec {
    RunSpec::builder()
        .mechanism("rFLOV")
        .k(32)
        .seed(traffic_seed(variant))
        .gated_fraction(0.3)
        .rate(0.02)
        .warmup(5_000)
        .cycles(15_000)
        .drain(15_000)
        .build()
}

/// `sweep_warm` cache shape: `SWEEPS` earlier sweeps of `SWEEP_RUNS`
/// runs each; the timed command re-runs one of them.
const SWEEPS: u64 = 3;
const SWEEP_RUNS: u64 = 1_000;
/// Distinct simulated results the cache entries are derived from.
const TEMPLATES: u64 = 8;

/// One sweep of small runs with a dense timeline (5-cycle buckets over
/// 6k cycles, ~1,200 samples: the payload of a long production run).
fn warm_sweep_specs(variant: u64, sweep: u64) -> Vec<RunSpec> {
    (0..SWEEP_RUNS)
        .map(|i| {
            RunSpec::builder()
                .mechanism(if i % 2 == 0 { "gFLOV" } else { "rFLOV" })
                .k(4)
                .rate(0.10)
                .gated_fraction(0.25)
                .seed((traffic_seed(variant) << 20) + sweep * SWEEP_RUNS + i)
                .warmup(0)
                .cycles(6_000)
                .timeline_width(5)
                .drain(5_000)
                .build()
        })
        .collect()
}

/// The sweep `sweep_warm` re-runs.
fn rerun_sweep(variant: u64) -> u64 {
    variant % SWEEPS
}

fn specs_for(workload: &str, variant: u64) -> Vec<RunSpec> {
    match workload {
        "fig6_cold" => fig6_specs(variant),
        "mesh32_gated" => vec![mesh32_spec(variant)],
        "sweep_warm" => warm_sweep_specs(variant, rerun_sweep(variant)),
        other => die(&format!("unknown workload {other:?}")),
    }
}

fn cache_key(spec: &RunSpec) -> String {
    let json = serde_json::to_string(&spec.resolved()).expect("spec serializes");
    ResultCache::key(&json, KERNEL_VERSION)
}

/// splitmix64: the deterministic stream that varies the cached results.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Every entry of the `sweep_warm` cache, as `(sweep, spec, result)`:
/// `TEMPLATES` real runs are simulated, and each entry holds a template's
/// result with its timeline latencies varied by a seeded stream, so
/// entries differ byte-wise the way real ones do.
fn for_each_warm_entry(variant: u64, mut f: impl FnMut(u64, RunSpec, RunResult)) {
    let templates: Vec<RunResult> = warm_sweep_specs(variant, 0)[..TEMPLATES as usize]
        .iter()
        .map(|s| run_kernel(s, KernelMode::ActiveSet))
        .collect();
    for sweep in 0..SWEEPS {
        for (i, spec) in warm_sweep_specs(variant, sweep).into_iter().enumerate() {
            let mut result = templates[i % TEMPLATES as usize].clone();
            let mut state = mix((traffic_seed(variant) << 32) ^ (sweep << 24) ^ i as u64);
            for sample in &mut result.timeline {
                state = mix(state);
                sample.latency_sum += state % 8;
            }
            f(sweep, spec, result);
        }
    }
}

/// `sweep_warm` set-up: persist every entry through `ResultCache::put`.
fn fill(variant: u64, cache: &ResultCache) {
    for_each_warm_entry(variant, |_, spec, result| {
        let key = cache_key(&spec);
        let entry = CacheEntry { kernel_version: KERNEL_VERSION, spec: spec.resolved(), result };
        if let Err(e) = cache.put(&key, &entry) {
            die(&format!("cannot persist {key}: {e}"));
        }
    });
}

/// The results stored for the sweep `sweep_warm` re-runs, in spec order.
fn rerun_results(variant: u64) -> Vec<RunResult> {
    let mut out = Vec::new();
    for_each_warm_entry(variant, |sweep, _, result| {
        if sweep == rerun_sweep(variant) {
            out.push(result);
        }
    });
    out
}

// ----------------------------------------------------------------- spans

/// One timed call: `parent` indexes the enclosing span, `run` names the
/// operation (1-based spec index; 0 for batch-level spans).
#[derive(Serialize)]
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u64>,
    run: u64,
}

/// In-memory span log, written out once the traced run ends.
struct Tracer {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer { t0: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Time `f` under a span; returns its value and duration in seconds.
    fn span<R>(
        &self,
        name: &str,
        parent: Option<u64>,
        run: u64,
        f: impl FnOnce(u64) -> R,
    ) -> (R, f64) {
        let id = {
            let mut spans = self.spans.lock().expect("span log lock");
            spans.push(Span { name: name.to_string(), start_ns: 0, end_ns: 0, parent, run });
            spans.len() as u64 - 1
        };
        let start = self.now();
        let value = f(id);
        let end = self.now();
        let mut spans = self.spans.lock().expect("span log lock");
        spans[id as usize].start_ns = start;
        spans[id as usize].end_ns = end;
        (value, (end - start) as f64 * 1e-9)
    }

    fn write(&self, path: &Path) -> usize {
        let spans = self.spans.lock().expect("span log lock");
        let json = serde_json::to_string(&*spans).expect("spans serialize");
        std::fs::write(path, json).unwrap_or_else(|e| die(&format!("cannot write spans: {e}")));
        spans.len()
    }
}

// ------------------------------------------------------- traced passes

/// Per-layer metrics of one traced run plus its own correctness tally.
#[derive(Default)]
struct Report {
    metrics: BTreeMap<String, f64>,
    notes: Vec<String>,
    /// Results per pass, in spec order, for `run.py`'s digest check.
    results: BTreeMap<String, Vec<RunResult>>,
    attempted: u64,
    failed: u64,
}

impl Report {
    fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }
}

/// Nearest-rank quantile of an unsorted sample (0 when empty).
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The highest whole percentile with at least ten samples beyond it, and
/// its value; `(100, max)` when there are too few samples for one.
fn tail(values: &[f64]) -> (f64, f64) {
    let n = values.len();
    if n <= 10 {
        return (100.0, values.iter().copied().fold(0.0, f64::max));
    }
    let pct = (100 * (n - 10) / n) as f64;
    (pct, quantile(values, pct / 100.0))
}

/// Process CPU time (user + system, all threads) from `/proc/self/stat`,
/// in seconds at the kernel's 100 Hz tick; 0 where unavailable.
fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().collect())
        .unwrap_or_default();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok()).unwrap_or(0);
    // After the command name: state is field 3, utime 14, stime 15.
    (tick(11) + tick(12)) as f64 / 100.0
}

/// Phase wall times and counters of one simulation the benchmark builds
/// itself, so `NetworkCore::phase_nanos` can be switched on.
#[derive(Default, Clone, Copy)]
struct KernelProfile {
    total_s: f64,
    latch_s: f64,
    delivery_s: f64,
    inject_s: f64,
    pipeline_s: f64,
    mechanism_s: f64,
    exchange_s: f64,
    cycles: u64,
    cycles_skipped: u64,
    flit_events: u64,
    /// Measured packets and latency bits, to match against the RunResult.
    packets: u64,
    avg_latency_bits: u64,
}

impl KernelProfile {
    fn add(&mut self, o: &KernelProfile) {
        self.total_s += o.total_s;
        self.latch_s += o.latch_s;
        self.delivery_s += o.delivery_s;
        self.inject_s += o.inject_s;
        self.pipeline_s += o.pipeline_s;
        self.mechanism_s += o.mechanism_s;
        self.exchange_s += o.exchange_s;
        self.cycles += o.cycles;
        self.cycles_skipped += o.cycles_skipped;
        self.flit_events += o.flit_events;
    }

    fn matches(&self, r: &RunResult) -> bool {
        self.packets == r.packets && self.avg_latency_bits == r.avg_latency.to_bits()
    }
}

/// Build the simulation `flov_bench::run_kernel` would run for a
/// synthetic spec, run it through warmup, measurement and drain with
/// phase timing on, and return its profile.
fn profile_kernel(spec: &RunSpec, kernel: KernelMode) -> KernelProfile {
    let spec = spec.resolved();
    let WorkloadSpec::Synthetic { pattern, rate, gated_fraction, seed, changes } = &spec.workload
    else {
        die("kernel profiling supports synthetic specs only");
    };
    assert!(changes.is_empty(), "benchmark specs never re-randomize gating");
    let cfg = spec.cfg.clone();
    let space = PatternSpace { kx: cfg.kx(), ky: cfg.ky(), c: cfg.concentration() };
    let gating = GatingSchedule::static_fraction(cfg.cores(), *gated_fraction, *seed, &[]);
    let workload = SyntheticWorkload::with_space(
        space,
        *pattern,
        *rate,
        cfg.synth_packet_len,
        spec.cycles,
        gating,
        *seed ^ 0xABCD,
    );
    let mech = mechanism::by_name(&spec.mechanism, &cfg).expect("benchmark mechanisms exist");
    let mut sim = Simulation::new(cfg, mech, Box::new(workload));
    sim.core.kernel = kernel;
    sim.measure_from(spec.warmup);
    sim.core.stats.interval_width = spec.timeline_width;
    sim.core.phase_nanos = Some(Box::default());
    let t0 = Instant::now();
    sim.run(spec.warmup);
    sim.run(spec.cycles.saturating_sub(sim.core.cycle));
    sim.core.stats.measure_until = spec.cycles;
    sim.drain(spec.drain);
    let total_s = t0.elapsed().as_secs_f64();
    let p = *sim.core.phase_nanos.take().expect("phase timing switched on above");
    let a = &sim.core.activity;
    KernelProfile {
        total_s,
        latch_s: p.latch as f64 * 1e-9,
        delivery_s: p.delivery as f64 * 1e-9,
        inject_s: p.inject as f64 * 1e-9,
        pipeline_s: p.pipeline as f64 * 1e-9,
        mechanism_s: p.mechanism as f64 * 1e-9,
        exchange_s: p.exchange as f64 * 1e-9,
        cycles: sim.core.cycle,
        cycles_skipped: sim.core.cycles_skipped,
        flit_events: a.buffer_writes
            + a.buffer_reads
            + a.link_flits
            + a.flov_latch_flits
            + a.ring_flits
            + a.flits_injected
            + a.flits_delivered,
        packets: sim.core.stats.packets,
        avg_latency_bits: sim.core.stats.avg_latency().to_bits(),
    }
}

fn report_kernel(rep: &mut Report, k: &KernelProfile) {
    let phases = k.latch_s + k.delivery_s + k.inject_s + k.pipeline_s + k.mechanism_s;
    rep.set("kernel.pipeline_s", k.pipeline_s);
    rep.set("kernel.delivery_s", k.delivery_s);
    rep.set("kernel.mechanism_s", k.mechanism_s);
    rep.set("kernel.inject_s", k.inject_s);
    rep.set("kernel.latch_s", k.latch_s);
    rep.set("kernel.other_s", (k.total_s - phases).max(0.0));
    rep.set("kernel.cycles", k.cycles as f64);
    rep.set("kernel.cycles_skipped", k.cycles_skipped as f64);
    rep.set("kernel.ns_per_flit_event", k.total_s * 1e9 / k.flit_events.max(1) as f64);
}

/// `Engine::run_batch` over a fresh cache directory, under one span.
fn engine_pass(
    tr: &Tracer,
    rep: &mut Report,
    specs: &[RunSpec],
    cache: ResultCache,
) -> (Vec<RunResult>, f64, usize) {
    let engine = Engine::with_cache(cache).quiet();
    let (results, batch_s) = tr.span("pass.engine", None, 0, |pass| {
        tr.span("Engine::run_batch", Some(pass), 0, |_| engine.run_batch(specs)).0
    });
    let stats = engine.stats();
    let sched = engine.sched_stats();
    rep.set("engine.batch_s", batch_s);
    rep.set("engine.cached", stats.cached as f64);
    rep.set("engine.simulated", stats.simulated as f64);
    rep.set("engine.occupancy", sched.map(|s| s.occupancy()).unwrap_or(0.0));
    rep.set("engine.steals", sched.map(|s| s.steals as f64).unwrap_or(0.0));
    let workers = sched.map(|s| s.workers).unwrap_or(1);
    (results, batch_s, workers)
}

/// The engine's cold path rebuilt from public calls, one span per call:
/// probe (`ResultCache::get`, a miss), `run_kernel`, `ResultCache::put`,
/// on the same work-stealing scheduler and worker count.
fn run_pass(
    tr: &Tracer,
    rep: &mut Report,
    specs: &[RunSpec],
    cache: &ResultCache,
    kernel: KernelMode,
) -> (Vec<RunResult>, Vec<f64>, f64) {
    let ((scan_entries, scan_s), _) =
        tr.span("ResultCache::prime_index", None, 0, |_| cache.prime_index());
    let (out, pass_s) = tr.span("pass.run", None, 0, |pass| {
        let workers = workers_for(specs.len());
        run_work_stealing(specs.len(), workers, |j, _| {
            let run = j as u64 + 1;
            let key = cache_key(&specs[j]);
            let (hit, get_s) =
                tr.span("ResultCache::get", Some(pass), run, |_| cache.get(&key, KERNEL_VERSION));
            let (result, run_s) =
                tr.span("run_kernel", Some(pass), run, |_| run_kernel(&specs[j], kernel));
            let entry =
                CacheEntry { kernel_version: KERNEL_VERSION, spec: specs[j].resolved(), result };
            let (stored, put_s) =
                tr.span("ResultCache::put", Some(pass), run, |_| cache.put(&key, &entry));
            if let Err(e) = stored {
                die(&format!("cannot persist {key}: {e}"));
            }
            (entry.result, run_s, get_s, put_s, hit.is_some())
        })
        .0
    });
    let mut results = Vec::new();
    let (mut run_s, mut get_us, mut put_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut hits = 0;
    for (result, r, g, p, hit) in out {
        results.push(result);
        run_s.push(r);
        get_us.push(g * 1e6);
        put_us.push(p * 1e6);
        hits += hit as usize;
    }
    rep.set("cache.index_scan_s", scan_s);
    rep.set("cache.index_entries", scan_entries as f64);
    rep.set("cache.get_p50_us", quantile(&get_us, 0.5));
    rep.set("cache.put_p50_us", quantile(&put_us, 0.5));
    rep.set("cache.hit_ratio", hits as f64 / specs.len().max(1) as f64);
    rep.set("cache.bytes_per_entry", mean_entry_bytes(cache.dir()));
    (results, run_s, pass_s)
}

fn report_runs(rep: &mut Report, run_s: &[f64]) {
    let (pct, tail_s) = tail(run_s);
    rep.set("run.count", run_s.len() as f64);
    rep.set("run.p50_s", quantile(run_s, 0.5));
    rep.set("run.tail_s", tail_s);
    rep.set("run.tail_pct", pct);
    rep.notes.push(format!(
        "run tail: p{pct:.0} of {} runs = {tail_s:.3} s (p50 {:.3} s)",
        run_s.len(),
        quantile(run_s, 0.5)
    ));
}

/// Every entry file under a cache directory, as `(key, path)`.
fn entry_files(dir: &Path) -> BTreeMap<String, PathBuf> {
    let mut out = BTreeMap::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(rd) = std::fs::read_dir(&d) else { continue };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                stack.push(p);
            } else if let Some(key) = p.file_name().and_then(|n| n.to_str()?.strip_suffix(".bin")) {
                out.insert(key.to_string(), p.clone());
            }
        }
    }
    out
}

fn mean_entry_bytes(dir: &Path) -> f64 {
    let files = entry_files(dir);
    let total: u64 =
        files.values().filter_map(|p| std::fs::metadata(p).ok()).map(|m| m.len()).sum();
    total as f64 / files.len().max(1) as f64
}

/// Count results that are missing or differ from `expected` (serialized
/// byte-wise), position by position.
fn mismatches(got: &[Option<RunResult>], expected: &[RunResult]) -> u64 {
    let json = |r: &RunResult| serde_json::to_string(r).expect("result serializes");
    let differ =
        got.iter().zip(expected).filter(|(a, b)| a.as_ref().map(json) != Some(json(b))).count();
    (differ + expected.len().abs_diff(got.len())) as u64
}

fn trace_fig6(tr: &Tracer, rep: &mut Report, variant: u64, dir: &Path) {
    let specs = fig6_specs(variant);
    let (engine_results, batch_s, workers) =
        engine_pass(tr, rep, &specs, ResultCache::new(dir.join("cache-engine")));
    let cache = ResultCache::new(dir.join("cache-run"));
    let (run_results, run_s, pass_s) = run_pass(tr, rep, &specs, &cache, KernelMode::ActiveSet);
    report_runs(rep, &run_s);
    rep.set("engine.tail_s", batch_s - run_s.iter().sum::<f64>() / workers as f64);
    rep.set("trace.overhead_s", pass_s - batch_s);

    // Kernel phases: the same 72 simulations, built here with timing on.
    let (profiles, _) = tr.span("pass.kernel", None, 0, |pass| {
        run_work_stealing(specs.len(), workers_for(specs.len()), |j, _| {
            tr.span("Simulation::run", Some(pass), j as u64 + 1, |_| {
                profile_kernel(&specs[j], KernelMode::ActiveSet)
            })
            .0
        })
        .0
    });
    let mut total = KernelProfile::default();
    for (k, r) in profiles.iter().zip(&engine_results) {
        total.add(k);
        rep.attempted += 1;
        rep.failed += !k.matches(r) as u64;
    }
    report_kernel(rep, &total);
    rep.notes.push(format!(
        "kernel: {:.1}% of {} cycles time-skipped",
        100.0 * total.cycles_skipped as f64 / total.cycles.max(1) as f64,
        total.cycles
    ));
    rep.results.insert("engine".into(), engine_results);
    rep.results.insert("run".into(), run_results);
}

fn trace_mesh32(tr: &Tracer, rep: &mut Report, variant: u64, dir: &Path) {
    let spec = mesh32_spec(variant);
    let specs = std::slice::from_ref(&spec);
    // The user path: what `flov sim --threads 2` asks the engine for.
    std::env::set_var("FLOV_KERNEL", "parallel");
    std::env::set_var("FLOV_THREADS", "2");
    let cpu0 = process_cpu_s();
    let (engine_results, batch_s, workers) =
        engine_pass(tr, rep, specs, ResultCache::new(dir.join("cache-engine")));
    let user_ratio = (process_cpu_s() - cpu0) / batch_s.max(1e-9);
    std::env::remove_var("FLOV_KERNEL");

    let par_kernel = KernelMode::Parallel { tiles: 2, grid: None };
    let cpu0 = process_cpu_s();
    let ((par, par_s), _) = tr.span("pass.par", None, 0, |pass| {
        tr.span("run_kernel", Some(pass), 1, |_| run_kernel(&spec, par_kernel))
    });
    let par_ratio = (process_cpu_s() - cpu0) / par_s.max(1e-9);
    let cache = ResultCache::new(dir.join("cache-run"));
    let cpu0 = process_cpu_s();
    let (seq, run_s, _) = run_pass(tr, rep, specs, &cache, KernelMode::ActiveSet);
    let seq_ratio = (process_cpu_s() - cpu0) / run_s[0].max(1e-9);
    report_runs(rep, &run_s);
    rep.set("engine.tail_s", batch_s - run_s[0] / workers as f64);
    rep.set("par.run_s", par_s);
    rep.set("par.seq_run_s", run_s[0]);
    rep.set("par.speedup", run_s[0] / par_s.max(1e-9));

    // Which kernel did the user path run? Compare its CPU/wall ratio with
    // the direct sequential and 2-tile runs of the same spec.
    let threshold = (seq_ratio + par_ratio) / 2.0;
    let user_tiles = if user_ratio > threshold { 2.0 } else { 1.0 };
    rep.set("engine.user_path_tiles", user_tiles);
    rep.notes.push(format!(
        "user path (engine, FLOV_KERNEL=parallel FLOV_THREADS=2, 1 spec): ran {} \
         (cpu/wall {user_ratio:.2}; direct ActiveSet {seq_ratio:.2}, direct Parallel{{tiles:2}} \
         {par_ratio:.2}); workers_for(1) = {}, so the engine's arbitration sees live 1 >= \
         workers {} and demotes Parallel{{tiles:2}} to ActiveSet",
        if user_tiles > 1.0 { "Parallel{tiles:2}" } else { "ActiveSet" },
        workers_for(1),
        workers_for(1),
    ));
    if (par_ratio - seq_ratio) < 0.3 {
        rep.notes.push(format!(
            "warning: direct runs do not separate by cpu/wall ({seq_ratio:.2} vs \
             {par_ratio:.2}); the user-path kernel inference is unreliable on this host"
        ));
    }

    // Kernel phases: sequential (the kernel the demoted user path runs),
    // and the 2-tile kernel for its boundary-exchange share.
    let ((seq_prof, par_prof), _) = tr.span("pass.kernel", None, 0, |pass| {
        let s = tr.span("Simulation::run", Some(pass), 1, |_| {
            profile_kernel(&spec, KernelMode::ActiveSet)
        });
        let p = tr.span("Simulation::run", Some(pass), 1, |_| profile_kernel(&spec, par_kernel));
        (s.0, p.0)
    });
    report_kernel(rep, &seq_prof);
    rep.set("kernel.exchange_s", par_prof.exchange_s);
    rep.set("trace.overhead_s", seq_prof.total_s - run_s[0]);
    for k in [&seq_prof, &par_prof] {
        rep.attempted += 1;
        rep.failed += !k.matches(&engine_results[0]) as u64;
    }
    rep.results.insert("engine".into(), engine_results);
    rep.results.insert("par".into(), vec![par]);
    rep.results.insert("seq".into(), seq);
}

fn trace_sweep_warm(tr: &Tracer, rep: &mut Report, variant: u64, dir: &Path, expected: &Path) {
    let cache_dir = dir.join("cache");
    let specs = specs_for("sweep_warm", variant);
    let text = std::fs::read_to_string(expected)
        .unwrap_or_else(|e| die(&format!("cannot read {}: {e}", expected.display())));
    let expected: Vec<RunResult> = serde_json::from_str(&text)
        .unwrap_or_else(|e| die(&format!("expected results do not parse: {e}")));

    // Engine replay on a fresh handle: index scan plus one probe per spec.
    let (engine_results, batch_s, _) = engine_pass(tr, rep, &specs, ResultCache::new(&cache_dir));
    rep.set("engine.tail_s", batch_s);

    // The same probes, one span each, on a fresh handle and the engine's
    // worker count.
    let cache = ResultCache::new(&cache_dir);
    let ((entries, scan_s), _) =
        tr.span("ResultCache::prime_index", None, 0, |_| cache.prime_index());
    let (probes, probe_pass_s) = tr.span("pass.get", None, 0, |pass| {
        run_work_stealing(specs.len(), workers_for(specs.len()), |j, _| {
            let key = cache_key(&specs[j]);
            tr.span("ResultCache::get", Some(pass), j as u64 + 1, |_| {
                cache.get(&key, KERNEL_VERSION)
            })
        })
        .0
    });
    let hits = probes.iter().filter(|(r, _)| r.is_some()).count();
    let get_us: Vec<f64> = probes.iter().map(|(_, s)| s * 1e6).collect();
    let got: Vec<Option<RunResult>> = probes.into_iter().map(|(r, _)| r).collect();

    // Read and decode split apart, single-threaded: the file read, then
    // `binfmt::decode_result` on its bytes.
    let files = entry_files(&cache_dir);
    let (decoded, _) = tr.span("pass.decode", None, 0, |pass| {
        let mut out = Vec::new();
        let (mut read_us, mut decode_us, mut bytes) = (Vec::new(), Vec::new(), 0u64);
        for (j, spec) in specs.iter().enumerate() {
            let run = j as u64 + 1;
            let key = cache_key(spec);
            let (data, read_s) = tr.span("fs::read", Some(pass), run, |_| {
                files.get(&key).and_then(|path| std::fs::read(path).ok()).unwrap_or_default()
            });
            let (result, decode_s) = tr.span("binfmt::decode_result", Some(pass), run, |_| {
                binfmt::decode_result(&data, &key, KERNEL_VERSION)
            });
            read_us.push(read_s * 1e6);
            decode_us.push(decode_s * 1e6);
            bytes += data.len() as u64;
            out.push(result.ok().flatten());
        }
        (out, read_us, decode_us, bytes)
    });
    let (decoded, read_us, decode_us, bytes) = decoded;
    rep.set("cache.index_scan_s", scan_s);
    rep.set("cache.index_entries", entries as f64);
    rep.set("cache.get_p50_us", quantile(&get_us, 0.5));
    rep.set("cache.hit_ratio", hits as f64 / specs.len() as f64);
    rep.set("cache.read_p50_us", quantile(&read_us, 0.5));
    rep.set("cache.read_p99_us", quantile(&read_us, 0.99));
    rep.set("cache.decode_p50_us", quantile(&decode_us, 0.5));
    rep.set("cache.decode_p99_us", quantile(&decode_us, 0.99));
    rep.set("cache.bytes_per_entry", bytes as f64 / read_us.len().max(1) as f64);
    rep.set("trace.overhead_s", scan_s + probe_pass_s - batch_s);
    rep.notes.push(format!(
        "cache: {entries} entries indexed in {:.1} ms; {hits}/{} probes hit",
        scan_s * 1e3,
        specs.len()
    ));
    let engine_results: Vec<Option<RunResult>> = engine_results.into_iter().map(Some).collect();
    for got in [&engine_results, &got, &decoded] {
        rep.attempted += expected.len() as u64;
        rep.failed += mismatches(got, &expected);
    }
}

/// Every per-layer metric, zero where the workload leaves a layer idle.
const LAYER_METRICS: [&str; 37] = [
    "kernel.pipeline_s",
    "kernel.delivery_s",
    "kernel.mechanism_s",
    "kernel.inject_s",
    "kernel.latch_s",
    "kernel.other_s",
    "kernel.exchange_s",
    "kernel.cycles",
    "kernel.cycles_skipped",
    "kernel.ns_per_flit_event",
    "par.run_s",
    "par.seq_run_s",
    "par.speedup",
    "engine.batch_s",
    "engine.occupancy",
    "engine.steals",
    "engine.cached",
    "engine.simulated",
    "engine.tail_s",
    "engine.user_path_tiles",
    "run.count",
    "run.p50_s",
    "run.tail_s",
    "run.tail_pct",
    "cache.index_scan_s",
    "cache.index_entries",
    "cache.read_p50_us",
    "cache.read_p99_us",
    "cache.decode_p50_us",
    "cache.decode_p99_us",
    "cache.get_p50_us",
    "cache.put_p50_us",
    "cache.hit_ratio",
    "cache.bytes_per_entry",
    "trace.overhead_s",
    "trace.spans",
    "trace.wall_s",
];

fn trace(workload: &str, variant: u64, dir: &Path, expected: Option<&Path>) {
    let tr = Tracer::new();
    let mut rep = Report::default();
    let t0 = Instant::now();
    match workload {
        "fig6_cold" => trace_fig6(&tr, &mut rep, variant, dir),
        "mesh32_gated" => trace_mesh32(&tr, &mut rep, variant, dir),
        "sweep_warm" => trace_sweep_warm(
            &tr,
            &mut rep,
            variant,
            dir,
            expected.unwrap_or_else(|| die("sweep_warm trace needs --expected FILE")),
        ),
        other => die(&format!("unknown workload {other:?}")),
    }
    rep.set("trace.wall_s", t0.elapsed().as_secs_f64());
    let spans = tr.write(&dir.join("spans.json"));
    rep.set("trace.spans", spans as f64);
    for name in LAYER_METRICS {
        rep.metrics.entry(name.to_string()).or_insert(0.0);
    }
    let results = Value::Map(rep.results.iter().map(|(k, v)| (k.clone(), v.to_value())).collect());
    let results_json = serde_json::to_string(&Json(results)).expect("results serialize");
    std::fs::write(dir.join("results.json"), results_json)
        .unwrap_or_else(|e| die(&format!("cannot write results: {e}")));
    let metrics = rep.metrics.iter().map(|(k, v)| (k.clone(), Value::Float(*v))).collect();
    let out = Value::Map(vec![
        ("metrics".into(), Value::Map(metrics)),
        ("notes".into(), rep.notes.to_value()),
        ("attempted".into(), rep.attempted.to_value()),
        ("failed".into(), rep.failed.to_value()),
    ]);
    println!("{}", serde_json::to_string(&Json(out)).expect("report serializes"));
}

/// An already-built JSON value tree.
struct Json(Value);

impl Serialize for Json {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

// ------------------------------------------------------------------ CLI

fn die(msg: &str) -> ! {
    eprintln!("flov-perfbench: {msg}");
    std::process::exit(2);
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .map(|i| args.get(i + 1).cloned().unwrap_or_else(|| die(&format!("{name} needs a value"))))
}

fn write_json<T: Serialize>(path: &str, value: &T) {
    let json = serde_json::to_string_pretty(value).expect("value serializes");
    std::fs::write(path, json).unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let need = |name: &str| flag(&args, name).unwrap_or_else(|| die(&format!("missing {name}")));
    let variant =
        || need("--variant").parse::<u64>().unwrap_or_else(|_| die("--variant wants an integer"));
    match args.first().map(String::as_str) {
        Some("info") => println!("{{\"kernel_version\":{KERNEL_VERSION}}}"),
        Some("specs") => write_json(&need("--out"), &specs_for(&need("--workload"), variant())),
        Some("fill") => {
            fill(variant(), &ResultCache::new(need("--cache")));
            write_json(&need("--out"), &specs_for("sweep_warm", variant()));
        }
        Some("expected") => {
            // Byte-for-byte what `flov sweep` prints for the re-run sweep.
            let expected =
                serde_json::to_string_pretty(&rerun_results(variant())).expect("results serialize");
            let out = need("--out");
            std::fs::write(&out, expected + "\n")
                .unwrap_or_else(|e| die(&format!("cannot write {out}: {e}")));
        }
        Some("trace") => {
            let dir = PathBuf::from(need("--dir"));
            let expected = flag(&args, "--expected").map(PathBuf::from);
            trace(&need("--workload"), variant(), &dir, expected.as_deref());
        }
        _ => die("usage: flov-perfbench <info|specs|fill|expected|trace> [flags]"),
    }
}
