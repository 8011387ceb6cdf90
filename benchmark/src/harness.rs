//! What the four workloads share: the run configuration, the closed-loop
//! client log, the result record and the harvest of the program's own
//! span trees.

use crate::gen::{Op, Shape};
use crate::http::{Conn, Reply};
use crate::metrics::PROGRAM_SPANS;
use crate::stats::{fnv1a, median, percentile, tail_percentile};
use crate::sut::{self, Json};
use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One invocation: a workload, a seed, a measuring time.
#[derive(Debug, Clone)]
pub struct Cfg {
    pub seed: u64,
    pub seconds: f64,
    /// Tiny sizes: exercises the harness and its checks, gates nothing.
    pub quick: bool,
}

impl Cfg {
    /// `full` rows, or a twentieth of it under `--quick`.
    pub fn scaled(&self, full: usize) -> usize {
        if self.quick {
            (full / 20).max(1)
        } else {
            full
        }
    }

    /// How many further times the timed pass sets the world up after its
    /// timed phase (see [`median_setup_s`]).
    pub fn more_setups(&self) -> usize {
        if self.quick {
            0
        } else {
            6
        }
    }
}

/// The outcome of one pass over one workload.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// False when an oracle check or a workload precondition failed.
    pub correct: bool,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable findings, printed to standard error.
    pub notes: Vec<String>,
}

impl Report {
    /// A report that is correct until a check says otherwise.
    pub fn new() -> Report {
        Report {
            correct: true,
            ..Report::default()
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Record a failed correctness check.
    pub fn fault(&mut self, what: String) {
        self.correct = false;
        self.notes.push(format!("FAULT: {what}"));
    }

    pub fn ensure(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fault(what());
        }
    }
}

/// Keeps every CPU this process may use from going idle while it lives:
/// one spinning thread per CPU in the `SCHED_IDLE` class, which the kernel
/// runs only when nothing else wants that CPU and preempts the moment
/// something does. The program keeps every core, its thread counts and its
/// allocator; only the machine's idle state changes, as booting with
/// `idle=poll` would.
///
/// On the 2-vCPU sandbox a halted vCPU takes the host up to milliseconds
/// to wake, and whether a reply found its reader's vCPU halted was luck:
/// `serve_warm` ran at 2,500 to 3,700 requests/s with a p50 anywhere from
/// 43 to 160 µs and `/proc/stat` counted a third of all CPU time as
/// stolen. With the CPUs kept awake the same run gives 14,600 requests/s
/// and repeats; the other workloads lose half their run-to-run spread.
pub struct Awake {
    stop: Arc<AtomicBool>,
    spinners: Vec<JoinHandle<bool>>,
}

impl Awake {
    pub fn start() -> Awake {
        let stop = Arc::new(AtomicBool::new(false));
        let spinners = allowed_cpus()
            .into_iter()
            .map(|cpu| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let idle_class = enter_idle_class_on(cpu);
                    // The flag publishes no data: relaxed is enough.
                    while idle_class && !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                    idle_class
                })
            })
            .collect();
        Awake { stop, spinners }
    }

    /// Stop spinning; returns how many CPUs were kept awake (0 where the
    /// scheduling class could not be set: then nothing spun).
    pub fn stop(self) -> usize {
        self.stop.store(true, Ordering::Relaxed);
        self.spinners
            .into_iter()
            .filter_map(|spinner| spinner.join().ok())
            .filter(|spun| *spun)
            .count()
    }
}

#[cfg(target_os = "linux")]
mod sched {
    extern "C" {
        pub fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        pub fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
        pub fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
    }
    pub const SCHED_IDLE: i32 = 5;
    /// A `cpu_set_t`: 1,024 bits.
    pub type CpuSet = [u64; 16];
}

/// The CPUs the calling thread may run on.
fn allowed_cpus() -> Vec<usize> {
    #[cfg(target_os = "linux")]
    {
        let mut set: sched::CpuSet = [0; 16];
        // SAFETY: the call writes at most `size_of_val(&set)` bytes into
        // `set`, a live, aligned array; pid 0 is the calling thread.
        let ok = unsafe {
            sched::sched_getaffinity(0, std::mem::size_of_val(&set), set.as_mut_ptr()) == 0
        };
        (0..set.len() * 64)
            .filter(|cpu| ok && set[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect()
    }
    #[cfg(not(target_os = "linux"))]
    Vec::new()
}

/// Bind the calling thread to `cpu` and move it to the `SCHED_IDLE` class;
/// false when either is refused.
fn enter_idle_class_on(cpu: usize) -> bool {
    #[cfg(target_os = "linux")]
    {
        let mut set: sched::CpuSet = [0; 16];
        set[cpu / 64] = 1 << (cpu % 64);
        let priority = 0i32;
        // SAFETY: both calls only read their pointer arguments
        // (`size_of_val(&set)` bytes of `set`; one `int`, the whole of a
        // `sched_param`) and act on the calling thread (pid 0).
        unsafe {
            sched::sched_setaffinity(0, std::mem::size_of_val(&set), set.as_ptr()) == 0
                && sched::sched_setscheduler(0, sched::SCHED_IDLE, &priority) == 0
        }
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = cpu;
        false
    }
}

fn proc_status_kib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .unwrap_or(0.0)
}

/// Peak resident set of this process so far, in MiB.
pub fn vm_hwm_mib() -> f64 {
    proc_status_kib("VmHWM:") / 1024.0
}

/// Current resident set of this process, in bytes.
pub fn vm_rss_bytes() -> f64 {
    proc_status_kib("VmRSS:") * 1024.0
}

/// The median set-up time in seconds: `first_s` (the world the timed phase
/// ran on) and `more` further set-ups, each torn down untimed. They run
/// after the timed phase so that `peak_rss_mb` is the peak of one world.
pub fn median_setup_s<W>(
    first_s: f64,
    more: usize,
    setup: impl Fn() -> W,
    teardown: impl Fn(W),
) -> f64 {
    let mut secs = vec![first_s];
    for _ in 0..more {
        let started = Instant::now();
        let world = setup();
        secs.push(started.elapsed().as_secs_f64());
        teardown(world);
    }
    median(&secs)
}

/// The body hash of a `200` reply; `None` for any other outcome.
pub fn ok_hash(reply: &io::Result<Reply>) -> Option<u64> {
    match reply {
        Ok(r) if r.status == 200 => Some(fnv1a(&r.body)),
        _ => None,
    }
}

/// What the calibration kernel takes on the box the benchmark was written
/// on when nothing interferes, in µs.
const CALIBRATION_REF_US: f64 = 800.0;

/// A fixed piece of allocation-heavy single-thread work (build, sort and
/// fold a few thousand short strings), timed in µs.
fn calibration_kernel() -> f64 {
    let started = Instant::now();
    let mut keys: Vec<String> = (0..4_000u32)
        .map(|i| format!("k{:05}", i.wrapping_mul(2_654_435_761) % 100_000))
        .collect();
    keys.sort();
    let folded: usize = keys
        .iter()
        .map(|k| k.len() + usize::from(k.as_bytes()[3]))
        .sum();
    std::hint::black_box(folded);
    started.elapsed().as_secs_f64() * 1e6
}

/// How slow this machine is right now against the box the benchmark was
/// written on: the median of a few calibration-kernel runs over the
/// reference reading. A diagnostic only — no reported time is scaled by it.
pub fn machine_factor() -> f64 {
    let readings: Vec<f64> = (0..9).map(|_| calibration_kernel()).collect();
    median(&readings) / CALIBRATION_REF_US
}

/// Wall-clock latencies of one closed-loop phase, in µs. A failed
/// operation is counted and contributes to no latency figure.
#[derive(Debug, Default)]
pub struct PhaseLog {
    pub ops_us: Vec<f64>,
    /// Per op of `ops_us`, whether it carried an `X-Trace-Id`.
    tagged: Vec<bool>,
    by_shape: BTreeMap<Shape, Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
    pub reconnects: u64,
    pub wall_s: f64,
    /// `/proc/stat` jiffies (stolen, all) when the log was opened.
    jiffies_at_start: (f64, f64),
    /// The share of CPU time the host took from the guest during the
    /// phase. With the CPUs kept awake every stolen jiffy is counted.
    pub steal_ratio: f64,
}

impl PhaseLog {
    /// A log with room for `ops` ops, every page of it written up front (a
    /// non-zero fill: zeroed pages are not resident until written). The
    /// harness then adds a constant to `peak_rss_mb`, not an amount that
    /// follows the op count from run to run.
    pub fn new(ops: usize) -> PhaseLog {
        let mut ops_us = vec![1.0; ops];
        ops_us.clear();
        PhaseLog {
            ops_us,
            jiffies_at_start: stolen_and_all_jiffies(),
            ..PhaseLog::default()
        }
    }

    /// Log one op: it took `us` on the wall clock, or it failed (`None`).
    /// A traced pass tags every other op (or run of ops), so that tagged
    /// and untagged ops see the same machine.
    pub fn op(&mut self, us: Option<f64>, tagged: bool) {
        self.attempted += 1;
        match us {
            Some(us) => {
                self.ops_us.push(us);
                self.tagged.push(tagged);
            }
            None => self.failed += 1,
        }
    }

    /// What tagging costs: the tagged ops' median over the untagged ops'
    /// median, as a percentage above it.
    fn tagging_overhead_pct(&self) -> f64 {
        let of = |want: bool| -> Vec<f64> {
            let ops = self.ops_us.iter().zip(&self.tagged);
            ops.filter(|(_, t)| **t == want)
                .map(|(us, _)| *us)
                .collect()
        };
        let (tagged, untagged) = (median(&of(true)), median(&of(false)));
        100.0 * ratio(tagged - untagged, untagged)
    }

    /// Log one successful request of an op under its shape.
    pub fn request(&mut self, shape: Shape, us: f64) {
        self.by_shape.entry(shape).or_default().push(us);
    }

    /// Take over the ops of another client's log of the same phase.
    pub fn absorb(&mut self, other: PhaseLog) {
        self.ops_us.extend(other.ops_us);
        self.tagged.extend(other.tagged);
        for (shape, us) in other.by_shape {
            self.by_shape.entry(shape).or_default().extend(us);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.reconnects += other.reconnects;
    }

    /// Close the log: fix the wall time and the reconnect count.
    pub fn finish(&mut self, started: Instant, reconnects: u64) {
        self.wall_s = started.elapsed().as_secs_f64();
        self.reconnects += reconnects;
        let (stolen, all) = stolen_and_all_jiffies();
        let (stolen_before, all_before) = self.jiffies_at_start;
        self.steal_ratio = ratio(stolen - stolen_before, all - all_before);
    }

    pub fn p50(&self) -> f64 {
        median(&self.ops_us)
    }

    pub fn shape_p50(&self, shape: Shape) -> f64 {
        self.by_shape.get(&shape).map_or(0.0, |v| median(v))
    }

    /// Ops completed ÷ the phase's wall time.
    pub fn ops_per_s(&self) -> f64 {
        ratio(self.ops_us.len() as f64, self.wall_s)
    }

    /// The end-to-end figures every workload reports.
    pub fn end_to_end(&self, report: &mut Report, setup_s: f64, peak_rss_mb: f64) {
        report.attempted += self.attempted;
        report.failed += self.failed;
        report.set("setup_s", setup_s);
        report.set("p50_us", self.p50());
        report.set("peak_rss_mb", peak_rss_mb);
        report.notes.push(format!(
            "{} ops in {:.2}s ({} failed); p50 {:.1}us, {:.1} ops/s; the host stole {:.1}% of CPU time",
            self.attempted,
            self.wall_s,
            self.failed,
            self.p50(),
            self.ops_per_s(),
            100.0 * self.steal_ratio,
        ));
    }

    /// The load generator's diagnostics: per-shape medians and tails with
    /// their sample count.
    pub fn client_metrics(&self, report: &mut Report) {
        report.attempted += self.attempted;
        report.failed += self.failed;
        for (shape, name) in [
            (Shape::Filter, "client.filter_p50_us"),
            (Shape::GroupBy, "client.groupby_p50_us"),
            (Shape::SortLimit, "client.sort_limit_p50_us"),
            (Shape::Sql, "client.sql_p50_us"),
        ] {
            report.set(name, self.shape_p50(shape));
        }
        report.set("client.p95_us", percentile(&self.ops_us, 95.0));
        let tail = tail_percentile(self.ops_us.len());
        report.set("client.tail_pct", tail.unwrap_or(0.0));
        report.set(
            "client.tail_us",
            tail.map_or(0.0, |p| percentile(&self.ops_us, p)),
        );
        report.set("client.ops_per_s", self.ops_per_s());
        report.set("client.samples", self.ops_us.len() as f64);
        report.set("client.reconnects", self.reconnects as f64);
        report.set("bench.steal_ratio", self.steal_ratio);
    }
}

/// Jiffies of all CPUs so far, from the first line of `/proc/stat`: those
/// the host took from this guest while a CPU had work to do (steal), and
/// all of them.
fn stolen_and_all_jiffies() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<f64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal; guest time, which
    // follows, is already counted in user and nice.
    let counted = &fields[..fields.len().min(8)];
    (counted.get(7).copied().unwrap_or(0.0), counted.iter().sum())
}

/// Send pre-built request bytes; returns the exchange's wall time in µs
/// with the reply.
pub fn timed_send(conn: &mut Conn, wire: &[u8]) -> (f64, io::Result<Reply>) {
    let started = Instant::now();
    let reply = conn.send(wire);
    (started.elapsed().as_secs_f64() * 1e6, reply)
}

/// A deadline `seconds` from now.
pub fn deadline(seconds: f64) -> Instant {
    Instant::now() + Duration::from_secs_f64(seconds)
}

/// Self times of the program's own spans, harvested from `/trace/<id>`
/// for a sample of the tagged requests of a traced pass.
pub struct Harvest {
    next_id: u64,
    every: u64,
    seen: u64,
    self_us: BTreeMap<String, Vec<f64>>,
    harvested: u64,
}

impl Harvest {
    /// Tag every request of client `client`; fetch the span tree of every
    /// `every`-th.
    pub fn new(client: u64, every: u64) -> Harvest {
        Harvest {
            next_id: 0xbe00_0000_0000 + (client << 32),
            every: every.max(1),
            seen: 0,
            self_us: BTreeMap::new(),
            harvested: 0,
        }
    }

    /// The next `X-Trace-Id` value.
    fn tag(&mut self) -> String {
        self.next_id += 1;
        format!("{:x}", self.next_id)
    }

    /// Send `op` tagged; outside the timed interval, fetch its span tree
    /// when it is this request's turn.
    pub fn send(&mut self, conn: &mut Conn, op: &Op) -> (f64, io::Result<Reply>) {
        let id = self.tag();
        let timed = timed_send(conn, &op.wire(Some(&id)));
        self.seen += 1;
        if self.seen.is_multiple_of(self.every) {
            if let Ok(reply) = conn.get(&format!("/trace/{id}")) {
                if let Some(doc) = std::str::from_utf8(&reply.body)
                    .ok()
                    .and_then(sut::parse_json)
                {
                    if let Some(root) = doc.get("root") {
                        self.harvested += 1;
                        self.walk(root);
                    }
                }
            }
        }
        timed
    }

    fn walk(&mut self, node: &Json) {
        let interval = |n: &Json| {
            let start = n.get("start_us").and_then(sut::json_num).unwrap_or(0.0) as u64;
            let elapsed = n.get("elapsed_us").and_then(sut::json_num).unwrap_or(0.0) as u64;
            (start, start + elapsed)
        };
        let (lo, hi) = interval(node);
        let children = node.get("children").map(Json::items).unwrap_or(&[]);
        let mut spans: Vec<(u64, u64)> = children.iter().map(interval).collect();
        if let Some(name) = node.get("name").and_then(Json::as_str) {
            let self_us = (hi - lo) - crate::trace::covered(lo, hi, &mut spans);
            self.self_us
                .entry(name.to_string())
                .or_default()
                .push(self_us as f64);
        }
        for child in children {
            self.walk(child);
        }
    }

    pub fn absorb(&mut self, other: Harvest) {
        self.harvested += other.harvested;
        for (name, us) in other.self_us {
            self.self_us.entry(name).or_default().extend(us);
        }
    }

    /// Median self time per reported span name; a name the program did
    /// not emit is noted as absent and reported as 0.
    pub fn report(&self, report: &mut Report) {
        report.set("server.span.harvested", self.harvested as f64);
        report.notes.push(format!(
            "span names harvested: {}",
            self.self_us.keys().cloned().collect::<Vec<_>>().join(", ")
        ));
        let mut absent = Vec::new();
        for span in PROGRAM_SPANS {
            let metric = crate::metrics::per_layer_name(&format!("server.span.{span}_self_us"))
                .expect("every reported span has a per-layer metric");
            match self.self_us.get(*span) {
                Some(us) => report.set(metric, median(us)),
                None => absent.push(*span),
            }
        }
        if !absent.is_empty() {
            report.notes.push(format!(
                "spans absent in this workload (reported as 0): {}",
                absent.join(", ")
            ));
        }
    }
}

/// What the TCP phase of a traced pass reports: the load generator's
/// diagnostics, the wall-clock round trip, the program's span trees
/// harvested from the tagged ops, and the cost of tagging.
pub fn traced_phase(log: &PhaseLog, harvest: &Harvest, report: &mut Report) {
    log.client_metrics(report);
    harvest.report(report);
    report.set("server.reactor.rtt_us", log.p50());
    report.set("bench.trace_overhead_pct", log.tagging_overhead_pct());
    report.set("bench.machine_factor", machine_factor());
}

/// Report the median duration of each listed span as the per-layer
/// metric `<span>_us`.
pub fn span_medians(tracer: &crate::trace::Tracer, spans: &[&str], report: &mut Report) {
    for span in spans {
        let metric = crate::metrics::per_layer_name(&format!("{span}_us"))
            .expect("a span reported this way is named after its metric");
        report.set(metric, tracer.median_us(span));
    }
}

/// The cache and index ratios of a phase, from its counter deltas.
pub fn cache_metrics(delta: &crate::sut::Counters, report: &mut Report) {
    report.set("server.cache.hit_ratio", delta.page_hit_ratio());
    report.set("server.cache.result_hit_ratio", delta.result_hit_ratio());
    report.set("server.cache.evictions", delta.page_evictions as f64);
    report.set("server.query.index_hit_ratio", delta.index_hit_ratio());
    report.set("server.ingest.cold_rebuilds", delta.cold_rebuilds as f64);
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}
