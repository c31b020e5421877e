//! One real run: deploy, register the residents, warm up, measure three
//! consecutive sub-windows, check every answer and the books.

// lint:allow-file(wallclock) benchmark harness: the measured quantity is wall-clock time on the real runtimes
use crate::catalog::{
    Kind, Workload, DES_ACC_M, GENERATORS, MIN_ACC_M, SENSOR_ACC_M, STORM_WINDOW,
};
use crate::exec::{self, Acked, GenState, ObjState};
use crate::hist::{window_stat, Histogram, WindowStat};
use crate::oracle;
use crate::pipeline::Pipeline;
use crate::procfs;
use crate::stream::{build_hierarchy, Op, Stream, World};
use crate::sut::{
    server_options, Client, CorrId, Message, RngExt, SeedableRng, ServerId, Sighting, StdRng, Sut,
    ThreadedDeployment, UpdateOutcome,
};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Consecutive sub-windows of the measured window; every timing metric
/// is computed on each and reported as their median. Ten short ones shed
/// a noisy second better than three long ones.
pub const SUBWINDOWS: usize = 10;
const STOP: usize = SUBWINDOWS + 1;
/// How long a pipelined client waits for any answer before it counts
/// everything in flight as lost.
const PIPELINE_PATIENCE: Duration = Duration::from_secs(2);
/// Set-ups per run when set-up time is measured: at least the first
/// number, then more while they have taken less than the seconds in the
/// middle together, at most the last number. A 0.2 s set-up over
/// channels has a fast and a slow wake-up mode; the median of nine lands
/// in the same one far more often than the median of three.
const SETUP_REPEATS: (usize, f64, usize) = (3, 2.0, 9);
/// Registrations in flight per generator during set-up. Each fans out
/// into `createPath` datagrams between shards; at 32 a shard's socket
/// buffer overflowed now and then and the kernel dropped datagrams.
const REGISTER_WINDOW: usize = 8;
/// Blocking clients per generator that register residents over the
/// channel runtime. `SyncClient` waits for every answer; with one client
/// per generator the cores idle between messages and set-up time follows
/// the hypervisor's wake-up latency, which has a fast and a slow mode
/// (0.2 s or 0.4 s for the same work). Eight in flight keep the shards
/// busy, as the pipelined client does on UDP.
const CHANNEL_SETUP_CLIENTS: usize = 4;
/// Residents whose registration must survive the restart of every leaf.
const DURABILITY_SAMPLE: usize = 1_000;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured window (all three sub-windows together).
    pub seconds: f64,
    /// A tenth of the objects and stream lengths.
    pub smoke: bool,
    /// Whether set-up time is a subject of the run: then set-up is
    /// repeated (see [`SETUP_REPEATS`]) and `setup_s` is the median;
    /// otherwise it is done once.
    pub repeat_setup: bool,
}

/// The outcome of one real run.
pub struct RealResult {
    pub correct: bool,
    pub violations: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics by name.
    pub e2e: BTreeMap<&'static str, WindowStat>,
    /// Per-kind latencies (`update_p50_us`, …): only kinds the workload
    /// issues are present.
    pub kinds: BTreeMap<String, WindowStat>,
    /// Correct operations per kind inside the measured window.
    pub samples: [u64; 6],
    /// The layer rows only a real run can give (`runtime.*`,
    /// `cache.answers_frac`, `loadgen.*`, `failed_frac`).
    pub layer: BTreeMap<&'static str, f64>,
}

/// The directory the benchmark writes to: `benchmark/out` of the
/// checkout it runs in (the driver starts it from the checkout's root),
/// else of the checkout it was built in.
pub fn out_dir() -> PathBuf {
    let here = PathBuf::from("benchmark");
    let package = if here.join("Cargo.toml").is_file() {
        here
    } else {
        env!("CARGO_MANIFEST_DIR").into()
    };
    let dir = package.join("out");
    std::fs::create_dir_all(&dir).expect("create benchmark/out");
    dir
}

/// A directory under `benchmark/out` removed when dropped.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> ScratchDir {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir = out_dir().join(format!("{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The phase every generator polls between operations: 0 = warm-up,
/// `1..=SUBWINDOWS` = measured sub-window, `STOP` = done.
struct Control {
    phase: AtomicUsize,
}

/// What one generator hands back.
struct GenReport {
    /// Latency per (sub-window, kind), correct operations only.
    hist: Vec<Histogram>,
    attempted: u64,
    failed: u64,
    window_attempted: u64,
    window_failed: u64,
    acked: Acked,
    cpu_ns: u64,
    stall_max_ns: u64,
    objs: Vec<ObjState>,
    failure_notes: Vec<String>,
}

/// Book-keeping shared by the one-outstanding and the windowed loop.
struct Recorder<'c> {
    ctl: &'c Control,
    phase: usize,
    rep: GenReport,
    cpu_start: u64,
    last_done: Instant,
}

impl<'c> Recorder<'c> {
    fn new(ctl: &'c Control) -> Self {
        Recorder {
            ctl,
            phase: 0,
            rep: GenReport {
                hist: vec![Histogram::default(); SUBWINDOWS * Kind::ALL.len()],
                attempted: 0,
                failed: 0,
                window_attempted: 0,
                window_failed: 0,
                acked: Acked::default(),
                cpu_ns: 0,
                stall_max_ns: 0,
                objs: Vec::new(),
                failure_notes: Vec::new(),
            },
            cpu_start: 0,
            last_done: Instant::now(),
        }
    }

    /// Follows the controller; `false` once the run is over.
    fn running(&mut self) -> bool {
        let now = self.ctl.phase.load(Ordering::Relaxed);
        if now != self.phase {
            if self.phase == 0 {
                self.cpu_start = procfs::thread_cpu_ns();
                self.last_done = Instant::now();
            }
            if now == STOP {
                self.rep.cpu_ns = procfs::thread_cpu_ns() - self.cpu_start;
            }
            self.phase = now;
        }
        now != STOP
    }

    fn measuring(&self) -> bool {
        (1..=SUBWINDOWS).contains(&self.phase)
    }

    /// Books one finished operation that took `t0 → t1`.
    fn done(&mut self, kind: Kind, ok: bool, t0: Instant, t1: Instant) {
        self.rep.attempted += 1;
        self.rep.failed += !ok as u64;
        if !self.measuring() {
            return;
        }
        self.rep.window_attempted += 1;
        self.rep.window_failed += !ok as u64;
        if ok {
            let slot = (self.phase - 1) * Kind::ALL.len() + kind as usize;
            self.rep.hist[slot].record((t1 - t0).as_nanos() as u64);
        }
        let gap = (t1 - self.last_done).as_nanos() as u64;
        self.rep.stall_max_ns = self.rep.stall_max_ns.max(gap);
        self.last_done = t1;
    }
}

/// Closed loop, one operation outstanding.
fn drive_blocking<C: Client>(c: &mut C, st: &mut GenState, ctl: &Control) -> GenReport {
    let mut rec = Recorder::new(ctl);
    while rec.running() {
        let idx = st.next_index();
        let t0 = Instant::now();
        let res = st.exec(c, idx);
        let t1 = Instant::now();
        if let Some((kind, ok)) = res {
            rec.done(kind, ok, t0, t1);
        }
    }
    rec.rep
}

/// One update in flight on the pipelined client.
struct InFlight {
    obj: u32,
    before: ObjState,
    sighting: Sighting,
    t0: Instant,
}

/// Closed loop, `STORM_WINDOW` updates in flight (`update_storm`).
fn drive_windowed(p: &Pipeline, st: &mut GenState, ctl: &Control) -> GenReport {
    let mut rec = Recorder::new(ctl);
    let mut flying: Vec<InFlight> = Vec::with_capacity(STORM_WINDOW);
    let mut inbox = Vec::with_capacity(2 * STORM_WINDOW);
    loop {
        let running = rec.running();
        if !running && flying.is_empty() {
            break;
        }
        while running && flying.len() < STORM_WINDOW {
            let idx = st.next_index();
            let Op::Move { obj, dx, dy } = st.stream.ops[idx] else {
                unreachable!("update_storm streams hold only moves");
            };
            let (before, sighting) = st.prepare_move(obj, dx, dy, p.now_us());
            let t0 = Instant::now();
            if p.send(before.agent, Message::UpdateReq { sighting }) {
                flying.push(InFlight {
                    obj,
                    before,
                    sighting,
                    t0,
                });
            } else {
                rec.done(Kind::Update, false, t0, t0);
            }
        }
        inbox.clear();
        let got = p.recv(PIPELINE_PATIENCE, 2 * STORM_WINDOW, &mut inbox);
        let t1 = Instant::now();
        if got == 0 {
            // Nothing for two seconds: what is in flight is lost.
            for f in flying.drain(..) {
                rec.done(Kind::Update, false, f.t0, t1);
            }
            continue;
        }
        for env in inbox.drain(..) {
            let (oid, outcome) = match env.msg {
                Message::UpdateAck {
                    oid, offered_acc_m, ..
                } => (oid, UpdateOutcome::Ack { offered_acc_m }),
                Message::AgentChanged {
                    oid,
                    new_agent,
                    offered_acc_m,
                } => (
                    oid,
                    UpdateOutcome::NewAgent {
                        agent: new_agent,
                        offered_acc_m,
                    },
                ),
                Message::OutOfServiceArea { oid } => (oid, UpdateOutcome::OutOfServiceArea),
                _ => continue,
            };
            // The window never holds an object twice, so the id finds it.
            let Some(at) = flying.iter().position(|f| f.before.oid == oid) else {
                continue;
            };
            let f = flying.swap_remove(at);
            let (kind, ok) = st.finish_move(f.obj, f.before, f.sighting.pos, Some(outcome));
            rec.done(kind, ok, f.t0, t1);
        }
    }
    rec.rep
}

/// Registers a generator's residents with `REGISTER_WINDOW` requests
/// in flight. Returns how many failed.
fn register_pipelined(p: &Pipeline, st: &mut GenState) -> u64 {
    // Correlation ids carry the object's local index.
    const BASE: u64 = 1 << 32;
    let n = st.objs.len();
    let (mut next, mut flying, mut ok) = (0usize, 0usize, 0u64);
    let mut inbox = Vec::with_capacity(2 * STORM_WINDOW);
    while next < n || flying > 0 {
        while flying < REGISTER_WINDOW && next < n {
            let o = st.objs[next];
            let msg = Message::RegisterReq {
                sighting: Sighting::new(o.oid, p.now_us(), o.pos, SENSOR_ACC_M),
                des_acc_m: DES_ACC_M,
                min_acc_m: MIN_ACC_M,
                max_speed_mps: st.world.max_speed_mps,
                registrant: p.endpoint(),
                corr: CorrId(BASE + next as u64),
            };
            flying += p.send(o.agent, msg) as usize;
            next += 1;
        }
        inbox.clear();
        if p.recv(PIPELINE_PATIENCE, 2 * STORM_WINDOW, &mut inbox) == 0 {
            break;
        }
        for env in inbox.drain(..) {
            if let Message::RegisterRes {
                agent,
                offered_acc_m,
                corr,
            } = env.msg
            {
                let o = st.objs.get((corr.0 - BASE) as usize);
                flying = flying.saturating_sub(1);
                ok += o.is_some_and(|o| o.agent == agent && offered_acc_m == DES_ACC_M) as u64;
            }
        }
    }
    st.acked.registrations += ok;
    n as u64 - ok
}

/// Registers a generator's residents over the channel runtime from
/// `CHANNEL_SETUP_CLIENTS` blocking clients at once. Returns how many
/// failed.
fn register_over_channels(d: &ThreadedDeployment, st: &mut GenState) -> u64 {
    let max_speed = st.world.max_speed_mps;
    let share = st.objs.len().div_ceil(CHANNEL_SETUP_CLIENTS).max(1);
    let ok: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = st
            .objs
            .chunks(share)
            .map(|objs| s.spawn(move || exec::register(&mut d.client(), objs, max_speed)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("set-up client thread"))
            .sum()
    });
    st.acked.registrations += ok;
    st.objs.len() as u64 - ok
}

/// Deploys `workload`'s service. The scratch directory (durable
/// workloads only) must outlive the deployment.
fn deploy(workload: Workload) -> (Sut, Option<ScratchDir>) {
    let h = build_hierarchy();
    if workload.is_udp() {
        (Sut::udp(h, server_options(workload.caches(), None)), None)
    } else {
        let dir = ScratchDir::new("durable");
        (
            Sut::threaded(h, server_options(false, Some(&dir.0))),
            Some(dir),
        )
    }
}

/// A blocking client of the deployed runtime, as a trait object would
/// cost a dynamic call per operation the generic loops avoid.
enum AnyClient {
    Udp(crate::sut::UdpClient),
    Sync(crate::sut::SyncClient),
}

fn client_of(sut: &Sut) -> AnyClient {
    match sut {
        Sut::Udp(d) => AnyClient::Udp(d.client().expect("bind a client socket")),
        Sut::Threaded(d) => AnyClient::Sync(d.client()),
    }
}

fn geomean(values: impl Iterator<Item = f64>) -> Option<f64> {
    let (mut sum, mut n) = (0.0, 0u32);
    for v in values {
        sum += v.ln();
        n += 1;
    }
    (n > 0).then(|| (sum / n as f64).exp())
}

/// Runs one workload end to end.
pub fn run(opts: RunOpts) -> RealResult {
    let w = opts.workload;
    let mut violations: Vec<String> = Vec::new();
    let mut layer: BTreeMap<&'static str, f64> = BTreeMap::new();
    let kernel_drops_before = procfs::udp_rcvbuf_errors();

    // Inputs, made from the seed before anything is timed.
    let t_gen = Instant::now();
    let world = World::new(opts.seed, w.population(opts.smoke));
    let streams: Vec<Stream> = (0..GENERATORS)
        .map(|g| Stream::generate(&world, w, opts.seed, g, opts.smoke))
        .collect();
    let generated: usize = streams.iter().map(|s| s.ops.len()).sum();
    layer.insert(
        "loadgen.gen_ns_per_op",
        t_gen.elapsed().as_nanos() as f64 / generated as f64,
    );

    // The brute-force answers, also before anything is timed.
    let t_oracle = Instant::now();
    let expected: Vec<Vec<u64>> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .map(|st| {
                let homes = &world.homes;
                s.spawn(move || {
                    if w == Workload::QueryMix {
                        oracle::expected_hashes(homes, st, usize::MAX)
                    } else {
                        Vec::new()
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("oracle thread"))
            .collect()
    });
    layer.insert(
        "loadgen.oracle_ns_per_op",
        t_oracle.elapsed().as_nanos() as f64 / generated as f64,
    );

    let servers: Vec<ServerId> = build_hierarchy().servers().iter().map(|c| c.id).collect();

    // Set-up, several times; the last deployment is the one measured.
    let mut setup_s: Vec<f64> = Vec::new();
    let mut setup_failed = 0u64;
    let mut deployed: Option<(Sut, Option<ScratchDir>, Vec<GenState>)> = None;
    let enough = |done: &[f64]| {
        let (least, budget_s, most) = SETUP_REPEATS;
        !opts.repeat_setup
            || done.len() >= most
            || (done.len() >= least && done.iter().sum::<f64>() >= budget_s)
    };
    while setup_s.is_empty() || !enough(&setup_s) {
        if let Some((sut, dir, _)) = deployed.take() {
            sut.shutdown();
            drop(dir);
        }
        let t0 = Instant::now();
        let (sut, dir) = deploy(w);
        let mut states: Vec<GenState> = (0..GENERATORS)
            .map(|g| GenState::new(&world, w, &streams[g], &expected[g], g))
            .collect();
        setup_failed = std::thread::scope(|s| {
            let handles: Vec<_> = states
                .iter_mut()
                .enumerate()
                .map(|(g, st)| {
                    let (sut, servers) = (&sut, &servers);
                    s.spawn(move || match sut {
                        Sut::Udp(_) => {
                            let p = Pipeline::connect(sut, servers.iter().copied(), 100 + g as u64);
                            register_pipelined(&p, st)
                        }
                        Sut::Threaded(d) => register_over_channels(d, st),
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("set-up thread"))
                .sum()
        });
        setup_s.push(t0.elapsed().as_secs_f64());
        deployed = Some((sut, dir, states));
    }
    let (sut, scratch, mut states) = deployed.expect("at least one set-up");
    if setup_failed > 0 {
        violations.push(format!(
            "{setup_failed} resident registrations failed during set-up"
        ));
    }

    if w.caches() {
        // The last residents registered must not move at once: their
        // cached positions age by the declared maximum speed.
        std::thread::sleep(world.rest_after_registration(w.step_m()));
    }

    // Warm-up, then the measured sub-windows.
    let ctl = Control {
        phase: AtomicUsize::new(0),
    };
    let barrier = Barrier::new(GENERATORS + 1);
    let sub = Duration::from_secs_f64(opts.seconds / SUBWINDOWS as f64);
    let warmup = Duration::from_secs_f64((opts.seconds / 4.0).clamp(0.5, 3.0));
    let mut edges: Vec<Instant> = Vec::new();
    let (mut cpu_start, mut cpu_end, mut busy_start, mut busy_end) = (0, 0, None, None);
    let reports: Vec<GenReport> = std::thread::scope(|s| {
        let handles: Vec<_> = states
            .iter_mut()
            .enumerate()
            .map(|(g, st)| {
                let (sut, ctl, barrier, servers) = (&sut, &ctl, &barrier, &servers);
                s.spawn(move || {
                    let mut rep = if w == Workload::UpdateStorm {
                        let p = Pipeline::connect(sut, servers.iter().copied(), g as u64);
                        barrier.wait();
                        drive_windowed(&p, st, ctl)
                    } else {
                        let mut c = client_of(sut);
                        barrier.wait();
                        match &mut c {
                            AnyClient::Udp(c) => drive_blocking(c, st, ctl),
                            AnyClient::Sync(c) => drive_blocking(c, st, ctl),
                        }
                    };
                    rep.acked = st.acked;
                    rep.objs = std::mem::take(&mut st.objs);
                    rep.failure_notes = std::mem::take(&mut st.failure_notes);
                    rep
                })
            })
            .collect();
        barrier.wait();
        std::thread::sleep(warmup);
        for phase in 1..=SUBWINDOWS {
            if phase == 1 {
                cpu_start = procfs::process_cpu_ns();
                busy_start = sut.shard_busy();
            }
            edges.push(Instant::now());
            ctl.phase.store(phase, Ordering::Relaxed);
            std::thread::sleep(sub);
        }
        cpu_end = procfs::process_cpu_ns();
        busy_end = sut.shard_busy();
        edges.push(Instant::now());
        ctl.phase.store(STOP, Ordering::Relaxed);
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread"))
            .collect()
    });

    // ---- metrics of the window -------------------------------------
    let durations: Vec<f64> = edges
        .windows(2)
        .map(|e| (e[1] - e[0]).as_secs_f64())
        .collect();
    let window_s: f64 = durations.iter().sum();
    let merged = |sw: usize, k: Kind| {
        let mut h = Histogram::default();
        for r in &reports {
            h.merge(&r.hist[sw * Kind::ALL.len() + k as usize]);
        }
        h
    };
    let hists: Vec<Vec<Histogram>> = (0..SUBWINDOWS)
        .map(|sw| Kind::ALL.iter().map(|k| merged(sw, *k)).collect())
        .collect();
    let mut samples = [0u64; 6];
    for sw in &hists {
        for (k, h) in sw.iter().enumerate() {
            samples[k] += h.len();
        }
    }
    let window_ops: u64 = samples.iter().sum();
    let us = |h: &Histogram, q: f64| h.quantile(q).map(|ns| ns / 1_000.0);

    let mut e2e: BTreeMap<&'static str, WindowStat> = BTreeMap::new();
    let mut kinds: BTreeMap<String, WindowStat> = BTreeMap::new();
    let per_window =
        |f: &dyn Fn(usize) -> Option<f64>| -> Vec<f64> { (0..SUBWINDOWS).filter_map(f).collect() };
    let ops_per_s = per_window(&|sw| {
        Some(hists[sw].iter().map(|h| h.len()).sum::<u64>() as f64 / durations[sw])
    });
    e2e.extend(window_stat(&ops_per_s).map(|s| ("ops_per_s", s)));
    for (name, q, set) in [
        ("p50_us", 0.50, w.p50_kinds()),
        ("p95_us", 0.95, w.tail_kinds()),
    ] {
        let values = per_window(&|sw| {
            let per_kind: Vec<f64> = set
                .iter()
                .filter_map(|k| us(&hists[sw][*k as usize], q))
                .collect();
            // Every kind or none: a mean over fewer kinds is another metric.
            (per_kind.len() == set.len())
                .then(|| geomean(per_kind.into_iter()))
                .flatten()
        });
        if values.len() == SUBWINDOWS {
            e2e.extend(window_stat(&values).map(|s| (name, s)));
        } else {
            violations.push(format!("{name}: a sub-window holds no sample of some kind"));
        }
    }
    for (pct, q, set) in [("p50", 0.50, w.p50_kinds()), ("p99", 0.99, w.tail_kinds())] {
        for k in set {
            let v = per_window(&|sw| us(&hists[sw][*k as usize], q));
            kinds.extend(window_stat(&v).map(|s| (format!("{}_{pct}_us", k.name()), s)));
        }
    }
    e2e.extend(window_stat(&setup_s).map(|s| ("setup_s", s)));

    // ---- the books ----------------------------------------------------
    let mut acked = Acked::default();
    for r in &reports {
        acked.updates += r.acked.updates;
        acked.handovers += r.acked.handovers;
        acked.registrations += r.acked.registrations;
    }
    let total = sut.stats_total();
    for (what, served, seen) in [
        ("updates", total.updates, acked.updates),
        ("registrations", total.registrations, acked.registrations),
        (
            "handovers_completed",
            total.handovers_completed,
            acked.handovers,
        ),
    ] {
        if served != seen {
            violations.push(format!(
                "ServerStats::{what} = {served}, clients saw {seen} acknowledged"
            ));
        }
    }
    if total.inbox_shed != 0 {
        violations.push(format!("runtime.inbox_shed = {}", total.inbox_shed));
    }
    if total.gathers_timed_out != 0 {
        violations.push(format!("{} gathers timed out", total.gathers_timed_out));
    }

    let mut attempted: u64 = reports.iter().map(|r| r.attempted).sum();
    let mut failed: u64 = reports.iter().map(|r| r.failed).sum::<u64>() + setup_failed;
    let window_attempted: u64 = reports.iter().map(|r| r.window_attempted).sum();
    let window_failed: u64 = reports.iter().map(|r| r.window_failed).sum();

    // ---- durability: acknowledged registrations survive a restart ----
    if w == Workload::ChurnDurable {
        for leaf in &world.leaves {
            if !(sut.crash_server(leaf.id) && sut.restart_server(leaf.id)) {
                violations.push(format!("leaf {} did not restart", leaf.id));
            }
        }
        let residents: Vec<&ObjState> = reports.iter().flat_map(|r| r.objs.iter()).collect();
        let mut rng = StdRng::seed_from_u64(opts.seed ^ 0x6475_7261);
        let AnyClient::Sync(mut c) = client_of(&sut) else {
            unreachable!("churn_durable runs on the channel runtime");
        };
        let mut lost = 0;
        for _ in 0..DURABILITY_SAMPLE.min(residents.len()) {
            let o = residents[rng.random_range(0..residents.len())];
            let s = Sighting::new(o.oid, c.now_us(), o.pos, SENSOR_ACC_M);
            attempted += 1;
            if !matches!(c.update(o.agent, s), Ok(UpdateOutcome::Ack { .. })) {
                lost += 1;
            }
        }
        failed += lost;
        if lost > 0 {
            violations.push(format!(
                "{lost} acknowledged registrations did not survive a restart"
            ));
        }
    }

    // ---- layer rows only the real run can give -------------------------
    let gen_cpu: u64 = reports.iter().map(|r| r.cpu_ns).sum();
    let ops = window_ops.max(1) as f64;
    let sut_cpu_ns = (cpu_end - cpu_start).saturating_sub(gen_cpu);
    layer.insert(
        "runtime.sut_cpu_us_per_op",
        sut_cpu_ns as f64 / 1_000.0 / ops,
    );
    layer.insert("loadgen.cpu_us_per_op", gen_cpu as f64 / 1_000.0 / ops);
    layer.insert("runtime.inbox_shed", total.inbox_shed as f64);
    layer.insert(
        "runtime.stall_max_ms",
        reports.iter().map(|r| r.stall_max_ns).max().unwrap_or(0) as f64 / 1e6,
    );
    if let (Some(a), Some(b)) = (busy_start, busy_end) {
        let busy: f64 = b.iter().zip(&a).map(|(b, a)| (*b - *a).as_secs_f64()).sum();
        layer.insert(
            "runtime.shard_busy_frac",
            busy / (window_s * b.len() as f64),
        );
    }
    if samples[Kind::Pos as usize] > 0 {
        // Cache answers over the whole run (warm-up included), as the
        // counter cannot be windowed from outside.
        let pos_all: u64 = reports.iter().map(|r| r.attempted).sum::<u64>().max(1);
        let share = samples[Kind::Pos as usize] as f64 / window_ops.max(1) as f64;
        layer.insert(
            "cache.answers_frac",
            total.cache_answers as f64 / (pos_all as f64 * share),
        );
    }
    layer.insert(
        "failed_frac",
        window_failed as f64 / window_attempted.max(1) as f64,
    );

    sut.shutdown();
    drop(scratch);
    e2e.insert("peak_rss_mb", {
        let v = procfs::peak_rss_mb();
        WindowStat {
            median: v,
            min: v,
            max: v,
        }
    });

    if window_failed > 0 {
        violations.push(format!(
            "{window_failed} of {window_attempted} operations failed in the window"
        ));
    }
    violations.extend(
        reports
            .iter()
            .flat_map(|r| r.failure_notes.iter())
            .map(|n| format!("failed: {n}")),
    );
    let kernel_drops = procfs::udp_rcvbuf_errors() - kernel_drops_before;
    if !violations.is_empty() && kernel_drops > 0 {
        violations.push(format!(
            "the kernel dropped {kernel_drops} datagrams at full socket buffers during the run"
        ));
    }
    RealResult {
        correct: violations.is_empty() && failed == 0,
        violations,
        attempted: attempted.max(1),
        failed,
        e2e,
        kinds,
        samples,
        layer,
    }
}
