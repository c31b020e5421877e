//! Stand-alone replays of the layers under `node`: the sighting slab,
//! the three spatial indexes, the visitor database and its storage
//! engine, the two transports, and the overlap geometry.
//!
//! Each is driven through its public functions at the workload's
//! per-leaf population and step length, with inputs made from the seed.
//! These are the numbers the ledger marks *(est.)*: the calls happen
//! inside `LocationServer::handle`, where this PR cannot put a span.

// lint:allow-file(wallclock) layer micro-replays time public calls with the wall clock by definition
use crate::catalog::{DES_ACC_M, MAX_SPEED_MPS, MIN_ACC_M, REQ_ACC_M, REQ_OVERLAP};
use crate::hist::Histogram;
use crate::real::ScratchDir;
use crate::sut::{
    semantics, ChannelNetwork, ClientId, DurableMap, Endpoint, Envelope, GridIndex, Hlc,
    LocationDescriptor, Message, ObjectId, Point, PointQuadtree, RTree, RangeQuery, Rect, RegInfo,
    Region, RngExt, SeedableRng, ServerId, Sighting, SightingDb, SpatialIndex, StdRng,
    StoredSighting, SyncPolicy, UdpEndpoint, VisitorDb, VisitorRecord,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// A leaf's edge (meters).
const LEAF_M: f64 = 2_000.0;
/// Moves / lookups replayed per structure.
const MOVES: usize = 200_000;
/// Range and nearest-neighbor probes per structure.
const PROBES: usize = 2_000;
/// Side of the replayed range squares (the middle size of `query_mix`,
/// the size of `city_mix`).
const RANGE_SIDE_M: f64 = 200.0;
/// Grid cell of the grid index (what the in-tree ablation uses).
const GRID_CELL_M: f64 = 100.0;
/// Round trips for the echo measurements.
const ECHOES: usize = 2_000;

/// What a workload asks of the layers.
pub struct ReplayInput<'a> {
    pub seed: u64,
    /// Objects per leaf (population ÷ 16).
    pub per_leaf: usize,
    /// Step length of the workload's moves (meters).
    pub step_m: f64,
    /// Real frames of the workload, from the inline replay.
    pub frames: &'a [Envelope<Message>],
    /// Datagrams a shard finds queued per wake-up: many under the
    /// windowed storm, one when each generator waits for its answer
    /// (then every receive pays the whole timed-wait + drain sequence).
    pub recv_batch: usize,
}

fn ns_per(total: Duration, n: usize) -> f64 {
    total.as_nanos() as f64 / n.max(1) as f64
}

/// The replay's inputs: positions in one leaf, a walk over them, probes.
struct Inputs {
    homes: Vec<Point>,
    /// `(object, position after the step)`.
    moves: Vec<(u64, Point)>,
    rects: Vec<Rect>,
    points: Vec<Point>,
}

impl Inputs {
    fn new(seed: u64, per_leaf: usize, step_m: f64) -> Inputs {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7265_706c);
        let inside = |rng: &mut StdRng| {
            Point::new(rng.random_range(0.0..LEAF_M), rng.random_range(0.0..LEAF_M))
        };
        let homes: Vec<Point> = (0..per_leaf).map(|_| inside(&mut rng)).collect();
        let mut pos = homes.clone();
        let moves = (0..MOVES)
            .map(|i| {
                let k = i % per_leaf;
                let a = rng.random_range(0.0..std::f64::consts::TAU);
                let to = Point::new(
                    (pos[k].x + step_m * a.cos()).clamp(0.0, LEAF_M - 1e-3),
                    (pos[k].y + step_m * a.sin()).clamp(0.0, LEAF_M - 1e-3),
                );
                pos[k] = to;
                (k as u64 + 1, to)
            })
            .collect();
        let rects = (0..PROBES)
            .map(|_| Rect::from_center_size(inside(&mut rng), RANGE_SIDE_M, RANGE_SIDE_M))
            .collect();
        let points = (0..PROBES).map(|_| inside(&mut rng)).collect();
        Inputs {
            homes,
            moves,
            rects,
            points,
        }
    }
}

fn stored(key: u64, pos: Point, expires_us: u64) -> StoredSighting {
    StoredSighting {
        key,
        pos,
        time_us: 0,
        acc_sens_m: 5.0,
        expires_us,
    }
}

fn sighting_rows(inp: &Inputs, out: &mut BTreeMap<&'static str, f64>) {
    let mut db = SightingDb::new_quadtree();
    // Deadlines far apart from "now", as under a 300 s TTL.
    let ttl = 300_000_000u64;
    let t = Instant::now();
    for (i, p) in inp.homes.iter().enumerate() {
        db.upsert(stored(i as u64 + 1, *p, ttl));
    }
    out.insert("sighting.insert_ns", ns_per(t.elapsed(), inp.homes.len()));

    let t = Instant::now();
    for (i, (key, to)) in inp.moves.iter().enumerate() {
        // The TTL refresh moves the deadline on, as every update does.
        db.upsert(stored(*key, *to, ttl + i as u64 * 50));
    }
    out.insert(
        "sighting.upsert_move_ns",
        ns_per(t.elapsed(), inp.moves.len()),
    );

    let t = Instant::now();
    for (key, _) in &inp.moves {
        black_box(db.get(*key));
    }
    out.insert("sighting.get_ns", ns_per(t.elapsed(), inp.moves.len()));

    let t = Instant::now();
    for r in &inp.rects {
        let mut n = 0u32;
        db.range_candidates(&Region::Rect(*r), REQ_ACC_M, &mut |_| n += 1);
        black_box(n);
    }
    out.insert(
        "sighting.range_us",
        ns_per(t.elapsed(), inp.rects.len()) / 1e3,
    );

    let t = Instant::now();
    for p in &inp.points {
        black_box(db.nearest_where(*p, &mut |_| true));
    }
    out.insert(
        "sighting.nearest_us",
        ns_per(t.elapsed(), inp.points.len()) / 1e3,
    );

    let n = db.len();
    let t = Instant::now();
    black_box(db.expire_due(u64::MAX / 2).len());
    out.insert("sighting.expire_ns_per_entry", ns_per(t.elapsed(), n));
}

fn spatial_rows(
    name: &str,
    mut idx: Box<dyn SpatialIndex>,
    inp: &Inputs,
    out: &mut BTreeMap<&'static str, f64>,
) {
    let row = |metric: &str| -> &'static str {
        let wanted = format!("spatial.{name}.{metric}");
        crate::catalog::PER_LAYER
            .iter()
            .map(|d| d.name)
            .find(|n| *n == wanted)
            .expect("spatial row is in the catalogue")
    };
    let t = Instant::now();
    for (i, p) in inp.homes.iter().enumerate() {
        idx.insert(i as u64 + 1, *p);
    }
    out.insert(row("insert_ns"), ns_per(t.elapsed(), inp.homes.len()));

    let t = Instant::now();
    for (key, to) in &inp.moves {
        idx.update(*key, *to);
    }
    out.insert(row("update_ns"), ns_per(t.elapsed(), inp.moves.len()));

    let t = Instant::now();
    for r in &inp.rects {
        let mut n = 0u32;
        idx.query_rect(&r.enlarged(REQ_ACC_M), &mut |_| n += 1);
        black_box(n);
    }
    out.insert(row("range_us"), ns_per(t.elapsed(), inp.rects.len()) / 1e3);

    let t = Instant::now();
    for p in &inp.points {
        black_box(idx.nearest(*p));
    }
    out.insert(
        row("nearest_us"),
        ns_per(t.elapsed(), inp.points.len()) / 1e3,
    );
}

fn leaf_record(i: u64) -> VisitorRecord {
    let reg = RegInfo::new(ClientId(7).into(), DES_ACC_M, MIN_ACC_M, MAX_SPEED_MPS);
    VisitorRecord::Leaf {
        offered_acc_m: DES_ACC_M,
        reg,
        epoch: Hlc(i + 1),
    }
}

fn forward_record(i: u64) -> VisitorRecord {
    VisitorRecord::Forward {
        child: ServerId(5),
        epoch: Hlc(i + 1),
    }
}

fn apply_ns(mut db: VisitorDb, n: usize) -> f64 {
    let t = Instant::now();
    for i in 0..n as u64 {
        // One leaf record for every two forward records: the shape of a
        // registration seen across the three levels.
        let rec = if i % 3 == 0 {
            leaf_record(i)
        } else {
            forward_record(i)
        };
        black_box(db.apply(ObjectId(i + 1), rec));
    }
    ns_per(t.elapsed(), n)
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(|e| e.ok())
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

fn visitor_and_storage_rows(per_leaf: usize, out: &mut BTreeMap<&'static str, f64>) {
    let n = (per_leaf * 16).min(60_000);
    out.insert(
        "visitor.apply_volatile_ns",
        apply_ns(VisitorDb::volatile(), n),
    );
    let scratch = ScratchDir::new("replay");
    let open = |name: &str, policy| {
        VisitorDb::durable(scratch.0.join(name), policy).expect("open a durable visitor DB")
    };
    out.insert(
        "visitor.apply_osflush_ns",
        apply_ns(open("osflush", SyncPolicy::OsFlush), n),
    );
    // Every apply waits for the disk here: few of them, reported, never gated.
    out.insert(
        "visitor.apply_always_us",
        apply_ns(open("always", SyncPolicy::Always), 200) / 1e3,
    );

    // The engine itself, to read what `VisitorDb` does not show.
    let dir = scratch.0.join("engine");
    let mut map: DurableMap<VisitorRecord> =
        DurableMap::open(&dir, SyncPolicy::OsFlush).expect("open the storage engine");
    let grew = |map: &mut DurableMap<VisitorRecord>,
                f: &mut dyn FnMut(&mut DurableMap<VisitorRecord>)| {
        let before = map.wal_bytes();
        f(map);
        (map.wal_bytes() - before) as f64
    };
    let leaf = grew(&mut map, &mut |m| {
        m.insert(1, leaf_record(1)).expect("insert")
    });
    let fwd = grew(&mut map, &mut |m| {
        m.insert(2, forward_record(2)).expect("insert")
    });
    let del = grew(&mut map, &mut |m| assert!(m.remove(1).expect("remove")));
    // A registration logs the agent's record and a forward reference at
    // both ancestors; a handover between sibling leaves logs the new
    // agent's record, the old agent's removal and the parent's new
    // forward reference.
    out.insert("storage.wal_bytes_per_register", leaf + 2.0 * fwd);
    out.insert("storage.wal_bytes_per_handover", leaf + del + fwd);

    // A root's life under churn: forward records put and removed until
    // the 8 MiB log has checkpointed by itself a few times.
    let live = per_leaf * 16;
    for i in 0..live as u64 {
        map.insert(10 + i, forward_record(i)).expect("insert");
    }
    let churn = 400_000u64;
    for i in 0..churn {
        let key = 1_000_000_000 + i;
        map.insert(key, forward_record(i)).expect("insert");
        map.remove(key).expect("remove");
    }
    out.insert("storage.checkpoints", map.stats().snapshots_written as f64);
    let t = Instant::now();
    map.compact().expect("checkpoint");
    out.insert("storage.checkpoint_ms", t.elapsed().as_secs_f64() * 1e3);
    let records = map.len().max(1);
    drop(map);
    out.insert(
        "storage.disk_bytes_per_live_record",
        dir_bytes(&dir) as f64 / records as f64,
    );
    let t = Instant::now();
    let map: DurableMap<VisitorRecord> =
        DurableMap::open(&dir, SyncPolicy::OsFlush).expect("reopen the storage engine");
    out.insert("storage.reopen_ms", t.elapsed().as_secs_f64() * 1e3);
    assert_eq!(
        map.len(),
        records,
        "the engine reopens with every live record"
    );
}

fn update_frame() -> Envelope<Message> {
    let sighting = Sighting::new(ObjectId(1), 0, Point::new(1.0, 1.0), 5.0);
    Envelope::new(
        ClientId(1).into(),
        ServerId(0).into(),
        Message::UpdateReq { sighting },
    )
}

fn median_us(h: &Histogram) -> f64 {
    h.quantile(0.5).unwrap_or(0.0) / 1e3
}

fn udp_rows(frames: &[Envelope<Message>], batch: usize, out: &mut BTreeMap<&'static str, f64>) {
    let (a_id, b_id): (Endpoint, Endpoint) = (ClientId(1).into(), ServerId(0).into());
    let bind = |id| {
        UdpEndpoint::<Message>::bind(id, "127.0.0.1:0".parse().expect("valid address"))
            .expect("bind a localhost UDP socket")
    };
    let (a, b) = (bind(a_id), bind(b_id));
    a.add_route(b_id, b.local_addr().expect("bound"));
    b.add_route(a_id, a.local_addr().expect("bound"));
    // The workload's own frames, readdressed to the loopback pair.
    let fallback = [update_frame()];
    let frames = if frames.is_empty() {
        &fallback[..]
    } else {
        frames
    };
    let (mut send, mut recv, mut n) = (Duration::ZERO, Duration::ZERO, 0usize);
    let mut inbox = Vec::with_capacity(64);
    for chunk in frames
        .iter()
        .cycle()
        .take(40_000)
        .collect::<Vec<_>>()
        .chunks(batch.max(1))
    {
        let batch: Vec<Envelope<Message>> = chunk
            .iter()
            .map(|e| Envelope::new(a_id, b_id, e.msg.clone()))
            .collect();
        let t = Instant::now();
        let mut sent = 0usize;
        for env in batch {
            // An oversized frame is dropped by the endpoint, as in a run.
            sent += a.send(env).is_ok() as usize;
        }
        send += t.elapsed();
        n += sent;
        // Loopback delivers before `send` returns, so everything is
        // queued: one timed receive, then the drain, as a shard does.
        let t = Instant::now();
        let mut received = 0usize;
        while received < sent {
            inbox.clear();
            match b.recv_batch(Duration::from_millis(50), 64, &mut inbox) {
                Ok(got) if got.received > 0 => received += got.received,
                _ => break,
            }
        }
        recv += t.elapsed();
    }
    out.insert("net.udp_send_ns_per_msg", ns_per(send, n));
    out.insert("net.udp_recv_ns_per_msg", ns_per(recv, n));

    // Round trip through a thread that sends back what it receives.
    let stop = AtomicBool::new(false);
    let mut rtt = Histogram::default();
    std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                if let Ok(Some(env)) = b.recv_timeout(Duration::from_millis(20)) {
                    let _ = b.send(Envelope::new(b_id, a_id, env.msg));
                }
            }
        });
        for i in 0..ECHOES {
            let msg = frames[i % frames.len()].msg.clone();
            let t = Instant::now();
            if a.send(Envelope::new(a_id, b_id, msg)).is_ok()
                && matches!(a.recv_timeout(Duration::from_secs(1)), Ok(Some(_)))
            {
                rtt.record(t.elapsed().as_nanos() as u64);
            }
        }
        stop.store(true, Ordering::Relaxed);
    });
    out.insert("net.udp_echo_rtt_us", median_us(&rtt));
}

fn channel_rows(out: &mut BTreeMap<&'static str, f64>) {
    let net: ChannelNetwork<Message> = ChannelNetwork::new();
    let (a_id, b_id): (Endpoint, Endpoint) = (ClientId(1).into(), ServerId(0).into());
    let (a_box, b_box) = (net.register(a_id), net.register(b_id));
    let msg = update_frame().msg;
    let (mut send, mut n) = (Duration::ZERO, 0usize);
    for _ in 0..200 {
        let batch: Vec<Envelope<Message>> = (0..1_000)
            .map(|_| Envelope::new(a_id, b_id, msg.clone()))
            .collect();
        let t = Instant::now();
        for env in batch {
            n += net.send(env) as usize;
        }
        send += t.elapsed();
        while b_box.try_recv().is_some() {}
    }
    out.insert("net.chan_send_ns_per_msg", ns_per(send, n));

    let stop = AtomicBool::new(false);
    let mut rtt = Histogram::default();
    std::thread::scope(|s| {
        let echo_net = net.clone();
        let (stop, b_box) = (&stop, &b_box);
        s.spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                if let Some(env) = b_box.recv_timeout(Duration::from_millis(20)) {
                    echo_net.send(Envelope::new(b_id, a_id, env.msg));
                }
            }
        });
        for _ in 0..ECHOES {
            let t = Instant::now();
            if net.send(Envelope::new(a_id, b_id, msg.clone()))
                && a_box.recv_timeout(Duration::from_secs(1)).is_some()
            {
                rtt.record(t.elapsed().as_nanos() as u64);
            }
        }
        stop.store(true, Ordering::Relaxed);
    });
    // One hop is half the round trip.
    out.insert("net.chan_hop_us", median_us(&rtt) / 2.0);
}

fn geo_rows(seed: u64, out: &mut BTreeMap<&'static str, f64>) {
    // Location circles straddling the border of a 200 m square: the
    // partial-overlap case, the only one that computes an area.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x67_656f);
    let q = RangeQuery::new(
        Region::Rect(Rect::from_center_size(
            Point::new(1_000.0, 1_000.0),
            RANGE_SIDE_M,
            RANGE_SIDE_M,
        )),
        REQ_ACC_M,
        REQ_OVERLAP,
    );
    let lds: Vec<LocationDescriptor> = (0..1_000)
        .map(|_| LocationDescriptor {
            pos: Point::new(
                900.0 + rng.random_range(-9.0..9.0),
                rng.random_range(900.0..1_100.0),
            ),
            acc_m: DES_ACC_M,
        })
        .collect();
    let rounds = 100;
    let t = Instant::now();
    for _ in 0..rounds {
        for ld in &lds {
            black_box(semantics::qualifies_for_range(
                &q.area,
                ld,
                q.req_acc_m,
                q.req_overlap,
            ));
        }
    }
    out.insert("geo.overlap_ns", ns_per(t.elapsed(), rounds * lds.len()));
}

/// Every replayed layer row for one workload.
pub fn run(input: &ReplayInput) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    let inp = Inputs::new(input.seed, input.per_leaf.max(16), input.step_m);
    sighting_rows(&inp, &mut out);
    spatial_rows("quadtree", Box::new(PointQuadtree::new()), &inp, &mut out);
    spatial_rows("rtree", Box::new(RTree::new()), &inp, &mut out);
    spatial_rows(
        "grid",
        Box::new(GridIndex::new(GRID_CELL_M)),
        &inp,
        &mut out,
    );
    visitor_and_storage_rows(input.per_leaf.max(16), &mut out);
    udp_rows(input.frames, input.recv_batch, &mut out);
    channel_rows(&mut out);
    geo_rows(input.seed, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_replayed_row_is_measured_and_exact_rows_repeat() {
        let input = ReplayInput {
            seed: 3,
            per_leaf: 64,
            step_m: 5.0,
            frames: &[],
            recv_batch: 4,
        };
        let a = run(&input);
        for prefix in [
            "sighting.",
            "spatial.",
            "visitor.",
            "storage.",
            "net.udp",
            "net.chan",
            "geo.",
        ] {
            let rows: Vec<_> = crate::catalog::PER_LAYER
                .iter()
                .filter(|d| d.name.starts_with(prefix))
                .collect();
            assert!(!rows.is_empty());
            for d in rows {
                let v = a
                    .get(d.name)
                    .copied()
                    .unwrap_or_else(|| panic!("{} missing", d.name));
                assert!(v.is_finite() && v >= 0.0, "{} = {v}", d.name);
            }
        }
        let b = run(&input);
        for exact in [
            "storage.wal_bytes_per_register",
            "storage.wal_bytes_per_handover",
        ] {
            assert!(a[exact] > 0.0);
            assert_eq!(a[exact], b[exact], "{exact}");
        }
    }
}
