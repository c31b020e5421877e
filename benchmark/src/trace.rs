//! The traced run: the same stream (same seed, a fixed count of
//! operations, so counts repeat exactly) replayed single-threaded
//! through the inline hierarchy with spans, the layer replays beside
//! it, and the ledger that sets both against the real run's CPU time.
//!
//! Two processes: `hiloc-bench` runs the real window on the plain
//! allocator and then starts `hiloc-bench-trace` (counting allocator)
//! for everything in this file's [`child_main`]; [`traced_layers`]
//! merges the two.

// lint:allow-file(wallclock) traced replay: pass durations are wall-clock readings by definition
use crate::catalog::{
    Kind, Workload, GENERATORS, HANDLER_LABELS, NEAR_QUAL_M, REQ_ACC_M, TRACE_OPS,
};
use crate::exec::GenState;
use crate::inline::{InlineHierarchy, Span, NO_SPAN};
use crate::oracle;
use crate::real::{out_dir, RealResult, ScratchDir};
use crate::replay::{self, ReplayInput};
use crate::stream::{Stream, World};
use crate::sut::{server_options, Client, Json, Point, RngExt, SeedableRng, ServerOptions, StdRng};
use std::collections::BTreeMap;
use std::io::Write;
use std::process::ExitCode;
use std::time::Instant;

/// Remote-entry nearest-neighbor queries timed for `node.nn_remote_us`.
const NN_REMOTE_PROBES: usize = 200;

/// The per-layer rows of one workload, merged from both processes.
pub struct Layers {
    pub correct: bool,
    pub values: BTreeMap<String, f64>,
}

/// What the traced child hands to its parent.
struct Traced {
    correct: bool,
    values: BTreeMap<String, f64>,
    /// Estimated microseconds per operation by layer (`est.<layer>`)
    /// and blocking-path time per kind (`path_us.<kind>`).
    aux: BTreeMap<String, f64>,
}

/// One replay of the stream through a fresh inline hierarchy.
struct Pass {
    h: InlineHierarchy,
    failed: u64,
    ops_per_s: f64,
    _scratch: Option<ScratchDir>,
}

struct Inputs {
    world: World,
    streams: Vec<Stream>,
    expected: Vec<Vec<u64>>,
    ops: usize,
}

fn inline_pass(w: Workload, inp: &Inputs, record: bool) -> Pass {
    let scratch = (!w.is_udp()).then(|| ScratchDir::new("inline"));
    let opts: ServerOptions = server_options(w.caches(), scratch.as_ref().map(|s| s.0.as_path()));
    let mut h = InlineHierarchy::new(opts, w.is_udp());
    let mut states: Vec<GenState> = (0..GENERATORS)
        .map(|g| GenState::new(&inp.world, w, &inp.streams[g], &inp.expected[g], g))
        .collect();
    let mut failed = 0;
    for (g, st) in states.iter_mut().enumerate() {
        failed += st.register_residents(&mut h.client(g as u64));
    }
    if w.caches() {
        h.advance(inp.world.rest_after_registration(w.step_m()).as_micros() as u64);
    }
    h.settle(None);
    h.reset_costs();
    h.record = record;
    let t = Instant::now();
    // The generators' streams, interleaved one operation each.
    for i in 0..inp.ops {
        let g = i % GENERATORS;
        let idx = states[g].next_index();
        let judged = states[g].exec(&mut h.client(g as u64), idx);
        failed += matches!(judged, Some((_, false))) as u64;
        h.settle(judged.map(|(kind, _)| kind));
    }
    let ops_per_s = inp.ops as f64 / t.elapsed().as_secs_f64();
    h.record = false;
    Pass {
        h,
        failed,
        ops_per_s,
        _scratch: scratch,
    }
}

fn write_spans(w: Workload, spans: &[Span]) -> std::io::Result<()> {
    let path = out_dir().join(format!("trace-{}.jsonl", w.name()));
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    let id = |v: u32| {
        if v == NO_SPAN {
            "null".to_string()
        } else {
            v.to_string()
        }
    };
    for s in spans {
        writeln!(
            f,
            "{{\"op\":{},\"span\":{},\"parent\":{},\"cause\":{},\"server\":{},\"level\":{},\"label\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.op, s.id, id(s.parent), id(s.cause), id(s.server), id(s.level), s.label, s.start_ns, s.end_ns
        )?;
    }
    f.flush()
}

fn ratio(num: u64, den: u64) -> Option<f64> {
    (den > 0).then(|| num as f64 / den as f64)
}

fn trace_workload(w: Workload, seed: u64, smoke: bool) -> Traced {
    let world = World::new(seed, w.population(smoke));
    let streams: Vec<Stream> = (0..GENERATORS)
        .map(|g| Stream::generate(&world, w, seed, g, smoke))
        .collect();
    let ops = if smoke { TRACE_OPS / 10 } else { TRACE_OPS };
    // Expected answers only for the operations replayed.
    let expected = streams
        .iter()
        .map(|s| match w {
            Workload::QueryMix => {
                oracle::expected_hashes(&world.homes, s, ops.div_ceil(GENERATORS))
            }
            _ => Vec::new(),
        })
        .collect();
    let inp = Inputs {
        world,
        streams,
        expected,
        ops,
    };

    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let mut aux: BTreeMap<String, f64> = BTreeMap::new();

    // Spans off first (also warms the page cache), then on.
    let off = inline_pass(w, &inp, false);
    let mut on = inline_pass(w, &inp, true);
    values.insert(
        "trace.overhead_frac".into(),
        off.ops_per_s / on.ops_per_s - 1.0,
    );
    let failed = on.failed + off.failed;
    drop(off);
    if let Err(e) = write_spans(w, &on.h.spans) {
        eprintln!("hiloc-bench-trace: could not write the span file: {e}");
    }

    // ---- node, proto, cache, exact counts -------------------------------
    let h = &on.h;
    for k in Kind::ALL {
        let c = h.by_kind[k as usize];
        if c.ops == 0 {
            continue;
        }
        let per = |v: u64| v as f64 / c.ops as f64;
        values.insert(
            format!("node.handle_us_per_{}", k.name()),
            per(c.handle_ns) / 1e3,
        );
        values.insert(format!("node.msgs_per_{}", k.name()), per(c.msgs));
        values.insert(format!("node.hops_per_{}", k.name()), per(c.hops));
        values.insert(format!("node.allocs_per_{}", k.name()), per(c.allocs));
    }
    for label in HANDLER_LABELS {
        if let Some(v) = h.by_label.get(label).and_then(|c| ratio(c.ns, c.calls)) {
            values.insert(format!("node.handle_ns.{label}"), v);
        }
    }
    let total = h.total;
    let per_op = |v: u64| v as f64 / total.ops.max(1) as f64;
    values.insert("net.datagrams_per_op".into(), per_op(total.datagrams));
    if let Some(v) = ratio(h.encode_ns, h.encoded_msgs) {
        values.insert("proto.encode_ns_per_msg".into(), v);
        values.insert(
            "proto.decode_ns_per_msg".into(),
            h.decode_ns as f64 / h.encoded_msgs as f64,
        );
        values.insert(
            "proto.bytes_per_msg".into(),
            h.encoded_bytes as f64 / h.encoded_msgs as f64,
        );
    }
    let caches = h.cache_stats();
    for (name, c) in [
        ("position", caches.position),
        ("agent", caches.agent),
        ("area", caches.area),
    ] {
        if let Some(v) = ratio(c.hits, c.hits + c.misses) {
            values.insert(format!("cache.{name}_hit_frac"), v);
        }
    }
    let by_label = h.by_label.clone();
    let by_kind = h.by_kind;
    let frames = std::mem::take(&mut on.h.frames);

    // ---- the known exclusion, as a diagnostic ---------------------------
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6e6e);
    let t = Instant::now();
    for _ in 0..NN_REMOTE_PROBES {
        let p = Point::new(
            rng.random_range(0.0..crate::catalog::AREA_M),
            rng.random_range(0.0..crate::catalog::AREA_M),
        );
        let far = (inp
            .world
            .leaves
            .iter()
            .position(|l| l.rect.contains_half_open(p))
            .unwrap_or(0)
            + 8)
            % inp.world.leaves.len();
        let _ =
            on.h.client(9)
                .neighbor_query(inp.world.leaves[far].id, p, REQ_ACC_M, NEAR_QUAL_M);
    }
    values.insert(
        "node.nn_remote_us".into(),
        t.elapsed().as_secs_f64() * 1e6 / NN_REMOTE_PROBES as f64,
    );
    on.h.settle(None);

    // ---- a due path-maintenance sweep: what `tick` costs when it works --
    let before = on.h.by_label.get("tick").copied().unwrap_or_default();
    on.h.advance(ServerOptions::default().path_refresh_us);
    let after = on.h.by_label.get("tick").copied().unwrap_or_default();
    if let Some(v) = ratio(after.ns - before.ns, after.calls - before.calls) {
        values.insert("node.handle_ns.tick".into(), v);
    }
    drop(on);

    // ---- the layers under `node`, replayed stand-alone ------------------
    let replayed = replay::run(&ReplayInput {
        seed,
        per_leaf: inp.world.homes.len() / inp.world.leaves.len(),
        step_m: w.step_m(),
        frames: &frames,
        recv_batch: if w == Workload::UpdateStorm { 16 } else { 1 },
    });
    for (k, v) in &replayed {
        values.insert(k.to_string(), *v);
    }

    // ---- estimates per operation, for the ledger ------------------------
    let r = |name: &str| replayed.get(name).copied().unwrap_or(0.0);
    let v = |name: &str| values.get(name).copied().unwrap_or(0.0);
    let calls = |label: &str| by_label.get(label).map_or(0, |c| c.calls) as f64;
    let at_leaf = |label: &str| by_label.get(label).map_or(0, |c| c.leaf_calls) as f64;
    let inserts = at_leaf("registerReq") + at_leaf("handoverReq");
    let gets = at_leaf("posQueryReq") + at_leaf("posQueryFwd");
    let ranges = at_leaf("rangeQueryReq") + at_leaf("rangeQueryFwd") + at_leaf("neighborQueryFwd");
    let nearests = at_leaf("neighborQueryReq");
    let sighting_ns = at_leaf("update") * r("sighting.upsert_move_ns")
        + inserts * r("sighting.insert_ns")
        + gets * r("sighting.get_ns")
        + (ranges + nearests) * r("sighting.range_us") * 1e3
        + nearests * r("sighting.nearest_us") * 1e3;
    let spatial_ns = (at_leaf("update") * r("spatial.quadtree.update_ns")
        + inserts * r("spatial.quadtree.insert_ns")
        + (ranges + nearests) * r("spatial.quadtree.range_us") * 1e3
        + nearests * r("spatial.quadtree.nearest_us") * 1e3)
        .min(sighting_ns);
    let applies = at_leaf("registerReq")
        + calls("createPath")
        + at_leaf("handoverReq")
        + calls("handoverRes")
        + calls("removePath")
        + at_leaf("deregister");
    let apply_ns = if w.is_udp() {
        r("visitor.apply_volatile_ns")
    } else {
        r("visitor.apply_osflush_ns")
    };
    let visitor_ns = applies * apply_ns;
    // What one datagram costs its two ends beyond the codec (the UDP
    // rows include encode and decode; a channel hop is a send and a
    // receive of about the same cost).
    let (send_ns, recv_ns) = if w.is_udp() {
        (
            (r("net.udp_send_ns_per_msg") - v("proto.encode_ns_per_msg")).max(0.0),
            (r("net.udp_recv_ns_per_msg") - v("proto.decode_ns_per_msg")).max(0.0),
        )
    } else {
        (r("net.chan_send_ns_per_msg"), r("net.chan_send_ns_per_msg"))
    };
    let ops_f = total.ops.max(1) as f64;
    let us_per_op = |ns: f64| ns / ops_f / 1e3;
    aux.insert("est.proto".into(), us_per_op(total.sut_codec_ns as f64));
    aux.insert(
        "est.net".into(),
        us_per_op(total.sut_sends as f64 * send_ns + total.sut_recvs as f64 * recv_ns),
    );
    aux.insert("est.sighting".into(), us_per_op(sighting_ns - spatial_ns));
    aux.insert("est.spatial".into(), us_per_op(spatial_ns));
    aux.insert("est.visitor".into(), us_per_op(visitor_ns));
    aux.insert(
        "est.node".into(),
        us_per_op((total.handle_ns as f64 - sighting_ns - visitor_ns).max(0.0)),
    );
    for k in Kind::ALL {
        let c = by_kind[k as usize];
        if c.ops > 0 {
            let ns =
                c.handle_ns as f64 + c.codec_ns as f64 + c.datagrams as f64 * (send_ns + recv_ns);
            aux.insert(format!("path_us.{}", k.name()), ns / c.ops as f64 / 1e3);
        }
    }

    Traced {
        correct: failed == 0,
        values,
        aux,
    }
}

fn json_map(m: &BTreeMap<String, f64>) -> String {
    let fields: Vec<String> = m
        .iter()
        .map(|(k, v)| format!("\"{k}\": {}", if v.is_finite() { *v } else { 0.0 }))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Entry point of `hiloc-bench-trace <workload> <seed> <smoke 0|1>`.
pub fn child_main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match args.as_slice() {
        [w, seed, smoke] => Workload::parse(w)
            .zip(seed.parse::<u64>().ok())
            .map(|(w, s)| (w, s, smoke == "1")),
        _ => None,
    };
    let Some((w, seed, smoke)) = parsed else {
        eprintln!("usage: hiloc-bench-trace <workload> <seed> <smoke 0|1>   (started by hiloc-bench --trace 1)");
        return ExitCode::from(2);
    };
    let t = trace_workload(w, seed, smoke);
    println!(
        "{{\"correct\": {}, \"values\": {}, \"aux\": {}}}",
        t.correct,
        json_map(&t.values),
        json_map(&t.aux)
    );
    ExitCode::SUCCESS
}

fn numbers(json: &Json, key: &str) -> BTreeMap<String, f64> {
    match json.get(key) {
        Some(Json::Obj(fields)) => fields
            .iter()
            .filter_map(|(k, v)| v.as_f64().map(|v| (k.clone(), v)))
            .collect(),
        _ => BTreeMap::new(),
    }
}

/// Runs the traced child for `w` and merges its rows with the real
/// run's: the per-kind latencies, the `runtime.*` rows and the ledger.
pub fn traced_layers(
    w: Workload,
    seed: u64,
    smoke: bool,
    real: &RealResult,
) -> Result<Layers, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let args = [
        w.name().to_string(),
        seed.to_string(),
        (smoke as u8).to_string(),
    ];
    let json = crate::cli::child_json(&exe.with_file_name("hiloc-bench-trace"), &args, false)
        .map_err(|e| format!("{e} (build every binary: `cargo build --release`)"))?;
    let mut values = numbers(&json, "values");
    let aux = numbers(&json, "aux");
    let traced_ok = json.get("correct").and_then(Json::as_bool).unwrap_or(false);

    for (k, s) in &real.kinds {
        values.insert(k.clone(), s.median);
    }
    for (k, v) in &real.layer {
        values.insert(k.to_string(), *v);
    }

    // The ledger: each layer's estimated share of the CPU time the
    // service spent per operation in the real run; what is left over is
    // printed, not hidden.
    let sut = real
        .layer
        .get("runtime.sut_cpu_us_per_op")
        .copied()
        .unwrap_or(0.0);
    if sut > 0.0 {
        let mut rest = 1.0;
        for layer in ["proto", "net", "node", "sighting", "spatial", "visitor"] {
            let share = aux.get(&format!("est.{layer}")).copied().unwrap_or(0.0) / sut;
            values.insert(format!("ledger.{layer}_frac"), share);
            rest -= share;
        }
        values.insert("ledger.residual_frac".into(), rest);
    }

    // What no layer explains on the blocking path: the median latency
    // of each kind minus its layer time, weighted by how often it ran.
    let (mut sum, mut weight) = (0.0, 0.0);
    for k in w.p50_kinds() {
        let p50 = real
            .kinds
            .get(&format!("{}_p50_us", k.name()))
            .map(|s| s.median);
        let path = aux.get(&format!("path_us.{}", k.name())).copied();
        if let (Some(p50), Some(path)) = (p50, path) {
            let n = real.samples[*k as usize] as f64;
            sum += n * (p50 - path);
            weight += n;
        }
    }
    if weight > 0.0 {
        values.insert("runtime.residual_us".into(), sum / weight);
    }
    Ok(Layers {
        correct: traced_ok,
        values,
    })
}
