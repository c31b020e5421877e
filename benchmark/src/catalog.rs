//! The catalogue: workloads, metrics and the constants every workload
//! shares. `BENCHMARK.json` repeats the names, units, directions and
//! bounds written here; a unit test keeps the two in step.

/// Service area edge (meters): 8 km × 8 km, split 4 × 4 × (2 levels)
/// into 21 servers.
pub const AREA_M: f64 = 8_000.0;
/// Load generator threads, one socket/client each (the box has 2 cores).
pub const GENERATORS: usize = 2;
/// Updates in flight per generator on `update_storm`.
pub const STORM_WINDOW: usize = 32;
/// Registration parameters of every tracked object.
pub const DES_ACC_M: f64 = 10.0;
pub const MIN_ACC_M: f64 = 50.0;
/// Declared maximum speed at `city_mix`'s 200 000 objects (see
/// `World::max_speed_mps`): 15 m every ≥ 1.5 s leaves a 4× throughput
/// margin over today's ≈ 6 s between two updates of one object.
pub const MAX_SPEED_MPS: f64 = 10.0;
pub const SENSOR_ACC_M: f64 = 5.0;
/// Query parameters.
pub const REQ_ACC_M: f64 = 25.0;
pub const REQ_OVERLAP: f64 = 0.5;
pub const NEAR_QUAL_M: f64 = 20.0;
/// Operations of each workload replayed by the traced run.
pub const TRACE_OPS: usize = 50_000;

/// The four workloads. Names are fixed; later issues cite them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    UpdateStorm,
    QueryMix,
    CityMix,
    ChurnDurable,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::UpdateStorm,
        Workload::QueryMix,
        Workload::CityMix,
        Workload::ChurnDurable,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::UpdateStorm => "update_storm",
            Workload::QueryMix => "query_mix",
            Workload::CityMix => "city_mix",
            Workload::ChurnDurable => "churn_durable",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// One line on why the workload exists (also in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::UpdateStorm => {
                "UDP, 20k objects, 100% in-leaf updates, 32 in flight per generator: codec, UDP syscalls, shard loop, slab and index update do all the work; CPU-bound"
            }
            Workload::QueryMix => {
                "UDP, caches off, 20k static objects, pos/range/NN 50/35/15 entered locally and remotely, one outstanding: the read path, every answer checked against brute force"
            }
            Workload::CityMix => {
                "UDP, caches on, 200k objects (past L2), 80% 15 m walk updates with ~1% handovers beside 20% Zipf queries: the only write-beside-read and cache workload"
            }
            Workload::ChurnDurable => {
                "channel transport, durable visitor DB (OsFlush), register/3 updates/handover/deregister cycles over 20k residents: WAL, checkpoints and path maintenance dominate"
            }
        }
    }

    /// Resident objects registered during set-up.
    pub fn population(self, smoke: bool) -> usize {
        let full = match self {
            Workload::CityMix => 200_000,
            _ => 20_000,
        };
        if smoke {
            full / 10
        } else {
            full
        }
    }

    /// True for the workloads on the UDP runtime.
    pub fn is_udp(self) -> bool {
        self != Workload::ChurnDurable
    }

    /// True when the §6.5 caches are on.
    pub fn caches(self) -> bool {
        self == Workload::CityMix
    }

    /// Length of an in-leaf move (meters): a fixed 15 m on `city_mix`,
    /// up to 5 m elsewhere.
    pub fn step_m(self) -> f64 {
        match self {
            Workload::CityMix => 15.0,
            _ => 5.0,
        }
    }

    /// The kinds whose median latencies make up `p50_us`. Fixed per
    /// workload, so the metric never changes meaning between runs.
    pub fn p50_kinds(self) -> &'static [Kind] {
        match self {
            Workload::UpdateStorm => &[Kind::Update],
            Workload::QueryMix => &[Kind::Pos, Kind::Range, Kind::Nn],
            Workload::CityMix => &[
                Kind::Update,
                Kind::Handover,
                Kind::Pos,
                Kind::Range,
                Kind::Nn,
            ],
            Workload::ChurnDurable => &[Kind::Register, Kind::Update, Kind::Handover],
        }
    }

    /// The kinds whose tails make up `p95_us` (and that get a
    /// `<kind>_p99_us` row): those with thousands of samples per
    /// sub-window (handovers have hundreds).
    pub fn tail_kinds(self) -> &'static [Kind] {
        match self {
            Workload::UpdateStorm => &[Kind::Update],
            Workload::QueryMix => &[Kind::Pos, Kind::Range, Kind::Nn],
            Workload::CityMix => &[Kind::Update, Kind::Pos, Kind::Range, Kind::Nn],
            Workload::ChurnDurable => &[Kind::Register, Kind::Update],
        }
    }
}

/// The operation kinds latencies are kept for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    Update,
    Handover,
    Register,
    Pos,
    Range,
    Nn,
}

impl Kind {
    pub const ALL: [Kind; 6] = [
        Kind::Update,
        Kind::Handover,
        Kind::Register,
        Kind::Pos,
        Kind::Range,
        Kind::Nn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Update => "update",
            Kind::Handover => "handover",
            Kind::Register => "register",
            Kind::Pos => "pos",
            Kind::Range => "range",
            Kind::Nn => "nn",
        }
    }
}

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the catalogue.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// End-to-end metrics. The bounds are the widest the driver's contract
/// allows for the timings: this sandbox's raw CPU speed varies by ± 12 %
/// from one half-second to the next, and ten seeds spread by up to 10 %
/// (README, "Why 25 %"). Every one is defined, and never zero, on every
/// workload — the driver judges each workload × metric pair — so the
/// per-kind latencies of the issue's list sit in [`PER_LAYER`] under
/// their original names and reach the gate through `p50_us`/`p95_us`,
/// the geometric means over the kinds a workload issues. The gated tail
/// is the 95th percentile: with four runnable threads on two cores the
/// 99th is the scheduler's time slice and spreads half as much again.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("ops_per_s", "1/s", Better::Higher, 0.25),
    e2e("p50_us", "us", Better::Lower, 0.25),
    e2e("p95_us", "us", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.10),
];

/// Per-layer metrics (layer = prefix = module name), plus the per-kind
/// client latencies and `failed_frac` of the real run.
pub const PER_LAYER: [MetricDef; 107] = [
    // Real run, per operation kind (absent kinds read 0 in the JSON
    // line and are left out of the printed table).
    lo("failed_frac", "frac"),
    lo("update_p50_us", "us"),
    lo("update_p99_us", "us"),
    lo("handover_p50_us", "us"),
    lo("register_p50_us", "us"),
    lo("register_p99_us", "us"),
    lo("pos_p50_us", "us"),
    lo("pos_p99_us", "us"),
    lo("range_p50_us", "us"),
    lo("range_p99_us", "us"),
    lo("nn_p50_us", "us"),
    lo("nn_p99_us", "us"),
    // proto
    lo("proto.encode_ns_per_msg", "ns"),
    lo("proto.decode_ns_per_msg", "ns"),
    lo("proto.bytes_per_msg", "B"),
    // net
    lo("net.udp_send_ns_per_msg", "ns"),
    lo("net.udp_recv_ns_per_msg", "ns"),
    lo("net.udp_echo_rtt_us", "us"),
    lo("net.chan_send_ns_per_msg", "ns"),
    lo("net.chan_hop_us", "us"),
    lo("net.datagrams_per_op", "count"),
    // runtime
    lo("runtime.sut_cpu_us_per_op", "us"),
    lo("runtime.shard_busy_frac", "frac"),
    lo("runtime.inbox_shed", "count"),
    lo("runtime.residual_us", "us"),
    lo("runtime.stall_max_ms", "ms"),
    // node, per operation kind
    lo("node.handle_us_per_update", "us"),
    lo("node.handle_us_per_handover", "us"),
    lo("node.handle_us_per_register", "us"),
    lo("node.handle_us_per_pos", "us"),
    lo("node.handle_us_per_range", "us"),
    lo("node.handle_us_per_nn", "us"),
    lo("node.msgs_per_update", "count"),
    lo("node.msgs_per_handover", "count"),
    lo("node.msgs_per_register", "count"),
    lo("node.msgs_per_pos", "count"),
    lo("node.msgs_per_range", "count"),
    lo("node.msgs_per_nn", "count"),
    lo("node.hops_per_update", "count"),
    lo("node.hops_per_handover", "count"),
    lo("node.hops_per_register", "count"),
    lo("node.hops_per_pos", "count"),
    lo("node.hops_per_range", "count"),
    lo("node.hops_per_nn", "count"),
    lo("node.allocs_per_update", "count"),
    lo("node.allocs_per_handover", "count"),
    lo("node.allocs_per_register", "count"),
    lo("node.allocs_per_pos", "count"),
    lo("node.allocs_per_range", "count"),
    lo("node.allocs_per_nn", "count"),
    // node, per handler
    lo("node.handle_ns.update", "ns"),
    lo("node.handle_ns.registerReq", "ns"),
    lo("node.handle_ns.createPath", "ns"),
    lo("node.handle_ns.handoverReq", "ns"),
    lo("node.handle_ns.posQueryReq", "ns"),
    lo("node.handle_ns.posQueryFwd", "ns"),
    lo("node.handle_ns.rangeQueryReq", "ns"),
    lo("node.handle_ns.rangeQueryFwd", "ns"),
    lo("node.handle_ns.rangeQuerySubRes", "ns"),
    lo("node.handle_ns.neighborQueryReq", "ns"),
    lo("node.handle_ns.neighborQueryFwd", "ns"),
    lo("node.handle_ns.neighborQuerySubRes", "ns"),
    lo("node.handle_ns.tick", "ns"),
    lo("node.nn_remote_us", "us"),
    // cache
    hi("cache.position_hit_frac", "frac"),
    hi("cache.agent_hit_frac", "frac"),
    hi("cache.area_hit_frac", "frac"),
    hi("cache.answers_frac", "frac"),
    // sighting
    lo("sighting.upsert_move_ns", "ns"),
    lo("sighting.insert_ns", "ns"),
    lo("sighting.get_ns", "ns"),
    lo("sighting.range_us", "us"),
    lo("sighting.nearest_us", "us"),
    lo("sighting.expire_ns_per_entry", "ns"),
    // spatial
    lo("spatial.quadtree.insert_ns", "ns"),
    lo("spatial.quadtree.update_ns", "ns"),
    lo("spatial.quadtree.range_us", "us"),
    lo("spatial.quadtree.nearest_us", "us"),
    lo("spatial.rtree.insert_ns", "ns"),
    lo("spatial.rtree.update_ns", "ns"),
    lo("spatial.rtree.range_us", "us"),
    lo("spatial.rtree.nearest_us", "us"),
    lo("spatial.grid.insert_ns", "ns"),
    lo("spatial.grid.update_ns", "ns"),
    lo("spatial.grid.range_us", "us"),
    lo("spatial.grid.nearest_us", "us"),
    // visitor / storage
    lo("visitor.apply_volatile_ns", "ns"),
    lo("visitor.apply_osflush_ns", "ns"),
    lo("visitor.apply_always_us", "us"),
    lo("storage.wal_bytes_per_register", "B"),
    lo("storage.wal_bytes_per_handover", "B"),
    lo("storage.checkpoints", "count"),
    lo("storage.checkpoint_ms", "ms"),
    lo("storage.reopen_ms", "ms"),
    lo("storage.disk_bytes_per_live_record", "B"),
    // geo
    lo("geo.overlap_ns", "ns"),
    // loadgen
    lo("loadgen.cpu_us_per_op", "us"),
    lo("loadgen.gen_ns_per_op", "ns"),
    lo("loadgen.oracle_ns_per_op", "ns"),
    // ledger: shares of runtime.sut_cpu_us_per_op
    lo("ledger.proto_frac", "frac"),
    lo("ledger.net_frac", "frac"),
    lo("ledger.node_frac", "frac"),
    lo("ledger.sighting_frac", "frac"),
    lo("ledger.spatial_frac", "frac"),
    lo("ledger.visitor_frac", "frac"),
    lo("ledger.residual_frac", "frac"),
    // the trace itself
    lo("trace.overhead_frac", "frac"),
];

/// Message labels with a `node.handle_ns.<label>` row.
pub const HANDLER_LABELS: [&str; 13] = [
    "update",
    "registerReq",
    "createPath",
    "handoverReq",
    "posQueryReq",
    "posQueryFwd",
    "rangeQueryReq",
    "rangeQueryFwd",
    "rangeQuerySubRes",
    "neighborQueryReq",
    "neighborQueryFwd",
    "neighborQuerySubRes",
    "tick",
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sut::Json;

    fn text(j: &Json, key: &str) -> String {
        j.get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("missing {key}"))
            .to_string()
    }

    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
            .expect("BENCHMARK.json parses");

        let workloads = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads");
        assert_eq!(workloads.len(), Workload::ALL.len());
        for (j, w) in workloads.iter().zip(Workload::ALL) {
            assert_eq!(text(j, "name"), w.name());
            assert_eq!(text(j, "why"), w.why());
            assert!(w.why().len() <= 200, "why of {} too long", w.name());
        }

        let check = |key: &str, defs: &[MetricDef]| {
            let listed = doc.get(key).and_then(Json::as_array).expect(key);
            assert_eq!(listed.len(), defs.len(), "{key} length");
            for (j, d) in listed.iter().zip(defs) {
                assert_eq!(text(j, "name"), d.name);
                assert_eq!(text(j, "unit"), d.unit, "{}", d.name);
                assert_eq!(text(j, "better"), d.better.as_str(), "{}", d.name);
                assert_eq!(j.get("bound").and_then(Json::as_f64), d.bound, "{}", d.name);
            }
        };
        check("end_to_end", &END_TO_END);
        check("per_layer", &PER_LAYER);
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|d| d.name)
            .collect();
        for n in &names {
            assert!(
                n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric(),
                "{n}"
            );
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate metric name");
    }

    #[test]
    fn every_handler_label_has_a_row() {
        for label in HANDLER_LABELS {
            let name = format!("node.handle_ns.{label}");
            assert!(PER_LAYER.iter().any(|d| d.name == name), "{name}");
        }
    }
}
