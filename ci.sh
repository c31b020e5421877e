#!/usr/bin/env bash
# CI gate for the hiloc workspace.
#
# Everything runs with --offline: the workspace has a zero-external-
# dependency policy (see README.md), enforced — along with the
# determinism, wall-clock, hot-path, and HLC-order invariants — by
# the hiloc-lint static analyzer, which gates everything below. The old
# standalone awk manifest guard lives on as hiloc-lint's `manifest`
# rule (crates/lint/src/rules/manifest.rs), which also handles `path`
# appearing after `version` in a dependency table.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> hiloc-lint (determinism / wallclock / durability / hot_path / manifest / hlc)"
cargo run -q --offline -p hiloc-lint -- check

echo "==> cargo build --release --offline"
cargo build --release --offline --workspace

echo "==> cargo test -q --offline (workspace)"
cargo test -q --offline --workspace

# Also covered by the workspace run above; repeated as a named gate so
# a chaos regression is unmissable in the log (the binary is already
# built — this re-run costs ~2 s).
echo "==> chaos scenario suite (fixed seeds, bounded virtual time)"
cargo test -q --offline -p hiloc-sim --test chaos_scenarios

echo "==> churn scenario suite (reconfiguration under faults)"
cargo test -q --offline -p hiloc-sim --test churn_scenarios
cargo test -q --offline -p hiloc-core --test reconfig

# Generative chaos over the one plan type (`ScenarioSpec`: generated,
# validated, shrunk, printed, parsed, replayed and run as one type): a
# fixed-seed batch of 64 generated plans (32 with the §6.5 caches off,
# 32 on under bounded-staleness semantics), all oracle-checked, plus the
# corpus of shrunk reproducers from bugs the fuzzer has already found.
# Named: a failing hand-written plan prints a replay line that parses
# back to it, and the DSL refuses out-of-range fault values instead of
# leaving them to panic later. Fixed seeds keep the gate bit-for-bit
# deterministic and CI time bounded; HILOC_FUZZ_CASES scales local runs.
echo "==> fuzz gate (one plan type: generated plans, caches off+on, replay lines, shrunk-reproducer corpus)"
cargo test -q --offline -p hiloc-sim --test fuzz_scenarios
cargo test -q --offline -p hiloc-sim --test fuzz_scenarios -- --exact \
    a_failing_hand_written_plan_prints_its_replay_line dsl_rejects_malformed_input
cargo test -q --offline -p hiloc-sim --test fuzz_regressions

# The replication chaos gate: fixed-seed generated scenarios with the
# replication subsystem deployed (warm standbys streaming deltas, k=2
# leaf replica rings) and the generator biased at the new verbs —
# root/standby crashes and PromoteStandby. Every warm promotion is
# oracle-checked against the stream's durably-acked watermark, and the
# end-to-end replication + replica-WAL torn-tail suites ride along.
echo "==> replication gate (standby streams, promotions, replica rings)"
cargo test -q --offline -p hiloc-sim --test fuzz_replication
cargo test -q --offline -p hiloc-core --test replication
cargo test -q --offline -p hiloc-core --test replica_torn_tail

# The storage engine on its own: WAL torn tails at every byte offset,
# snapshot cuts at every offset and bit flips, a paged-layout store
# refused by name, and the model and power-loss properties.
echo "==> storage gate (torn tails, snapshot cuts and flips, model + power-loss properties)"
cargo test -q --offline -p hiloc-storage

# Bytes per tracked object: the quadtree node, slab slot and forward
# value sizes and the per-object estimates at 12 500 objects (≤ 180 B
# per sighting, ≤ 45 B per forward record), the node arena bounded
# under a 15 m random walk, a 100 000-deep quadtree queried on a 2 MiB
# stack (walks are loops, not recursion), and the split visitor table
# against one reference table.
echo "==> bytes-per-object gate (node/slot/forward ceilings, bounded arena, deep-quadtree walks, split visitor table)"
cargo test -q --offline -p hiloc-spatial --lib -- node_fits_in_96_bytes arena_stays_bounded_under_a_15_m_random_walk \
    deep_chain_queries_do_not_overflow_a_2_mib_stack chain_builder_matches_plain_inserts
cargo test -q --offline -p hiloc-storage --lib -- bytes_per_object_stay_under_180
cargo test -q --offline -p hiloc-core --lib -- forward_records_cost_at_most_45_bytes
cargo test -q --offline -p hiloc-core --test visitor_prop

# The query path: the distributed range/NN/pos answers against the
# brute-force semantics (reqOverlap ½ and 1 drawn on purpose), the
# geometry kernels (exact circle∩rect at both ends), the spatial
# indexes against the naive oracle (with the NN filter-call guard) and
# the entry server's one gather: duplicated and reordered sub-results,
# deadlines (an escalated NN round, the cache-direct range retry, range
# before NN in one tick) and client corr ids disjoint from servers'.
echo "==> query path gate (semantics oracle, geometry, index conformance, gathers, corr namespaces)"
cargo test -q --offline --test semantics_prop
cargo test -q --offline -p hiloc-geo
cargo test -q --offline -p hiloc-spatial --test conformance
cargo test -q --offline -p hiloc-core --test query_gather
cargo test -q --offline -p hiloc-core --test query_gather -- --exact \
    nn_gather_that_escalates_then_times_out_answers_partially_with_the_client_corr \
    cache_direct_range_scatter_that_times_out_rescatters_through_the_hierarchy_once \
    gathers_due_in_one_tick_answer_range_before_nn_in_corr_order
cargo test -q --offline -p hiloc-core --lib -- --exact \
    runtime::client::tests::client_corr_ids_never_collide_with_server_corr_ids

# The real-runtime fuzz gate: the simulator fuzzer's own plans (one verb
# set, one generator, one DSL, one executor) run against the *sharded
# threaded* and *UDP* deployments — real threads, real sockets, durable
# stores in a scratch directory. Fixed generated seeds cover durable
# crash + restart (nobody re-registered), power loss, checkpoint-then-
# power-loss cuts, partition + heal, and an overload seed that must
# shed at a tiny bounded inbox; a fault-free and a faulted DSL line must
# end alike on sim, channels and UDP (three-way parity); every plan a
# runtime cannot run is rejected by name. Wall time stays bounded: fixed
# seeds, 200 ms per operation under chaos, the whole binary well under
# 60 s. The sharded runtime's chaos-surface unit suite and the
# client-API suite (every test on both transports) ride along, with the
# cases named in which a NaN position is dropped (a stray datagram on
# UDP, at the leaf on channels and the simulator) and the object it
# named still answers; the event-watch
# example runs on the threaded runtime, asserting the events it prints.
echo "==> real-runtime fuzz gate (threaded + UDP: durable restart / power loss / checkpoint cut / partition / shed / faulted parity)"
cargo test -q --offline -p hiloc-sim --test real_runtime_fuzz
cargo test -q --offline -p hiloc-core --test sharded_runtime
cargo test -q --offline -p hiloc-core --test runtime_transports
cargo test -q --offline -p hiloc-core --test runtime_transports -- --exact \
    udp_nan_update_is_a_stray_and_the_object_still_answers \
    channel_nan_update_is_dropped_and_the_object_still_answers \
    sim_nan_position_is_dropped_and_the_object_still_answers
cargo run -q --offline --example event_alerts

# Shard placement: the one table (`ShardSpec::placement`) every
# transport wires its shards from. Its unit tests: every server placed,
# subtrees kept whole, deterministic, one shard maps everything to 0,
# more shards than level-1 subtrees move the cut one level down. Then
# the exact count of server→server envelopes that cross a shard
# (`cross_shard_sends`), on channels and on UDP, over a root + 4 + 16
# tree with 2 shards: 0 for a handover between sibling leaves, a
# position query entered at the agent's sibling and path creation up
# to the mid level; only root hops cross between quadrants.
echo "==> shard placement gate (placement unit tests, cross-shard counts on channels + UDP)"
cargo test -q --offline -p hiloc-core --lib -- runtime::sharded::tests
cargo test -q --offline -p hiloc-core --test sharded_runtime -- --exact \
    channel_cross_shard_sends_stay_inside_subtrees udp_cross_shard_sends_stay_inside_subtrees

echo "==> cargo clippy -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

# The paper's Table 1 over the leaf's sighting database at 5 000
# objects (well under a second); the run asserts that the range rows'
# hits grow with the square. Then the macro benchmark at CI scale: 20k
# objects over 21 servers through the full register/update/query
# pipeline, cache ablation and the storage-recovery phase included.
# The v2 validator checks the update-accounting identity, the cache
# counters, the message-count gates (caches-on msgs_per_query below
# caches-off, and no level consuming more messages with caches on) and
# the checkpointed reopen beating full-log replay, even at smoke scale.
echo "==> bench smoke: experiments table1 --quick, experiments macro --json --quick + validation"
./target/release/experiments table1 --quick > /dev/null
./target/release/experiments macro --json --quick --out target/BENCH_macro_smoke.json > /dev/null
./target/release/experiments validate-bench target/BENCH_macro_smoke.json

# The committed full-scale baseline must be a v2 report and pass the
# same count gates; for non-quick reports the validator also enforces
# the committed scale floor and the acceptance ratios (warm standby
# adoption >= 10x faster than the cold pathSync rebuild; checkpointed
# recovery beats full-log replay and stays history-independent across
# a doubled log).
echo "==> committed BENCH_macro.json validates (v2: message counts, failover_blackout_us, recovery_us)"
./target/release/experiments validate-bench BENCH_macro.json

# The repo benchmark (BENCHMARK.json) is its own package outside the
# workspace and compiles against the runtime's public names
# (benchmark/src/sut.rs): a rename that breaks them must fail here, not
# in the benchmark pipeline. Smoke-runs all four workloads and their
# traces, the package's tests and clippy.
echo "==> benchmark package (builds against the runtime names; smoke + tests + clippy)"
bash benchmark/check.sh

echo "CI green."
