#!/usr/bin/env sh
# Offline CI gate for vectordb-rs.
#
# The workspace has zero external dependencies, so everything here must
# succeed with no network. CARGO_NET_OFFLINE makes any accidental
# dependency regression fail loudly instead of silently fetching.
set -eu
cd "$(dirname "$0")"
export CARGO_NET_OFFLINE=true

echo "== lint: rustfmt =="
cargo fmt --all --check

echo "== lint: clippy (warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier-1: release build =="
cargo build --release

echo "== tier-1: root package tests =="
cargo test -q --release

echo "== workspace: full test suite =="
cargo test -q --release --workspace

echo "== crash-fault injection: durability sweep =="
# The failpoint harness crashes every durable step of
# insert/delete/merge/checkpoint and requires recovery to land on
# exactly the pre- or post-op state (DESIGN.md §9). Debug profile on
# purpose: Collection::len's debug_assert cross-checks the shadowed-row
# counter against a full rescan on every call.
cargo test -q --test crash_recovery
cargo test -q -p vdb-storage --test wal_torn_tail

echo "== online maintenance: index mutability + background-merge stress =="
# Mixed insert/delete/search stress: per-family tombstone correctness
# and post-repair recall of the index library's MutableIndex capability
# (the collection never patches a published index in place; it only
# rebuilds and swaps), plus 20+ background rebuilds published
# atomically under continuously-asserting concurrent searchers with
# bounded-buffer (BUSY) backpressure on the writer (DESIGN.md §11), and
# an overwrite that lands mid-merge with an unchanged vector survives the
# merge in memory and after recovery
# (overwrite_during_background_merge_survives_it).
# Release profile: the concurrency test needs real rebuild throughput.
cargo test -q --release --test online_maintenance

echo "== serving layer: loopback server integration =="
# Real sockets on 127.0.0.1: N concurrent clients get correct results,
# every client request (VQL and plain writes included) runs under the
# database's shared lock, so an INSERT completes while a reader holds
# the database, and only replica applies/installs take it exclusively,
# served hits are bit-identical to in-process search, overload past
# max_queue is answered BUSY (not queued), the bulk lane sheds before
# interactive search, per-collection token buckets throttle, a
# ClusterClient answers for a killed primary from its replica and drops
# a shard with no live copy promptly (the killed_primary_* and
# killed_shard_* tests), and graceful shutdown drains every in-flight
# request (DESIGN.md §10, §13).
# The protocol suite additionally rejects torn/oversized/CRC-flipped
# frames at every byte offset against a live server and reaps a
# 200-connection slow-loris trickle without blocking other clients.
cargo test -q --release --test serving
cargo test -q --release -p vdb-server --test protocol_robustness

echo "== hostile requests: bounded allocation and recursion =="
# One well-formed request must never take the server down for everyone:
# k = u32::MAX on OP_SEARCH, OP_SEARCH_BATCH, OP_HYBRID_SEARCH and OP_VQL
# gets every live row in exact order (no reservation past the rows a
# search can return), 2,000 nested parentheses and 10,000 chained NOTs
# get a positioned parse error (vql::MAX_PREDICATE_DEPTH), and a ping
# answers after each. Debug too: its deeper frames are the stack's
# worst case.
cargo test -q --release --test hostile_requests
cargo test -q --test hostile_requests

echo "== replication: torn-stream sweep, bootstrap convergence, failover drill =="
# The replicated write path (DESIGN.md §14): the shipping codec survives
# truncation at every byte and reports every flipped byte; a replica
# bootstrapping WHILE the primary takes writes converges bit-identically
# (snapshot + WAL tail + catch-up); and the kill-primary drill promotes
# the replica via a manifest bump and proves zero lost acknowledged
# writes. The retry-restriction regression test (MaybeApplied instead
# of silent double-apply) lives in the vdb-server lib tests covered
# above.
cargo test -q --release -p vdb-storage --test repl_stream_torn
cargo test -q --release --test replication
# Format goldens (tests/golden/formats.txt): committed bytes of the WAL,
# the shipped stream, snapshots, the manifest, the text index, the HNSW
# image and every sample wire message. A failure means a one-sided format
# change: an encoder or a decoder no longer matches bytes already on disk
# or in flight.
cargo test -q --release --test format_goldens
cargo test -q --release -p vdb-server --lib sample_messages_match_the_format_goldens

echo "== kernel equivalence with SIMD force-disabled =="
# kernel_sets() ignores the escape hatch, so the SIMD-vs-scalar checks
# still run; this pass proves the *dispatched* entry points behave when
# pinned to the portable fallback.
VDB_FORCE_SCALAR=1 cargo test -q --release -p vdb-core --test kernel_equivalence
# Single-pair, x4 and batch agree bit for bit; the Metric-layer half of
# that check runs through the dispatched kernels, so it needs this pass
# to cover the fallback.
VDB_FORCE_SCALAR=1 cargo test -q --release --test properties
# The IVF list scans (distance gather, SQ and ADC kernels) on the fallback.
VDB_FORCE_SCALAR=1 cargo test -q --release -p vdb-index-table
# Every family's answers match the goldens recorded for the scalar backend.
VDB_FORCE_SCALAR=1 cargo test -q --release --test answer_goldens
# Collection answers (main index + update buffer, every strategy) match
# the front-door goldens recorded for both backends.
cargo test -q --release --test front_goldens
VDB_FORCE_SCALAR=1 cargo test -q --release --test front_goldens
# The batched graph builders are thread-count invariant on the fallback too.
VDB_FORCE_SCALAR=1 cargo test -q --release --test parallel_build

echo "== disk pipeline: equivalence under every lever combination =="
# The disk-serving pipeline (DESIGN.md §12) must be invisible to search
# results: the equivalence suite compares packed against identity layouts
# and cold against warm caches inside each test. The second pass pins the
# batched rescoring kernels to the scalar fallback.
cargo test -q --release --test disk_pipeline
VDB_FORCE_SCALAR=1 cargo test -q --release --test disk_pipeline
# DiskANN's navigation scorer (query terms through the ADC kernel plus
# per-node terms) against a direct residual ADC table, on the fallback.
VDB_FORCE_SCALAR=1 cargo test -q --release -p vdb-index-graph diskann
# The page cache under those indexes keeps one policy: on seeded traces
# of Zipf reads, sequential sweeps and pins at budgets from 0 to more
# than the file's pages, every access hits or misses exactly as a
# stamp-and-scan reference model of the SLRU, admission, ageing and pin
# rules does, and the final counters and resident counts are equal.
# Debug too: there the frame lists' invariants (list lengths sum to the
# resident frames, the protected list within its cap) are live
# debug_asserts on every access.
cargo test -q --release -p vdb-storage --test cache_policy
cargo test -q -p vdb-storage --test cache_policy

echo "== hybrid text + vector: fusion correctness, scalar kernels, merge modes =="
# The hybrid subsystem (DESIGN.md §15) must rank identically no matter
# which kernels or merge machinery sit underneath: the acceptance suite
# (BM25 vs naive reference, block-max skipping equivalence, predicate-
# respecting deterministic fusion, background-merge freshness,
# distributed fusion parity) runs plain and with SIMD pinned to the
# scalar fallback; the torn-snapshot sweep of the inverted index rides
# in crash_recovery above.
cargo test -q --release --test hybrid_text
VDB_FORCE_SCALAR=1 cargo test -q --release --test hybrid_text

echo "== benchmark: its own tests and a smoke run of every workload =="
# The repo benchmark (benchmark/, BENCHMARK.json) is a standalone crate
# with its own workspace: unit tests for its statistics, generator and
# comparison, then every workload at smoke scale through the real served
# life cycle. The smoke run fails on any failed correctness check
# (recall floors, live keys only, zero lost acknowledged writes).
cargo test -q --release --offline --manifest-path benchmark/Cargo.toml
cargo run -q --release --offline --manifest-path benchmark/Cargo.toml -- --smoke

echo "ci.sh: all green"
