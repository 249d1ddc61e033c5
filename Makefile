.PHONY: all build test fmt smoke-serve smoke-pool smoke-chaos smoke-cluster smoke-flight smoke-paged smoke-tune smoke-migrate smoke-regress smoke-trace ci clean

all: build

build:
	dune build

test:
	dune runtest

fmt:
	dune build @fmt

# Short serving smoke: 2 s of synthetic load through the continuous-
# batching scheduler, then the bench JSON is parsed back (the bench
# binary self-validates it and exits non-zero on malformed output).
smoke-serve: build
	dune exec bench/main.exe -- --serve --serve-duration 2 --json /tmp/bench.json
	@test -s /tmp/bench.json && echo "smoke-serve: /tmp/bench.json ok"

# Dispatch-overhead smoke (~2 s): persistent-pool vs spawn-per-call
# microbenchmark. The bench self-validates its JSON with
# Telemetry.Json_check and exits non-zero if the pool never reused a
# worker (which would mean every region silently fell back to spawning).
smoke-pool: build
	dune exec bench/main.exe -- dispatch --json /tmp/bench-pool.json
	@test -s /tmp/bench-pool.json && echo "smoke-pool: /tmp/bench-pool.json ok"

# Chaos smoke (~2 s): a lone scheduler (a 1-replica fleet) under the
# default seeded fault plan (every fault-site class fires). The bench binary exits non-zero
# if any liveness/ledger/bit-identity invariant is violated, if no
# fault was actually injected, or if the bench JSON fails Json_check.
smoke-chaos: build
	dune exec bench/main.exe -- --chaos --json /tmp/bench-chaos.json
	@test -s /tmp/bench-chaos.json && echo "smoke-chaos: /tmp/bench-chaos.json ok"

# Cluster smoke (~5 s): a short multi-replica chaos run — 3 sharded
# replicas behind the router, replica 1 quarantined mid-run — followed
# by a disaggregated pass, then 1 s of real-time serving on 2 shards.
# The bench binary exits non-zero on any router-conservation violation
# (request lost/double-served, pool not drained fleet-wide, double KV
# release, identity mismatch); the greps insist the fleet SLO-burn
# counters actually made it into the JSON and that the sharded serve
# completed requests.
smoke-cluster: build
	dune exec bench/main.exe -- --chaos --replicas 3 --shards 2 --json /tmp/bench-cluster.json
	@grep -q '"fleet_slo_ttft_breaches"' /tmp/bench-cluster.json \
	  && grep -q '"fleet_slo_deadline_breaches"' /tmp/bench-cluster.json \
	  || { echo "smoke-cluster: fleet SLO counters missing from JSON"; exit 1; }
	dune exec bench/main.exe -- --chaos --replicas 2 --disaggregate --chaos-requests 16
	dune exec bench/main.exe -- --serve --shards 2 --serve-duration 1 --json /tmp/bench-shards.json
	@grep -q '"completed":' /tmp/bench-shards.json \
	  || { echo "smoke-cluster: completed missing from sharded serve JSON"; exit 1; }
	@grep -q '"completed":0[,}]' /tmp/bench-shards.json \
	  && { echo "smoke-cluster: sharded serve completed no request"; exit 1; } \
	  || true
	@echo "smoke-cluster: /tmp/bench-cluster.json ok"

# Flight-recorder smoke (~2 s): the chaos run again, this time with the
# recorder's dump directory armed. The default fault plan makes workers
# die, so the hardened failure paths must snapshot the per-thread rings
# into post-mortem dumps; `recorder check --require-fault` then insists
# every dump is well-formed trace JSON and at least one captured an
# injected-fault event.
smoke-flight: build
	rm -rf /tmp/parlooper-flight && mkdir -p /tmp/parlooper-flight
	PARLOOPER_DUMP_DIR=/tmp/parlooper-flight dune exec bench/main.exe -- --chaos --chaos-requests 12
	dune exec bin/parlooper_cli.exe -- recorder check /tmp/parlooper-flight --require-fault
	@echo "smoke-flight: /tmp/parlooper-flight dumps ok"

# Paged-KV smoke (~5 s): the "paged" experiment measures max concurrent
# width at a fixed arena and exits non-zero unless paged+prefix beats
# contiguous strictly and the trie recorded hits; then a paged serve run
# with speculative decoding and a shared system prompt (the grep insists
# prefix sharing actually happened — kv_prefix_hits lands in the JSON
# non-zero), and finally a paged chaos pass which exits non-zero on any
# leaked block (free-list + trie pins must equal the arena) or identity
# mismatch.
smoke-paged: build
	dune exec bench/main.exe -- paged --serve --paged --block-size 16 --num-blocks 128 --spec-decode 4 --sys-prompt 32 --serve-duration 2 --json /tmp/bench-paged.json
	@grep -q '"kv_prefix_hits":0[,}]' /tmp/bench-paged.json \
	  && { echo "smoke-paged: no prefix hits recorded in serve run"; exit 1; } \
	  || true
	@grep -q '"kv_prefix_hits"' /tmp/bench-paged.json \
	  || { echo "smoke-paged: kv_prefix_hits missing from JSON"; exit 1; }
	dune exec bench/main.exe -- --chaos --paged --spec-decode 4 --sys-prompt 32
	@echo "smoke-paged: /tmp/bench-paged.json ok"

# Failover smoke (~3 s): a 3-replica chaos run where replica 1 is
# hard-killed mid-run with sessions mid-decode, so its live KV state
# must migrate to the survivors (the quarantine drain path is not
# enough). The bench binary exits non-zero on any conservation
# violation, if the killed replica's ledger moved after the kill, if a
# migration vanished in transit, or if no migration completed (a run
# that proves nothing about failover); the greps insist the migration
# counters landed in the JSON and completed is non-zero. A paged pass
# with a shared prefix exercises the trie re-attach import path.
smoke-migrate: build
	dune exec bench/main.exe -- --chaos --replicas 3 --hard-kill --json /tmp/bench-migrate.json
	@grep -q '"migrations_completed"' /tmp/bench-migrate.json \
	  || { echo "smoke-migrate: migrations_completed missing from JSON"; exit 1; }
	@grep -q '"migrations_completed":0[,}]' /tmp/bench-migrate.json \
	  && { echo "smoke-migrate: no migration completed"; exit 1; } || true
	dune exec bench/main.exe -- --chaos --replicas 3 --hard-kill --paged --sys-prompt 12
	@echo "smoke-migrate: /tmp/bench-migrate.json ok"

# Tuner smoke (~5 s): first the "tune" experiment — exhaustive vs
# model-guided search on two GEMM shapes; the bench binary exits
# non-zero unless beam search matches the exhaustive top-1 within 2%
# while scoring under 10% of the spec space. Then a short serve run
# with the online per-shape spec cache on; the greps insist the
# tuner.cache counters made it into the bench JSON and that the cache
# actually served hits, tuned in the background, and hot-swapped at
# least one spec (all zero would mean the resolver hook never fired).
smoke-tune: build
	dune exec bench/main.exe -- tune --json /tmp/bench-tune.json
	dune exec bench/main.exe -- --serve --serve-duration 2 --online-tune --json /tmp/bench-tune-serve.json
	@for c in hits misses swaps tunes; do \
	  grep -q "\"tuner_cache_$$c\"" /tmp/bench-tune-serve.json \
	    || { echo "smoke-tune: tuner_cache_$$c missing from JSON"; exit 1; }; \
	  grep -q "\"tuner_cache_$$c\":0[,}]" /tmp/bench-tune-serve.json \
	    && { echo "smoke-tune: tuner_cache_$$c is zero"; exit 1; } || true; \
	done
	@echo "smoke-tune: /tmp/bench-tune.json ok"

# Perf-regression smoke (~12 s): rerun the recorder microbench, the
# measured GEMM points (native BRGEMM, 1 and 2 threads), the serving
# speed of Llm.tiny (a 128-token prefill and a decode step, 1 and 2
# threads) and the single-replica chaos run, then gate against the
# committed baseline
# (bench/baselines/smoke.json), matching entries by name and config,
# with per-metric tolerances — exact match on correctness counters
# (violations, mismatched, numeric_errors), a 1.5x band on timing and
# rate metrics (so a GEMM that fell back to a kernel many times slower
# fails), a 1.1x band on allocation counts (_words, which are
# deterministic), at most 5 points over the baseline (or over 0, if it
# is negative) on signed overheads (_pct), presence for the rest. The
# recorder bench itself also hard-fails if trace-lane emits cost more
# than 10% over dense-lane emits. Regenerate the baseline on an
# intentional perf change with:
#   dune exec bench/main.exe -- recorder gemm llm --chaos --json bench/baselines/smoke.json
smoke-regress: build
	dune exec bench/main.exe -- recorder gemm llm --chaos --compare bench/baselines/smoke.json
	@echo "smoke-regress: baseline bench/baselines/smoke.json held"

# Causal-tracing smoke (~3 s): a 3-replica disaggregated serve under
# tight deadlines with the tail sampler armed, then the worst retained
# TTFT exemplar must resolve to a complete causal timeline, the worst
# retained TPOT exemplar must resolve to a complete timeline that
# reaches a decode span (TPOT exemplars are decode latencies; under the
# 30 ms deadline the worst TTFT is usually a request cancelled before
# its first decode), and every dumped trace JSON must validate as a
# Chrome trace (recorder check).
smoke-trace: build
	rm -rf /tmp/parlooper-traces
	dune exec bin/parlooper_cli.exe -- serve --rate 60 --duration 2 --deadline-ms 30 --replicas 3 --disaggregate --trace-dir /tmp/parlooper-traces --trace-sample 8
	dune exec bin/parlooper_cli.exe -- trace worst --metric ttft --dir /tmp/parlooper-traces > /tmp/parlooper-trace-worst.txt
	@grep -q "trace_end" /tmp/parlooper-trace-worst.txt \
	  || { echo "smoke-trace: worst trace has no terminal span"; exit 1; }
	dune exec bin/parlooper_cli.exe -- trace worst --metric tpot --dir /tmp/parlooper-traces --require-decode > /tmp/parlooper-trace-worst-tpot.txt
	@grep -q "trace_end" /tmp/parlooper-trace-worst-tpot.txt \
	  || { echo "smoke-trace: worst TPOT trace has no terminal span"; exit 1; }
	dune exec bin/parlooper_cli.exe -- recorder check /tmp/parlooper-traces
	@echo "smoke-trace: /tmp/parlooper-traces ok"

# Single gate run by CI and before every commit: formatting must be
# canonical (dune files; ocamlformat is not in the pinned toolchain),
# everything must build, the full tier-1 suite must pass, the serving
# and pooled-dispatch paths must produce valid machine-readable output,
# a multi-replica chaos run with a quarantined replica must hold the
# router conservation invariants, a chaos run with the recorder
# armed must produce a validating post-mortem flight dump, and the
# paged-KV path must beat contiguous on width, share prefixes, and
# survive chaos without leaking a block, a hard-killed replica's live
# sessions must migrate and finish bit-identically on the survivors,
# and the model-guided tuner must match exhaustive search cheaply while
# the online spec cache demonstrably serves, tunes, and hot-swaps in
# the serve path, the committed perf baseline must hold within its
# per-metric tolerances, and a tail-sampled serve run must yield a
# complete causal timeline for its worst retained TTFT exemplar and a
# decode-reaching one for its worst retained TPOT exemplar.
ci: fmt build test smoke-serve smoke-pool smoke-chaos smoke-cluster smoke-flight smoke-paged smoke-migrate smoke-tune smoke-regress smoke-trace

clean:
	dune clean
