#!/usr/bin/env sh
# Offline lint gate: formatting + clippy with warnings denied + a
# release build with warnings denied + tests + a telemetry schema smoke
# run + the differential checker. Everything here runs without network
# access (the workspace has no external dependencies), so it is usable
# as a pre-push hook or CI step in air-gapped environments.
#
#   tools/check.sh          # everything
#   tools/check.sh --fast   # fmt + clippy + no-globals only
#
# A per-stage timing summary is printed at the end.

set -eu

cd "$(dirname "$0")/.."

# --- per-stage timing -------------------------------------------------
# mark <name> closes the previous stage and opens <name>; POSIX sh, so
# timings accumulate in a string rather than an array (1 s resolution).
stage_times=""
stage_name=""
stage_start=0
mark() {
    now=$(date +%s)
    if [ -n "$stage_name" ]; then
        stage_times="${stage_times}${stage_name}:$((now - stage_start))\n"
    fi
    stage_name="${1:-}"
    stage_start=$now
}
summary() {
    mark ""
    printf '\nper-stage timing:\n'
    # shellcheck disable=SC2059 # stage_times embeds its own \n markers
    printf "$stage_times" | while IFS=: read -r name secs; do
        if [ -n "$name" ]; then
            printf '  %-28s %4ss\n' "$name" "$secs"
        fi
    done
}

mark fmt
echo "==> cargo fmt --check"
cargo fmt --check

mark clippy
echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

mark no-globals
echo "==> no process-global mutable state in the library crates"
# A thread-local, or a static lock, once-cell, Cell or atomic, is state
# one run leaves behind for the next. The one allowed hit is the
# process-wide trace cache in crates/sim/src/trace_cache.rs, which the
# benchmark's service API still decodes through. The checker and test
# files are out of scope (their counting allocators are per test).
globals=$(grep -rnE 'thread_local!|^\s*(pub(\([a-z]+\))?\s+)?static\s+(mut\s+)?[A-Za-z_0-9]+\s*:[^=]*(Mutex|RwLock|OnceLock|LazyLock|Cell|Atomic)' \
    crates/core/src crates/mem/src crates/prefetchers/src crates/sequitur/src \
    crates/service/src crates/sim/src crates/telemetry/src crates/trace/src || true)
cache_hits=$(printf '%s\n' "$globals" | grep -c '^crates/sim/src/trace_cache.rs:' || true)
if printf '%s\n' "$globals" | grep -v -e '^crates/sim/src/trace_cache.rs:' -e '^$' >/dev/null ||
    [ "$cache_hits" -gt 1 ]; then
    echo "process-global mutable state (only the trace cache's one instance is allowed):"
    printf '%s\n' "$globals"
    exit 1
fi

if [ "${1:-}" != "--fast" ]; then
    mark build-release
    echo "==> cargo build --release (deny warnings)"
    RUSTFLAGS="${RUSTFLAGS:-} -D warnings" cargo build --release --workspace

    mark test
    echo "==> cargo test"
    cargo test --workspace -q

    # Tests share a process per binary: a second pass on one thread
    # catches tests that only pass when a sibling's state is (or is not)
    # interleaved with theirs.
    mark test-one-thread
    echo "==> cargo test (one test thread)"
    cargo test --workspace -q -- --test-threads=1

    mark telemetry-smoke
    echo "==> telemetry schema smoke run"
    smoke_dir=$(mktemp -d)
    trap 'rm -rf "$smoke_dir"' EXIT
    cargo run --release -q -p domino-sim --bin report -- --smoke "$smoke_dir"
    if command -v python3 >/dev/null 2>&1; then
        python3 tools/validate_telemetry.py "$smoke_dir"
    else
        echo "    (python3 not found; skipping JSON schema validation)"
    fi

    mark bench-guard
    echo "==> bench regression guard (DOMINO_SKIP_BENCH_GUARD=1 to skip)"
    if [ "${DOMINO_SKIP_BENCH_GUARD:-0}" = "1" ]; then
        echo "    skipped (DOMINO_SKIP_BENCH_GUARD=1)"
    elif ! command -v python3 >/dev/null 2>&1; then
        echo "    (python3 not found; skipping bench comparison)"
    else
        bench_dir=$(mktemp -d)
        trap 'rm -rf "$smoke_dir" "${bench_dir:-}"' EXIT
        # Same scale and job count as the committed BENCH_sweep.json so
        # the per-figure events_per_sec columns are comparable.
        cargo run --release -q --example figures -- 20000 --jobs 1 "$bench_dir" \
            >/dev/null
        python3 tools/bench_guard.py BENCH_sweep.json "$bench_dir/BENCH_sweep.json"
    fi

    mark rivals-smoke
    echo "==> modern-rivals figure smoke"
    # The rivals head-to-head (STMS/Digram/Domino/Pangloss/Triangel) at a
    # reduced event count: the stage fails if any rival's cell panics,
    # and both post-Domino systems must appear in the rendered tables.
    rivals_out=$(mktemp)
    trap 'rm -rf "$smoke_dir" "${bench_dir:-}" "${rivals_out:-}"' EXIT
    cargo run --release -q --example rivals -- 6000 --jobs 2 >"$rivals_out"
    grep -q "Pangloss" "$rivals_out"
    grep -q "Triangel" "$rivals_out"

    mark trace-smoke
    echo "==> flight-recorder trace smoke run"
    trace_dir=$(mktemp -d)
    trap 'rm -rf "$smoke_dir" "${bench_dir:-}" "${rivals_out:-}" "$trace_dir"' EXIT
    cargo run --release -q -p domino-sim --bin explain -- --smoke "$trace_dir"
    cargo run --release -q -p domino-sim --bin explain -- "$trace_dir" --csv >/dev/null
    if command -v python3 >/dev/null 2>&1; then
        python3 tools/validate_trace.py "$trace_dir"
    else
        echo "    (python3 not found; skipping binary trace validation)"
    fi

    mark differential-check
    echo "==> differential checker smoke (DOMINO_SKIP_CHECK=1 to skip)"
    if [ "${DOMINO_SKIP_CHECK:-0}" = "1" ]; then
        echo "    skipped (DOMINO_SKIP_CHECK=1)"
    else
        check_dir=$(mktemp -d)
        trap 'rm -rf "$smoke_dir" "${bench_dir:-}" "${rivals_out:-}" "${trace_dir:-}" "$check_dir"' EXIT
        # Any oracle violation exits nonzero and fails the gate (set -e).
        # Reproducers go to the gitignored check-failures/ so a failing
        # run leaves its shrunk trace behind for replay.
        cargo run --release -q -p domino-check -- --smoke --out check-failures
        # Prove the shrink + reproducer machinery end to end (its
        # forced reproducer is disposable, so it goes to the tmp dir).
        cargo run --release -q -p domino-check -- --force-fail --out "$check_dir" \
            >/dev/null
    fi

    mark batched-parity
    echo "==> batch parity: results must not depend on the step size (DOMINO_SKIP_CHECK=1 to skip)"
    if [ "${DOMINO_SKIP_CHECK:-0}" = "1" ]; then
        echo "    skipped (DOMINO_SKIP_CHECK=1)"
    else
        # Every roster system, every generator family, batch 7 and 64:
        # each engine's reports must equal its one-event-step reports.
        cargo run --release -q -p domino-check -- --batch-parity \
            --events 1200 --out check-failures
        # Observed figures at batch 1 and at the default batch: tables,
        # telemetry JSON and flight-recorder traces must be identical.
        parity_dir=$(mktemp -d)
        trap 'rm -rf "$smoke_dir" "${bench_dir:-}" "${rivals_out:-}" "${trace_dir:-}" "${check_dir:-}" "$parity_dir"' EXIT
        for batch in 1 default; do
            out="$parity_dir/$batch"
            if [ "$batch" = 1 ]; then set_batch="--batch 1"; else set_batch=""; fi
            # shellcheck disable=SC2086 # set_batch is empty or two words
            if ! cargo run --release -q --example figures -- 20000 --jobs 2 \
                --epoch 5000 --trace 4096 $set_batch "$out" >"$out.txt" 2>"$out.err"; then
                cat "$out.err"
                exit 1
            fi
            (cd "$out" && ls telemetry_*.json TELEMETRY_sweep.json trace_*.bin) >"$out.list"
            # Each observed cell deposits once: a file on disk for every
            # run the aggregate lists and every trace the sweep wrote (a
            # cell deposited twice overwrites its first file).
            runs=$(sed -n 's/^  "runs": \([0-9]*\),$/\1/p' "$out/TELEMETRY_sweep.json")
            traced=$(sed -n 's/^wrote \([0-9]*\) flight-recorder traces.*/\1/p' "$out.err")
            jsons=$(grep -c '^telemetry_' "$out.list")
            bins=$(grep -c '^trace_' "$out.list")
            if [ "$jsons" != "$runs" ] || [ "$bins" != "$traced" ]; then
                echo "duplicate deposits at batch $batch: $jsons telemetry files" \
                    "for $runs runs, $bins trace files for $traced traces"
                exit 1
            fi
        done
        cmp "$parity_dir/1.txt" "$parity_dir/default.txt"
        cmp "$parity_dir/1.list" "$parity_dir/default.list"
        while read -r f; do
            cmp "$parity_dir/1/$f" "$parity_dir/default/$f"
        done <"$parity_dir/default.list"
        echo "    observed figures identical at batch 1 and the default" \
            "($(wc -l <"$parity_dir/default.list") files)"
        rm -rf "$parity_dir"
    fi

    mark stream-parity
    echo "==> streamed-vs-cached parity (DOMINO_SKIP_CHECK=1 to skip)"
    if [ "${DOMINO_SKIP_CHECK:-0}" = "1" ]; then
        echo "    skipped (DOMINO_SKIP_CHECK=1)"
    else
        # Every roster system, both engines, raw and Sequitur-compressed
        # DMNOTRC1 files: replay through the double-buffered file source
        # must be byte-identical to the cached-slice runs.
        cargo run --release -q -p domino-check -- --stream-parity \
            --events 800 --out check-failures
    fi

    mark bench-digests
    echo "==> benchmark result digests (DOMINO_SKIP_CHECK=1 to skip)"
    if [ "${DOMINO_SKIP_CHECK:-0}" = "1" ]; then
        echo "    skipped (DOMINO_SKIP_CHECK=1)"
    elif ! command -v python3 >/dev/null 2>&1; then
        echo "    (python3 not found; skipping benchmark digests)"
    else
        # benchmark/expected.json records each workload's result digest
        # at two seeds, so drift in simulated results fails here rather
        # than at benchmark time. The tests build into run.py's default
        # target directory, leaving benchmark/ untouched.
        CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$PWD/.bench_build}" \
            cargo test --release --offline -q --manifest-path benchmark/Cargo.toml
        for workload in timing-sweep stream-coverage service-tenants; do
            for seed in 42 20181; do
                result=$(python3 benchmark/run.py --workload "$workload" --seed "$seed" \
                    --seconds 1 --trace 0 | tail -n 1)
                case "$result" in
                    *'"correct": true'*) echo "    ok $workload seed $seed" ;;
                    *)
                        echo "    ERROR: $workload seed $seed: ${result:-no result}"
                        exit 1
                        ;;
                esac
            done
        done
    fi

    mark service-smoke
    echo "==> metadata service smoke (DOMINO_SKIP_SERVICE=1 to skip)"
    if [ "${DOMINO_SKIP_SERVICE:-0}" = "1" ]; then
        echo "    skipped (DOMINO_SKIP_SERVICE=1)"
    else
        # 1,000 concurrent Domino tenant streams through the sharded
        # service; the schema-versioned SLO report must validate.
        service_dir=$(mktemp -d)
        trap 'rm -rf "$smoke_dir" "${bench_dir:-}" "${rivals_out:-}" "${trace_dir:-}" "${check_dir:-}" "$service_dir"' EXIT
        cargo run --release -q -p domino-service --bin domino-serve -- \
            --smoke "$service_dir"
        if command -v python3 >/dev/null 2>&1; then
            python3 tools/validate_service.py "$service_dir/SERVICE_report.json"
        else
            echo "    (python3 not found; skipping service report validation)"
        fi
    fi

    mark obs-smoke
    echo "==> observability plane smoke (DOMINO_SKIP_OBS=1 to skip)"
    if [ "${DOMINO_SKIP_OBS:-0}" = "1" ]; then
        echo "    skipped (DOMINO_SKIP_OBS=1)"
    else
        # An armed run: metrics rings + spans flushed to obs_dir, SLO
        # evaluated (shed_ratio only — the blocking policy never sheds,
        # so this passes on arbitrarily slow hosts where wall-clock p99
        # would not be stable), dashboard rendered once, artifacts
        # re-parsed by the independent Python implementation.
        obs_dir=$(mktemp -d)
        trap 'rm -rf "$smoke_dir" "${bench_dir:-}" "${rivals_out:-}" "${trace_dir:-}" "${check_dir:-}" "${service_dir:-}" "$obs_dir"' EXIT
        cargo run --release -q -p domino-service --bin domino-serve -- \
            --tenants 64 --events 120 --batch 32 --shards 2 --clients 2 \
            --obs "$obs_dir" --obs-interval 256 --span-rate 4 \
            --slo "shed_ratio<=0.5" --fail-on-shed \
            --out "$obs_dir/SERVICE_report.json"
        cargo run --release -q -p domino-service --bin domino-top -- \
            "$obs_dir" --once
        cargo run --release -q -p domino-service --bin domino-top -- \
            "$obs_dir" --once --csv >/dev/null
        if command -v python3 >/dev/null 2>&1; then
            python3 tools/validate_obs.py "$obs_dir"
        else
            echo "    (python3 not found; skipping obs artifact validation)"
        fi
        # The breach path: an unmeetable SLO must flip the exit status.
        if cargo run --release -q -p domino-service --bin domino-serve -- \
            --tenants 8 --events 64 --batch 32 --shards 2 \
            --obs "$obs_dir/breach" --slo "p99_ns<=1" \
            --out "$obs_dir/breach/SERVICE_report.json" >/dev/null 2>&1; then
            echo "    ERROR: --slo 'p99_ns<=1' did not exit nonzero"
            exit 1
        fi
        echo "    breach exit verified (--slo 'p99_ns<=1' failed as required)"
    fi

    mark ingest-smoke
    echo "==> trace ingestion smoke (DOMINO_SKIP_INGEST=1 to skip)"
    if [ "${DOMINO_SKIP_INGEST:-0}" = "1" ]; then
        echo "    skipped (DOMINO_SKIP_INGEST=1)"
    else
        # Synthesize a DMNOTRC1 trace, re-encode it under the Sequitur
        # codec, digest-verify both files decode identically, round-trip
        # through the ChampSim adapter, replay the file through the
        # service load generator, and cross-check the format with the
        # independent stdlib-Python reimplementation.
        ingest_dir=$(mktemp -d)
        trap 'rm -rf "$smoke_dir" "${bench_dir:-}" "${rivals_out:-}" "${trace_dir:-}" "${check_dir:-}" "${service_dir:-}" "${obs_dir:-}" "$ingest_dir"' EXIT
        ingest() { cargo run --release -q -p domino-trace --bin domino-ingest -- "$@"; }
        ingest synth oltp --events 30000 --chunk-events 1000 \
            --out "$ingest_dir/oltp.dmno"
        ingest compress "$ingest_dir/oltp.dmno" "$ingest_dir/oltp.seq.dmno"
        # Chunks are encoded on a write-behind thread; the file must not
        # depend on its timing.
        ingest compress "$ingest_dir/oltp.dmno" "$ingest_dir/oltp.seq2.dmno"
        cmp "$ingest_dir/oltp.seq.dmno" "$ingest_dir/oltp.seq2.dmno"
        ingest verify "$ingest_dir/oltp.dmno" "$ingest_dir/oltp.seq.dmno"
        # A 112-byte file whose header and index claim one Sequitur chunk
        # of 2^32-1 events (tests/degenerate_traces.rs builds the same
        # bytes): verify must exit 1 with an error line, not abort on an
        # allocation sized from the claim.
        hostile="$ingest_dir/hostile.dmno"
        {
            printf 'DMNOTRC1\001\000\000\000\030\000\000\000'
            printf '\377\377\377\377\000\000\000\000\377\377\377\377'
            printf '\001\000\000\000\120\000\000\000\000\000\000\000'
            printf '\001\000\000\000'
            printf '\000\000\000\000\000\000\000\000\000\000\000\000'
            printf '\000\000\000\000\000\000\000\000\000\000\000\000'
            printf '\001\000\000\000\001\000\000\000\000\000\000\000'
            printf '\050\000\000\000\000\000\000\000'
            printf '\050\000\000\000\000\000\000\000\377\377\377\377'
            printf '\000\000\000\000\000\000\000\000\000\000\000\000'
        } >"$hostile"
        [ "$(wc -c <"$hostile")" -eq 112 ]
        status=0
        ingest verify "$hostile" 2>"$ingest_dir/hostile.err" || status=$?
        if [ "$status" -ne 1 ] || ! grep -q "domino-ingest: error:" "$ingest_dir/hostile.err"; then
            echo "    ERROR: verify of a hostile chunk size exited $status:"
            cat "$ingest_dir/hostile.err"
            exit 1
        fi
        echo "    hostile chunk size rejected: $(cat "$ingest_dir/hostile.err")"
        ingest export-champsim "$ingest_dir/oltp.dmno" "$ingest_dir/oltp.champsim"
        ingest champsim "$ingest_dir/oltp.champsim" "$ingest_dir/oltp2.dmno"
        ingest export-champsim "$ingest_dir/oltp2.dmno" "$ingest_dir/oltp2.champsim"
        cmp "$ingest_dir/oltp.champsim" "$ingest_dir/oltp2.champsim"
        cargo run --release -q -p domino-service --bin domino-serve -- \
            --tenants 64 --events 120 --batch 32 --shards 2 --clients 2 \
            --trace-file "$ingest_dir/oltp.seq.dmno" --base-events 30000 \
            --out "$ingest_dir/SERVICE_report.json"
        if command -v python3 >/dev/null 2>&1; then
            python3 tools/validate_ingest.py \
                "$ingest_dir/oltp.dmno" "$ingest_dir/oltp.seq.dmno"
            python3 tools/validate_service.py "$ingest_dir/SERVICE_report.json"
        else
            echo "    (python3 not found; skipping ingest format validation)"
        fi
    fi
fi

echo "check.sh: all clean"
summary
