#!/usr/bin/env bash
# Pre-PR gate: run everything CI would, in the order that fails fastest.
#
#   scripts/check.sh          # the whole gate, fast test tier (~15 s)
#   scripts/check.sh --quick  # skip the test suite (format/lint only)
#   scripts/check.sh --full   # include tier-2 tests (#[ignore]d slow
#                             # sweeps; minutes, not seconds)
#
# Every command is hermetic: no network, no external toolchain beyond the
# pinned rustc. A clean exit here is the bar for opening a PR; --full is
# the bar for changes that touch simulation semantics.

set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
full=0
case "${1:-}" in
--quick) quick=1 ;;
--full) full=1 ;;
esac

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy (all targets, warnings are errors)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> dibs-lint (simulation-safety static analysis)"
cargo run -q -p dibs-lint --offline -- crates

echo "==> non-test Rust lines (scripts/loc.sh): $(scripts/loc.sh)"

if [[ $quick -eq 0 ]]; then
    if [[ $full -eq 1 ]]; then
        echo "==> cargo test --workspace (full: tier-1 + tier-2)"
        cargo test --workspace --offline -q -- --include-ignored
        echo "==> perf_hotpath --smoke (queue/FIB microbenchmarks, CI-sized)"
        cargo run -q -p dibs-bench --release --offline --bin perf_hotpath -- --smoke
        # Dev profile on purpose: the runtime auditor (conservation ledger,
        # occupancy and TTL checks) only exists under debug assertions.
        echo "==> simtest --smoke (64-seed fault-injection soak, audited dev build)"
        cargo run -q -p dibs-harness --offline --bin simtest -- --smoke
        echo "==> trace smoke (traced incast: valid Chrome JSON, digest unchanged)"
        tmp=$(mktemp -d)
        trap 'rm -rf "$tmp"' EXIT
        cargo run -q -p dibs-cli --release --offline --bin dibs-sim -- \
            --digest scenarios/incast.json | grep '^digest' >"$tmp/untraced"
        cargo run -q -p dibs-cli --release --offline --bin dibs-sim -- \
            --digest --trace all scenarios/incast.json | grep '^digest' >"$tmp/traced"
        if ! diff -u "$tmp/untraced" "$tmp/traced"; then
            echo "FAIL: tracing perturbed the run digest" >&2
            exit 1
        fi
        # dibs-sim only writes the file after its Chrome JSON re-parses
        # through dibs-json, so existence means the exporter validated it;
        # when python3 is around, cross-check with an independent parser.
        chrome=results/trace_incast_dctcpdibs.json
        if [[ ! -f "$chrome" ]]; then
            echo "FAIL: traced run did not export $chrome" >&2
            exit 1
        fi
        if command -v python3 >/dev/null; then
            python3 -m json.tool "$chrome" >/dev/null
        fi
        echo "    digest identical traced vs untraced; Chrome JSON valid"
        # Every figure/table binary at quick scale, so each one's scenario
        # wiring actually runs; repro_all exits nonzero if any binary fails.
        echo "==> repro_all --quick (every figure/table binary, into a temp dir)"
        cargo build -q -p dibs-bench --release --offline --bins
        DIBS_RESULTS_DIR="$tmp" cargo run -q -p dibs-bench --release --offline \
            --bin repro_all -- --quick --jobs 2 >"$tmp/repro_all.log" 2>&1 || {
            tail -n 40 "$tmp/repro_all.log" >&2
            echo "FAIL: repro_all --quick" >&2
            exit 1
        }
        tail -n 1 "$tmp/repro_all.log"
        # fig01/fig02 take no scale, so the quick pass must reproduce the
        # committed records exactly.
        echo "==> trace-built figures (fig01/fig02 JSON matches results/)"
        for fig in fig01_detour_path fig02_detour_timeline; do
            if ! diff -u "results/$fig.json" "$tmp/$fig.json"; then
                echo "FAIL: $fig no longer reproduces results/$fig.json" >&2
                exit 1
            fi
        done
    else
        echo "==> cargo test --workspace (fast tier; --full adds tier-2)"
        cargo test --workspace --offline -q
    fi
    # perfbench is a workspace of its own, so `--workspace` never builds
    # it; a signature change in a crate it drives would otherwise break
    # the benchmark unnoticed.
    echo "==> perfbench (separate workspace: build + tests)"
    cargo test --offline -q --manifest-path perfbench/Cargo.toml
fi

echo "==> all checks passed"
