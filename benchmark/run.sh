#!/usr/bin/env bash
# One command per run: builds the benchmark from source (a no-op after
# the first run), pins it to one CPU, and hands every argument through.
# The measured binary replaces itself with the traced one on `--trace 1`.
#
#   bash benchmark/run.sh --workload <name> --seed <u64> --seconds <n> --trace <0|1>
#   bash benchmark/run.sh --check
#   bash benchmark/run.sh --aa <n>
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

# Cargo's own output goes to stderr: the last line of stdout is the result.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

# One CPU for the whole process. The udp workloads run four threads that
# wake each other in a chain; spread over two virtual CPUs the kernel's
# placement of them decides the result (12 to 22 us per RPC from run to
# run), on one CPU it does not (11.8 to 12.1). It also makes the figures
# per core, and makes the `steal` column of that CPU's /proc/stat row
# exactly the time this process was kept from running. The last CPU, not
# the first: CPU 0 takes most interrupts.
cpu="$(sed -n 's/^Cpus_allowed_list:[[:space:]]*//p' /proc/self/status 2>/dev/null | sed 's/.*[,-]//')"
if [ -n "$cpu" ] && command -v taskset >/dev/null 2>&1 && taskset -c "$cpu" true 2>/dev/null; then
    exec taskset -c "$cpu" "$target/release/homa-benchmark" "$@"
fi
echo "run.sh: cannot pin to one CPU (no taskset?), running unpinned: expect noisier udp figures" >&2
exec "$target/release/homa-benchmark" "$@"
