#!/bin/sh
# Pins the command-line behaviour of bin/numa_sim.exe at a small scale:
# every subcommand, every flag family, and the usage errors. Each case
# prints its stdout, then `exit=N`, then its stderr; the MD5 of every
# artifact the cases wrote follows at the end. test/dune diffs the result
# against golden/numa_sim_small.txt, so a refactor of the CLI that moves a
# byte of output, an exit status or a message fails `dune runtest`.
#
#   sh test/numa_sim_small.sh _build/default/bin/numa_sim.exe
#
# After an intentional output change, `dune promote` takes the new file.
set -e
exe=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"
case_() {
  echo "=== $*"
  status=0
  "$exe" "$@" 2>stderr.txt || status=$?
  echo "exit=$status"
  cat stderr.txt
}

case_ list
case_ tables
case_ topology all --cpus 4

case_ run primes1 --scale 0.05
case_ run primes3 --policy reconsider:4:50 --cpus 4 --threads 3 --scale 0.05 \
  --seed 7 --scheduler single-queue --unix-master --topology multi-socket
case_ run serve --scale 0.1 --arrival 50000:2 --zipf 0.5 --clients 1000 \
  --rw-mix 0.2 --deadline 2000 --retry 3:0.2:2:0.5 --hedge 2 --breaker 5:1 \
  --trace-out serve.trace.json --metrics-out serve.metrics.csv \
  --report-json serve.report.json --explain-page 3 --profile-out serve.profile.json
case_ run imatmult --scale 0.1 --pages 12 --paranoid --victim lru \
  --pt-mode replicated --faults frame-squeeze:0:0.5@5
# Replicated tables under spurious shootdowns: the trace pins the order
# of the MMU's TLB shootdowns and of the replica PTE shootdowns.
case_ run imatmult --scale 0.05 --cpus 4 --pt-mode replicated \
  --faults spurious-shootdown:0.2 --trace-out shootdown.trace.json \
  --profile-out shootdown.profile.json
# A replica dropped and rebuilt: node 2's table goes with the node and
# comes back ahead of node 6's, so the trace pins the rebuilt order of
# the replica PTE shootdowns and of the page copies' flushes.
case_ run imatmult --scale 0.05 --pt-mode replicated \
  --faults node-offline:2@5,node-online:2@10 --trace-out rebuild.trace.json
# The NUMA manager's placement paths: homed placement, its demotion when
# node 0 drains and the fallbacks after it; kernel page migration; a pin
# with a thread re-homing hint; and pins, cheap-global answers and
# replica flushes under bandwidth-aware placement.
case_ run lopsided-homed --scale 0.2 --paranoid --faults node-offline:0@5 \
  --trace-out homed.trace.json
case_ run rebalance-migrate --scale 0.2 --trace-out migrate.trace.json
case_ run lopsided --scale 0.2 --policy migrate-threads:1 --topology butterfly \
  --trace-out hints.trace.json
case_ run plytrace --scale 0.2 --policy bandwidth-aware:1 --topology butterfly \
  --trace-out bw.trace.json

case_ profile imatmult --scale 0.1 --top 3 --folded-out imatmult.folded \
  --json-out imatmult.profile.json
case_ profile imatmult --scale 0.1 --top 2 --pt-mode replicated \
  --faults stale-pte:3@100

case_ measure imatmult --scale 0.1 --cpus 4 --topology multi-socket
case_ measure serve --scale 0.1 --zipf 1.2 --deadline 3000
case_ measure imatmult --scale 0.1 --pt-mode replicated --faults stale-pte:3@100

case_ trace primes3 --scale 0.05 --cpus 4 -o primes3.trace
case_ replay primes3.trace --cpus 4

case_ run no-such-app
case_ run primes1 --zipf 0.5
case_ run serve --zipf=-1
case_ run serve --clients 0
case_ run serve --rw-mix 1.5
case_ run serve --deadline 0
case_ run primes1 --policy bogus
case_ run primes1 --faults bogus
case_ run primes1 --topology hypercube
case_ run primes1 --pt-mode bogus
case_ run primes1 --victim bogus
case_ run primes1 --scheduler bogus
case_ run serve --arrival bogus
case_ run serve --retry bogus
case_ run serve --hedge bogus
case_ run serve --breaker bogus
case_ run primes1 --scale 0.05 --cpus 4 --faults node-offline:9@1
case_ run primes1 --scale 0.05 --pages 0
case_ run primes1 --scale 0.05 --cpus 0
case_ measure primes1 --scale 0.05 --cpus 0
case_ trace primes1 --scale 0.05 --cpus 0 -o primes1.trace
case_ replay primes3.trace --cpus 0
case_ topology --cpus 0
case_ topology all --cpus 0
case_ run primes1 --scale 0.05 --threads 0
case_ measure primes1 --scale 0.05 --threads=-1

echo "=== artifacts"
md5sum serve.trace.json serve.metrics.csv serve.report.json serve.profile.json \
  imatmult.folded imatmult.profile.json primes3.trace shootdown.trace.json \
  shootdown.profile.json homed.trace.json migrate.trace.json hints.trace.json \
  bw.trace.json rebuild.trace.json
