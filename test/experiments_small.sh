#!/bin/sh
# Pins the text and JSON output of bin/experiments.exe at a small scale:
# `all` plus every sweep that writes a JSON artifact, each section's
# stdout followed by the MD5 of every artifact, and the bad-machine
# usage error with its exit status and stderr. test/dune diffs the result
# against golden/experiments_small.txt, so a refactor of the experiment
# layer that moves a single byte fails `dune runtest`.
#
#   sh test/experiments_small.sh _build/default/bin/experiments.exe
#
# After an intentional output change, `dune promote` takes the new file.
set -e
exe=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"
sections="all chaos-sweep pressure-sweep pt-sweep serve-sweep resilience-sweep"
for section in $sections; do
  echo "=== $section"
  "$exe" "$section" --scale 0.02 -j 2 --apps primes1 --json-out "$section.json"
done
# A bad machine is a usage error: one line on stderr and exit 1.
for section in figure1 topology-sweep; do
  echo "=== $section --cpus 0"
  status=0
  "$exe" "$section" --cpus 0 2>stderr.txt || status=$?
  echo "exit=$status"
  cat stderr.txt
done
echo "=== artifacts"
for section in $sections; do
  md5sum "$section.json"
done
