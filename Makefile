# Tier-1 gate: everything a PR must keep green (see ROADMAP.md).
check:
	@sh scripts/check.sh

# Records the wall-clock benchmarks as medians with an IQR into
# BENCH_harness.json and BENCH_vm.json (scripts/benchjson); fails if a median
# misses a floor.
bench:
	@go run ./scripts/benchjson

# Seconds-fast recorder pass with short bench times; writes under $$TMPDIR so
# the committed BENCH_*.json files stay untouched. Wired into scripts/check.sh.
bench-smoke:
	@go run ./scripts/benchjson -smoke

microbench:
	go test -bench=. -benchmem ./...

.PHONY: check bench bench-smoke microbench
