package main

import (
	"strings"

	"stmdiag/internal/obs"
)

// sumCounters adds every counter whose name starts with prefix and ends
// with suffix.
func sumCounters(d obs.Snapshot, prefix, suffix string) uint64 {
	var n uint64
	for name, v := range d.Counters {
		if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
			n += v
		}
	}
	return n
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// layerCounts maps one traced operation's counter deltas onto the
// per-layer count metrics. The vm, cache, pmu and kernel counts are
// modelled-hardware statistics: for a seed they repeat exactly.
func layerCounts(d obs.Snapshot, lm *metrics) {
	c := d.Counter
	lm.set("vm.instrs", float64(sumCounters(d, "vm.instrs.core", "")), "count")
	lm.set("vm.cycles", float64(c("vm.cycles")), "count")
	lm.set("vm.trials", float64(c("vm.runs")), "count")

	lm.set("cbi.predicates_sampled", float64(c("cbi.predicates.sampled")), "count")

	hits, misses := c("cache.hits"), c("cache.misses")
	lm.set("cache.hits", float64(hits), "count")
	lm.set("cache.misses", float64(misses), "count")
	lm.set("cache.hit_ratio", ratio(hits, hits+misses), "ratio")
	lm.set("cache.invalidations", float64(c("cache.invalidations")), "count")
	lm.set("cache.evictions", float64(c("cache.evictions")), "count")
	for _, k := range []string{"rd", "rdx", "upgrade"} {
		lm.set("cache.bus."+k, float64(c("cache.bus."+k)), "count")
	}

	for _, k := range []string{"lbr.pushes", "lbr.evictions", "lbr.toggles", "lcr.pushes", "lcr.evictions", "lcr.drops"} {
		lm.set("pmu."+k, float64(c("pmu."+k)), "count")
	}
	lm.set("kernel.ioctls", float64(sumCounters(d, "kernel.ioctl.", "")), "count")
	lm.set("kernel.lcr.pollution", float64(c("kernel.lcr.pollution")), "count")

	trials, committed := c("harness.pool.trials"), c("harness.pool.committed")
	lm.set("harness.trials", float64(trials), "count")
	lm.set("harness.committed", float64(committed), "count")
	lm.set("harness.discarded", float64(c("harness.pool.discarded")), "count")
	lm.set("harness.useful_ratio", ratio(committed, trials), "ratio")
	lm.set("harness.retries", float64(c("harness.pool.retries")+c("harness.executor.retries")), "count")
	busy := sumCounters(d, "harness.pool.worker", ".busy_ns")
	idle := sumCounters(d, "harness.pool.worker", ".idle_ns")
	lm.set("harness.worker_busy_frac", ratio(busy, busy+idle), "ratio")
	lm.set("harness.commit_stall_ns", float64(c("harness.pool.commit.stall_ns")), "ns")
	for _, ph := range []string{"capture", "rank", "replay"} {
		lm.set("harness.phase."+ph+".cycles", float64(c("prof.phase."+ph+".cycles")), "count")
	}
	for _, k := range []string{"trials", "spawns", "respawns", "timeouts"} {
		lm.set("harness.executor."+k, float64(c("harness.executor."+k)), "count")
	}

	puts := c("artifact.puts")
	lm.set("artifact.puts", float64(puts), "count")
	if puts > 0 {
		lm.set("artifact.put_bytes_per_trial", ratio(c("artifact.put_bytes"), puts), "bytes")
	}
}

// fleetCounts maps a fleet store's and service's counters onto the
// per-layer fleet metrics.
func fleetCounts(d obs.Snapshot, lm *metrics) {
	c := d.Counter
	batches := c("fleet.ingest.batches")
	lm.set("fleet.shard_wait_ns_per_batch", ratio(sumCounters(d, "fleet.store.shard", ".wait_ns"), batches), "ns")
	delta, full := c("fleet.rank.delta_rescores"), c("fleet.rank.full_rescores")
	lm.set("fleet.delta_rescores", float64(delta), "count")
	lm.set("fleet.full_rescores", float64(full), "count")
	lm.set("fleet.events_rescored_per_report", ratio(c("fleet.rank.events_rescored"), delta+full), "count")
	lm.set("fleet.wal_appends", float64(c("fleet.store.wal_appends")), "count")
	lm.set("fleet.ingest_rejected", float64(c("fleet.ingest.rejected")), "count")
}
