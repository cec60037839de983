package main

import (
	"math"

	"rx/benchmark/gen"
)

// scale is the frozen size of every workload. The full sizes are part of
// the benchmark's definition (README.md "Frozen sizes"); smoke sizes exist
// for the package test only.
//
// A timed phase runs a fixed number of operations, not a fixed time: the
// count is the workload's frozen rate — what the seed commit sustains on
// the reference box — times --seconds, so that the phase takes about
// --seconds there and data sizes, sample counts and device counts are the
// same on both sides of a comparison whatever the speeds.
type scale struct {
	warmOps   int // read operations each stream runs before timing
	probeKeys int // keys the micro-probes sample
	keepSpans int // spans kept for the trace file

	lookupOrders int
	lookupPool   int     // pages
	lookupRate   float64 // operations per second, both drivers together

	scanCols  int
	scanShape gen.ScanShape
	scanPool  int
	scanRate  float64

	writeShape      gen.WriteShape
	writePool       int
	writeRate       float64
	checkpointEvery int
	readBack        int // queries after recovery

	servedBase     int
	servedPool     int
	servedRate     float64 // R, operations per second offered by the open loop
	servedTailRate float64 // closed-loop tail, both connections together
}

// ops is the operation count of a phase of the given rate in a run of
// seconds.
func ops(rate, seconds float64) int { return max(1, int(math.Round(rate*seconds))) }

func scaleFor(cfg config) scale {
	if cfg.smoke {
		return smokeScale
	}
	return fullScale
}

// fullScale is the benchmark. Sizes are frozen: changing one changes what
// every metric means, so a change here is a change of benchmark, made on its
// own and followed by a new baseline.
var fullScale = scale{
	warmOps:   500,
	probeKeys: 10000,
	keepSpans: 200000,

	lookupOrders: 5000, // ≈ 5.5 MB source, ≈ 6 MiB stored
	lookupPool:   8192, // 64 MiB: the corpus fits, zero misses after warm-up
	lookupRate:   4400,

	scanCols:  32,
	scanShape: gen.ScanShape{Orders: 200, Catalogs: 3, Products: 150, Recursive: 20, RecDepth: 8, ArchiveBytes: 100 << 10},
	scanPool:  384, // 3 MiB, about a quarter of the stored data
	scanRate:  520,

	writeShape:      gen.WriteShape{Orders: 3000, Catalogs: 20, Products: 150, Archives: 2, ArchiveBytes: 512 << 10},
	writePool:       4096,
	writeRate:       1200,
	checkpointEvery: 5000,
	readBack:        4000,

	servedBase:     5000,
	servedPool:     4096,
	servedRate:     450,
	servedTailRate: 1800,
}

// smokeScale runs all four workloads in a few seconds for the package test.
var smokeScale = scale{
	warmOps:   50,
	probeKeys: 200,
	keepSpans: 20000,

	lookupOrders: 300,
	lookupPool:   1024,
	lookupRate:   3000,

	scanCols:  4,
	scanShape: gen.ScanShape{Orders: 30, Catalogs: 1, Products: 40, Recursive: 5, RecDepth: 6, ArchiveBytes: 20 << 10},
	scanPool:  64,
	scanRate:  800,

	writeShape:      gen.WriteShape{Orders: 200, Catalogs: 2, Products: 40, Archives: 1, ArchiveBytes: 50 << 10},
	writePool:       1024,
	writeRate:       1000,
	checkpointEvery: 150,
	readBack:        200,

	servedBase:     300,
	servedPool:     1024,
	servedRate:     300,
	servedTailRate: 1000,
}
