// `go test -bench` over the experiment registry (internal/experiments,
// DESIGN.md's per-experiment index): every case and every operation a table
// times, as sub-benchmarks named Experiments/<ID>/<name>. `rxbench` renders
// the same registry's tables and gates its baselined cases.
package rx

import (
	"testing"

	"rx/internal/experiments"
)

func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments.Registry() {
		// Fixtures are built inside the experiment's own sub-benchmark, so a
		// -bench filter builds only what it selects.
		b.Run(e.ID, e.Bench)
	}
}
