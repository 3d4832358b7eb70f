package topo_test

import (
	"testing"

	"janus/internal/workload"
)

// BenchmarkEndpointsMatching resolves both groups of every policy of the
// fig11 Cwix instance (50 policies, 150 endpoints), as one model build or
// dependency index does.
func BenchmarkEndpointsMatching(b *testing.B) {
	w, err := workload.Generate("Cwix", workload.Spec{Policies: 50, EndpointsPerPolicy: 2, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range w.Graph.Policies {
			w.Topo.EndpointsMatching(p.Src)
			w.Topo.EndpointsMatching(p.Dst)
		}
	}
}
