package analysis

import "testing"

// BenchmarkJanuslintRepo measures a full self-hosted lint: load every
// production package of the module from source (parse + type-check) and
// run the default nine-analyzer suite — including the whole-program
// call graph the interprocedural checks share — over all of them. This is
// exactly what `make lint` does, so the number tracks the cost of the CI
// gate as the repo and the analyzer suite grow. Run with -benchtime=1x for
// the janusbench_record.txt baseline.
func BenchmarkJanuslintRepo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		l, err := NewLoader(".")
		if err != nil {
			b.Fatal(err)
		}
		pkgs, err := l.LoadTree(l.modRoot)
		if err != nil {
			b.Fatal(err)
		}
		findings := len(RunAll(pkgs, Default()))
		if findings != 0 {
			b.Fatalf("repo must lint clean, got %d findings", findings)
		}
		b.ReportMetric(float64(len(pkgs)), "pkgs/op")
	}
}
