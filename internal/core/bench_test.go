package core

import (
	"fmt"
	"testing"

	"perfbase/internal/sqldb"
	"perfbase/internal/value"
)

// BenchmarkCreateRunsGrowth imports one 24-row run — the experiment's
// open, then CreateRuns with a duplicate check — into an experiment
// already holding 0 and 2 000 runs, imported one by one. What grows
// with the catalog is what an import reads of it. Every iteration adds
// its run, so run it with a small fixed count (-benchtime 50x) to keep
// the catalog near its size; deleting the run again instead would
// rewrite pb_runs and make the next scan rebuild its column vectors,
// which no import pays.
func BenchmarkCreateRunsGrowth(b *testing.B) {
	for _, held := range []int{0, 2000} {
		b.Run(fmt.Sprintf("runs=%d", held), func(b *testing.B) {
			s := NewStore(sqldb.NewMemory())
			if err := s.Init(); err != nil {
				b.Fatal(err)
			}
			if _, err := s.CreateExperiment(testDef(b)); err != nil {
				b.Fatal(err)
			}
			e, err := s.OpenExperiment("iotest")
			if err != nil {
				b.Fatal(err)
			}
			runs := make([]NewRun, held)
			for i := range runs {
				src := fmt.Sprintf("held_%d.txt", i)
				runs[i] = NewRun{Once: DataSet{"nodes": value.NewInt(int64(i))}, Rows: setRows(b, e, testSets(1)), Source: src, Checksum: src}
			}
			for i := range runs {
				if _, err := e.CreateRuns(runs[i].Checksum, runs[i:i+1]); err != nil {
					b.Fatal(err)
				}
			}
			rows := setRows(b, e, testSets(24))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e, err := s.OpenExperiment("iotest")
				if err != nil {
					b.Fatal(err)
				}
				src := fmt.Sprintf("new_%d.txt", i)
				run := []NewRun{{Once: DataSet{"fs": value.NewString("nfs")}, Rows: rows, Source: src, Checksum: src}}
				if _, err := e.CreateRuns(src, run); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
