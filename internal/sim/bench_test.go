package sim

import (
	"testing"

	"gsched/internal/machine"
	"gsched/internal/workload"
)

// BenchmarkRun times the execute loop: each of the four proxies, as
// compiled, run on the RS/6000 model. ns/instr is the time per executed
// instruction.
func BenchmarkRun(b *testing.B) {
	for _, w := range workload.All() {
		b.Run(w.Name, func(b *testing.B) {
			p, err := w.Compile()
			if err != nil {
				b.Fatal(err)
			}
			m, err := Load(p)
			if err != nil {
				b.Fatal(err)
			}
			opts := Options{Machine: machine.RS6K(), ForgivingLoads: true}
			var instrs int64
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				res, err := m.Run(w.Entry, w.Args, w.Data, opts)
				if err != nil {
					b.Fatal(err)
				}
				instrs += res.Instrs
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
		})
	}
}
