package tle

import (
	"testing"
	"time"

	"gotle/internal/htm"
	"gotle/internal/memseg"
	"gotle/internal/tm"
)

// calibShapes are the matched access patterns: read r distinct lines (one
// word each, a line apart), then write the first w of them.
var calibShapes = []struct{ r, w int }{
	{1, 0}, {1, 1}, {4, 0}, {4, 1}, {4, 4}, {16, 0}, {16, 1}, {16, 4},
}

// BenchmarkMatchedAccess is the calibration table of DESIGN.md §1: direct
// access under the lock (pthread, the section's directTx), the simulated
// HTM (htm-cv) and the STM (stm-cv) run the same sections through
// Mutex.Do at one thread, every shape of calibShapes b.N times. A least-
// squares fit of ns per section = fixed + read·r + write·w over the shapes
// gives fixed-ns (begin, commit and Mutex.Do itself), read-line-ns (one
// more line read) and write-line-ns (one of those lines written too).
// ns/op is one pass over all the shapes.
func BenchmarkMatchedAccess(b *testing.B) {
	for _, p := range []Policy{PolicyPthread, PolicyHTMCondVar, PolicySTMCondVar} {
		b.Run(p.String(), func(b *testing.B) {
			rt := New(p, Config{MemWords: 1 << 16, HTM: htm.Config{EventAbortPerMillion: -1}})
			mu, th := rt.NewMutex("calib"), rt.NewThread()
			defer th.Release()
			base := rt.Engine().Alloc(16 * memseg.WordsPerLine)
			ns := make([]float64, len(calibShapes))
			b.ResetTimer()
			for k, s := range calibShapes {
				body := func(tx tm.Tx) error {
					var v uint64
					for i := 0; i < s.r; i++ {
						v += tx.Load(base + memseg.Addr(i*memseg.WordsPerLine))
					}
					for i := 0; i < s.w; i++ {
						tx.Store(base+memseg.Addr(i*memseg.WordsPerLine), v+1)
					}
					return nil
				}
				start := time.Now()
				for i := 0; i < b.N; i++ {
					if err := mu.Do(th, body); err != nil {
						b.Fatal(err)
					}
				}
				ns[k] = float64(time.Since(start).Nanoseconds()) / float64(b.N)
			}
			fixed, read, write := fitLineCosts(ns)
			b.ReportMetric(fixed, "fixed-ns")
			b.ReportMetric(read, "read-line-ns")
			b.ReportMetric(write, "write-line-ns")
		})
	}
}

// fitLineCosts solves the normal equations of ns[k] ≈ fixed + read·r + write·w
// over calibShapes by Cramer's rule.
func fitLineCosts(ns []float64) (fixed, read, write float64) {
	var a [3][3]float64
	var y [3]float64
	for k, s := range calibShapes {
		x := [3]float64{1, float64(s.r), float64(s.w)}
		for i := range x {
			for j := range x {
				a[i][j] += x[i] * x[j]
			}
			y[i] += x[i] * ns[k]
		}
	}
	det := func(m [3][3]float64) float64 {
		return m[0][0]*(m[1][1]*m[2][2]-m[1][2]*m[2][1]) -
			m[0][1]*(m[1][0]*m[2][2]-m[1][2]*m[2][0]) +
			m[0][2]*(m[1][0]*m[2][1]-m[1][1]*m[2][0])
	}
	d := det(a)
	var out [3]float64
	for c := range out {
		m := a
		for i := range m {
			m[i][c] = y[i]
		}
		out[c] = det(m) / d
	}
	return out[0], out[1], out[2]
}

// The fit recovers the costs of exact data.
func TestFitLineCosts(t *testing.T) {
	ns := make([]float64, len(calibShapes))
	for k, s := range calibShapes {
		ns[k] = 50 + 7*float64(s.r) + 20*float64(s.w)
	}
	fixed, read, write := fitLineCosts(ns)
	for _, c := range []struct{ got, want float64 }{{fixed, 50}, {read, 7}, {write, 20}} {
		if d := c.got - c.want; d > 1e-9 || d < -1e-9 {
			t.Fatalf("fit = %.6f, %.6f, %.6f; want 50, 7, 20", fixed, read, write)
		}
	}
}
