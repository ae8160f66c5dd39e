package fd

import (
	"math/rand"
	"testing"
)

func benchRows(n, d int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float64, n)
	for i := range rows {
		v := make([]float64, d)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		rows[i] = v
	}
	return rows
}

func BenchmarkUpdateL20D256(b *testing.B) {
	rows := benchRows(4096, 256, 1)
	s := New(20, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Update(rows[i%len(rows)])
	}
}

func BenchmarkUpdateL64D64(b *testing.B) {
	rows := benchRows(4096, 64, 2)
	s := New(64, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Update(rows[i%len(rows)])
	}
}

func BenchmarkMergeL32D128(b *testing.B) {
	rows := benchRows(256, 128, 3)
	mk := func() *Sketch {
		s := New(32, 128)
		for _, r := range rows {
			s.Update(r)
		}
		return s
	}
	s1, s2 := mk(), mk()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s1.Clone().Merge(s2)
	}
}
