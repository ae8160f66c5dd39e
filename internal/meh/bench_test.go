package meh

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

func BenchmarkAddD64(b *testing.B) {
	rows := benchRows(4096, 64, 1)
	h := New(1_000_000, 64, 0.1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Add(int64(i), rows[i%len(rows)])
	}
}

func BenchmarkAddD512(b *testing.B) {
	rows := benchRows(1024, 512, 2)
	h := New(1_000_000, 512, 0.1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Add(int64(i), rows[i%len(rows)])
	}
}

func BenchmarkFrobSqEstimate(b *testing.B) {
	rows := benchRows(8192, 32, 4)
	h := New(1_000_000, 32, 0.05)
	for i, r := range rows {
		h.Add(int64(i), r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.FrobSqEstimate()
	}
}
