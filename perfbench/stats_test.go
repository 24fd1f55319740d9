package main

import "testing"

func series(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so the helper must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	v, err := percentile(series(200), 0.95)
	if err != nil || v != 190 {
		t.Fatalf("p95 of 1..200 = %v, %v; want 190", v, err)
	}
	v, err = percentile(series(101), 0.5)
	if err != nil || v != 51 {
		t.Fatalf("p50 of 1..101 = %v, %v; want 51", v, err)
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	// p90 of 100 samples has exactly ten beyond it: accepted.
	if _, err := percentile(series(100), 0.90); err != nil {
		t.Fatalf("p90 of 100 samples refused: %v", err)
	}
	// p90 of 99 samples has nine beyond it: refused.
	if _, err := percentile(series(99), 0.90); err == nil {
		t.Fatal("p90 of 99 samples accepted with nine samples beyond it")
	}
	// p95 of 100 samples has five beyond it: refused.
	if _, err := percentile(series(100), 0.95); err == nil {
		t.Fatal("p95 of 100 samples accepted")
	}
	// Ties at the percentile do not count as beyond it.
	xs := make([]float64, 200)
	for i := 185; i < 200; i++ {
		xs[i] = 1
	}
	xs[199] = 2
	if _, err := percentile(xs, 0.95); err == nil {
		t.Fatal("p95 accepted with one sample strictly beyond it")
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Fatal("percentile of no samples accepted")
	}
}

func TestSetPercentileKeepsFirstRefusal(t *testing.T) {
	m := metrics{}
	var err error
	m.setPercentile("a", "ms", series(5), 0.5, &err)
	m.setPercentile("b", "ms", series(200), 0.5, &err)
	if err == nil || m["b"].Value != 100 {
		t.Fatalf("err %v, b %v", err, m["b"])
	}
}
