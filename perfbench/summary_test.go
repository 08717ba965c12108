package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"testing"

	"orderopt/internal/server"
)

// pooledQuantile is the p-quantile over all classes' samples pooled
// together: the summary classQuantile replaces.
func pooledQuantile(classes []classSamples, p float64) float64 {
	var all []float64
	for _, c := range classes {
		all = append(all, c.Samples...)
	}
	sort.Float64s(all)
	return quantile(all, p)
}

func TestQuantileInterpolates(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(s, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

// twoClassRun simulates one run of a closed loop over a 50/50 mix of
// a 1 ms class and a 10 ms class. A loop stopped by the clock ends
// mid-rotation, so the counts differ by a few requests between runs.
func twoClassRun(rng *rand.Rand, n int) []classSamples {
	skew := rng.Intn(11) - 5
	gen := func(center float64, n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = center * (1 + 0.05*rng.NormFloat64())
		}
		return s
	}
	return []classSamples{{"fast", gen(1, n+skew)}, {"slow", gen(10, n-skew)}}
}

func TestClassGeoMeanStablePooledMedianNot(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var geo, pooled []float64
	for run := 0; run < 20; run++ {
		classes := twoClassRun(rng, 500)
		v, ok := classQuantile(classes, 0.5)
		if !ok {
			t.Fatalf("median of 500 samples per class flagged unsupported")
		}
		geo = append(geo, v)
		pooled = append(pooled, pooledQuantile(classes, 0.5))
	}
	spread := func(xs []float64) float64 {
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		return hi/lo - 1
	}
	if s := spread(geo); s > 0.02 {
		t.Errorf("geometric mean of class medians spreads %.1f%% across runs, want < 2%%: %v", 100*s, geo)
	}
	if want := math.Sqrt(10); math.Abs(median(geo)/want-1) > 0.01 {
		t.Errorf("geometric mean of class medians %v, want about %v", median(geo), want)
	}
	if s := spread(pooled); s < 1 {
		t.Errorf("pooled median spreads only %.1f%% across runs; the test no longer shows the gap between classes: %v", 100*s, pooled)
	}
}

func TestP99NeedsTenSamplesBeyond(t *testing.T) {
	if !supported(1000, 0.99) || supported(999, 0.99) {
		t.Errorf("p99 support: 1000 samples leave %d beyond, 999 leave %d", beyond(1000, 0.99), beyond(999, 0.99))
	}
	rng := rand.New(rand.NewSource(2))
	big := twoClassRun(rng, 2000)
	if _, ok := classQuantile(big, 0.99); !ok {
		t.Errorf("p99 over ~2000 samples per class flagged unsupported")
	}
	small := []classSamples{big[0], {"slow", big[1].Samples[:500]}}
	v, ok := classQuantile(small, 0.99)
	if ok {
		t.Errorf("p99 with a class of 500 samples (%d beyond) not flagged", beyond(500, 0.99))
	}
	if math.IsNaN(v) {
		t.Errorf("flagged p99 has no value; the run must still print it")
	}
	if _, ok := classQuantile(small, 0.9); !ok {
		t.Errorf("p90 over 500 samples per class flagged unsupported")
	}
}

func TestParseRowsFrame(t *testing.T) {
	want := [][]int64{{1, -2, 30}, {0, 9223372036854775807, -9}}
	line, err := json.Marshal(server.StreamRows{Frame: server.FrameRows, Rows: want})
	if err != nil {
		t.Fatal(err)
	}
	var got [][]int64
	err = parseRowsFrame(line, func(r []int64) error {
		got = append(got, append([]int64(nil), r...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("got %v, want %v", got, want)
			}
		}
	}
	if err := parseRowsFrame([]byte(`{"frame":"rows","rows":[[1,2]`), func([]int64) error { return nil }); err == nil {
		t.Errorf("truncated frame parsed without error")
	}
}
