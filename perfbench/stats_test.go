package main

import (
	"encoding/json"
	"os"
	"testing"
)

// quantileTable is testdata/quantiles.json: a sample with known
// nearest-rank quantiles and the percentile-reporting rule's answers.
type quantileTable struct {
	Samples   []float64 `json:"samples"`
	Median    float64   `json:"median"`
	Quantiles []struct {
		Q     float64 `json:"q"`
		Value float64 `json:"value"`
	} `json:"quantiles"`
	Tail []struct {
		N int     `json:"n"`
		Q float64 `json:"q"`
	} `json:"tail"`
}

func loadQuantileTable(t *testing.T) quantileTable {
	t.Helper()
	data, err := os.ReadFile("testdata/quantiles.json")
	if err != nil {
		t.Fatal(err)
	}
	var tab quantileTable
	if err := json.Unmarshal(data, &tab); err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestQuantilesMatchTable(t *testing.T) {
	tab := loadQuantileTable(t)
	s := sorted(tab.Samples)
	for _, c := range tab.Quantiles {
		if got := quantile(s, c.Q); got != c.Value {
			t.Errorf("quantile(%g) = %g, want %g", c.Q, got, c.Value)
		}
	}
	if got := median(tab.Samples); got != tab.Median {
		t.Errorf("median = %g, want %g", got, tab.Median)
	}
	if got := quantile(nil, 0.5); got == got {
		t.Errorf("quantile of no samples = %g, want NaN", got)
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	tab := loadQuantileTable(t)
	for _, c := range tab.Tail {
		if got := tailQuantile(c.N); got != c.Q {
			t.Errorf("tailQuantile(%d) = %g, want %g", c.N, got, c.Q)
		}
		if c.Q > 0 && c.N-rank(c.N, c.Q) < 10 {
			t.Errorf("n=%d: p%g leaves %d samples beyond it", c.N, 100*c.Q, c.N-rank(c.N, c.Q))
		}
	}
}
