package pace

import (
	"math"
	"slices"
	"testing"
	"time"
)

func TestPoissonDeterministic(t *testing.T) {
	a := Poisson(7, 20000, 10000)
	b := Poisson(7, 20000, 10000)
	if !slices.Equal(a, b) {
		t.Fatal("same seed gave different due-time sequences")
	}
	if c := Poisson(8, 20000, 10000); slices.Equal(a, c) {
		t.Fatal("different seeds gave the same due-time sequence")
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("due times not monotone at %d: %v < %v", i, a[i], a[i-1])
		}
	}
}

func TestPoissonMeanRate(t *testing.T) {
	for _, rate := range []float64{2000, 5000, 20000} {
		due := Poisson(1, rate, 200000)
		got := float64(len(due)) / due[len(due)-1].Seconds()
		if math.Abs(got-rate)/rate > 0.01 {
			t.Errorf("rate %g: realized %g, more than 1%% off", rate, got)
		}
	}
}

func TestPacerSleepsUntilDue(t *testing.T) {
	p := NewPacer()
	defer p.Close()
	start := time.Now()
	for i := 1; i <= 50; i++ {
		due := start.Add(time.Duration(i) * 200 * time.Microsecond)
		p.SleepUntil(due)
		if now := time.Now(); now.Before(due) {
			t.Fatalf("woke %v before due", due.Sub(now))
		}
	}
}
