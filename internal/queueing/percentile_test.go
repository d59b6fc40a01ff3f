package queueing

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func tandemArgs() (PortionShares, ServerCaps, ExecTimes) {
	return PortionShares{Proc: 0.5, Comm: 0.5},
		ServerCaps{Proc: 4, Comm: 2},
		ExecTimes{Proc: 1, Comm: 0.5}
}

func TestTandemSojournTailBoundaries(t *testing.T) {
	sh, caps, ex := tandemArgs()
	tail0, err := tandemSojournTail(sh, caps, ex, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tail0-1) > 1e-12 {
		t.Fatalf("P(T>0) = %v, want 1", tail0)
	}
	tailBig, err := tandemSojournTail(sh, caps, ex, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if tailBig > 1e-12 {
		t.Fatalf("P(T>100) = %v, want ≈0", tailBig)
	}
	if _, err := tandemSojournTail(PortionShares{Proc: 0.1, Comm: 0.5}, caps, ex, 1, 1); !errors.Is(err, errUnstable) {
		t.Fatalf("saturated stage: err = %v", err)
	}
}

func TestTandemSojournTailEqualRates(t *testing.T) {
	// Both stages μ−λ = 1 → Erlang-2 tail (1+t)e^{−t}.
	sh := PortionShares{Proc: 0.5, Comm: 0.5}
	caps := ServerCaps{Proc: 4, Comm: 4}
	ex := ExecTimes{Proc: 1, Comm: 1}
	tail, err := tandemSojournTail(sh, caps, ex, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := 3 * math.Exp(-2)
	if math.Abs(tail-want) > 1e-9 {
		t.Fatalf("Erlang-2 tail = %v, want %v", tail, want)
	}
}

func TestTandemPercentileInvertsTail(t *testing.T) {
	sh, caps, ex := tandemArgs()
	for _, q := range []float64{0.5, 0.9, 0.99} {
		tq, err := TandemSojournPercentile(sh, caps, ex, 1, q)
		if err != nil {
			t.Fatal(err)
		}
		tail, err := tandemSojournTail(sh, caps, ex, 1, tq)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(tail-(1-q)) > 1e-9 {
			t.Fatalf("q=%v: tail(t_q) = %v, want %v", q, tail, 1-q)
		}
	}
	if _, err := TandemSojournPercentile(sh, caps, ex, 1, 1.5); err == nil {
		t.Fatal("q>1 accepted")
	}
}

// Property: the tandem tail is monotone decreasing in t and percentiles
// are monotone increasing in q.
func TestTandemTailMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sh := PortionShares{Proc: 0.3 + 0.6*rng.Float64(), Comm: 0.3 + 0.6*rng.Float64()}
		caps := ServerCaps{Proc: 2 + 4*rng.Float64(), Comm: 2 + 4*rng.Float64()}
		ex := ExecTimes{Proc: 0.4 + 0.6*rng.Float64(), Comm: 0.4 + 0.6*rng.Float64()}
		rate := 0.3 * math.Min(sh.Proc*caps.Proc/ex.Proc, sh.Comm*caps.Comm/ex.Comm)
		t1 := rng.Float64() * 3
		t2 := t1 + 0.1 + rng.Float64()
		a, err1 := tandemSojournTail(sh, caps, ex, rate, t1)
		b, err2 := tandemSojournTail(sh, caps, ex, rate, t2)
		if err1 != nil || err2 != nil {
			return false
		}
		if b > a+1e-12 {
			return false
		}
		p50, err3 := TandemSojournPercentile(sh, caps, ex, rate, 0.5)
		p95, err4 := TandemSojournPercentile(sh, caps, ex, rate, 0.95)
		if err3 != nil || err4 != nil {
			return false
		}
		return p95 > p50
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
