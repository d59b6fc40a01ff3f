package queueing

import (
	"errors"
	"math"
	"testing"
)

func TestTandemDelayAdditive(t *testing.T) {
	sh := PortionShares{Proc: 0.5, Comm: 0.5}
	caps := ServerCaps{Proc: 4, Comm: 2}
	ex := ExecTimes{Proc: 1, Comm: 0.5}
	// proc: μ = 0.5·4/1 = 2, λ=1 → 1; comm: μ = 0.5·2/0.5 = 2, λ=1 → 1.
	d, err := TandemDelay(sh, caps, ex, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-2) > 1e-12 {
		t.Fatalf("tandem delay = %v, want 2", d)
	}
}

func TestTandemDelayUnstableEitherStage(t *testing.T) {
	caps := ServerCaps{Proc: 4, Comm: 4}
	ex := ExecTimes{Proc: 1, Comm: 1}
	if _, err := TandemDelay(PortionShares{Proc: 0.1, Comm: 0.9}, caps, ex, 1); !errors.Is(err, errUnstable) {
		t.Fatalf("proc-saturated: err = %v, want errUnstable", err)
	}
	if _, err := TandemDelay(PortionShares{Proc: 0.9, Comm: 0.1}, caps, ex, 1); !errors.Is(err, errUnstable) {
		t.Fatalf("comm-saturated: err = %v, want errUnstable", err)
	}
}
