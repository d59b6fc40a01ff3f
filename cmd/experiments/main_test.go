package main

import "testing"

func TestRunRejectsUnknownExperiment(t *testing.T) {
	for _, which := range []string{"frobnicate", "comparators"} {
		if err := run([]string{"-run", which}); err == nil {
			t.Fatalf("unknown experiment %q accepted", which)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-run"}); err == nil {
		t.Fatal("dangling flag accepted")
	}
}
