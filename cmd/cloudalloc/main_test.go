package main

import (
	"path/filepath"
	"testing"
)

func TestRunRequiresCommand(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("no command accepted")
	}
	if err := run([]string{"frobnicate"}); err == nil {
		t.Fatal("unknown command accepted")
	}
}

func TestGenSolveInspectPipeline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.json")
	if err := runGen([]string{"-out", path, "-clients", "8", "-seed", "2"}); err != nil {
		t.Fatal(err)
	}
	if err := runInspect([]string{"-scenario", path}); err != nil {
		t.Fatal(err)
	}
	if err := runSolve([]string{"-scenario", path, "-method", "proposed"}); err != nil {
		t.Fatal(err)
	}
	if err := runSolve([]string{"-scenario", path, "-method", "ps"}); err != nil {
		t.Fatal(err)
	}
	if err := runSolve([]string{"-scenario", path, "-method", "montecarlo", "-draws", "3"}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveValidation(t *testing.T) {
	if err := runSolve([]string{"-method", "proposed"}); err == nil {
		t.Fatal("missing scenario accepted")
	}
	path := filepath.Join(t.TempDir(), "s.json")
	if err := runGen([]string{"-out", path, "-clients", "5"}); err != nil {
		t.Fatal(err)
	}
	for _, method := range []string{"nope", "annealing"} {
		if err := runSolve([]string{"-scenario", path, "-method", method}); err == nil {
			t.Fatalf("unknown method %q accepted", method)
		}
	}
	if err := runSolve([]string{"-scenario", filepath.Join(t.TempDir(), "missing.json")}); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestInspectValidation(t *testing.T) {
	if err := runInspect(nil); err == nil {
		t.Fatal("missing scenario accepted")
	}
}

func TestGenValidation(t *testing.T) {
	if err := runGen([]string{"-out", filepath.Join(t.TempDir(), "s.json"), "-clients", "0"}); err == nil {
		t.Fatal("zero clients accepted")
	}
}

func TestTraceAndControllerPipeline(t *testing.T) {
	dir := t.TempDir()
	scen := filepath.Join(dir, "s.json")
	trace := filepath.Join(dir, "t.csv")
	if err := runGen([]string{"-out", scen, "-clients", "6", "-seed", "3"}); err != nil {
		t.Fatal(err)
	}
	if err := runTrace([]string{"-scenario", scen, "-out", trace, "-epochs", "4"}); err != nil {
		t.Fatal(err)
	}
	if err := runController([]string{"-scenario", scen, "-trace", trace, "-policy", "threshold:0.2"}); err != nil {
		t.Fatal(err)
	}
	if err := runController([]string{"-scenario", scen, "-trace", trace,
		"-policy", "periodic:2", "-predictor", "ewma:0.5"}); err != nil {
		t.Fatal(err)
	}
}

func TestControllerValidation(t *testing.T) {
	if err := runController([]string{"-policy", "always"}); err == nil {
		t.Fatal("missing paths accepted")
	}
	dir := t.TempDir()
	scen := filepath.Join(dir, "s.json")
	trace := filepath.Join(dir, "t.csv")
	if err := runGen([]string{"-out", scen, "-clients", "4"}); err != nil {
		t.Fatal(err)
	}
	if err := runTrace([]string{"-scenario", scen, "-out", trace, "-epochs", "3"}); err != nil {
		t.Fatal(err)
	}
	if err := runController([]string{"-scenario", scen, "-trace", trace, "-policy", "bogus"}); err == nil {
		t.Fatal("bogus policy accepted")
	}
	if err := runController([]string{"-scenario", scen, "-trace", trace, "-predictor", "bogus:1"}); err == nil {
		t.Fatal("bogus predictor accepted")
	}
	if err := runController([]string{"-scenario", scen, "-trace", trace, "-policy", "threshold:-1"}); err == nil {
		t.Fatal("negative threshold accepted")
	}
	if err := runController([]string{"-scenario", scen, "-trace", trace, "-predictor", "holt:0.5"}); err == nil {
		t.Fatal("holt without beta accepted")
	}
}

// TestParseRejectsNaN: strconv.ParseFloat accepts "NaN", which fails
// every comparison; a threshold of NaN never re-decides.
func TestParseRejectsNaN(t *testing.T) {
	for _, tt := range []struct {
		name string
		err  func() error
	}{
		{"threshold", func() error { _, err := parsePolicy("threshold:NaN"); return err }},
		{"ewma", func() error { _, err := parsePredictor("ewma:NaN"); return err }},
		{"holt", func() error { _, err := parsePredictor("holt:NaN,0.3"); return err }},
	} {
		if tt.err() == nil {
			t.Errorf("%s NaN accepted", tt.name)
		}
	}
}

func TestTraceValidation(t *testing.T) {
	if err := runTrace(nil); err == nil {
		t.Fatal("missing scenario accepted")
	}
}

func TestSolveSaveReplayPipeline(t *testing.T) {
	dir := t.TempDir()
	scen := filepath.Join(dir, "s.json")
	allocPath := filepath.Join(dir, "a.json")
	if err := runGen([]string{"-out", scen, "-clients", "6", "-seed", "4"}); err != nil {
		t.Fatal(err)
	}
	if err := runSolve([]string{"-scenario", scen, "-save", allocPath}); err != nil {
		t.Fatal(err)
	}
	if err := runReplay([]string{"-scenario", scen, "-alloc", allocPath, "-horizon", "500"}); err != nil {
		t.Fatal(err)
	}
	if err := runReplay([]string{"-scenario", scen}); err == nil {
		t.Fatal("missing alloc path accepted")
	}
}
