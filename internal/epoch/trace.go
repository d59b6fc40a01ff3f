package epoch

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
)

// A Trace is a per-epoch, per-client matrix of actual arrival rates:
// Trace[e][i] is client i's rate during epoch e.
type Trace [][]float64

// Validate checks the trace shape against a client count.
func (tr Trace) Validate(numClients int) error {
	if len(tr) == 0 {
		return fmt.Errorf("epoch: empty trace")
	}
	for e, row := range tr {
		if len(row) != numClients {
			return fmt.Errorf("epoch: trace epoch %d has %d clients, want %d", e, len(row), numClients)
		}
		for i, r := range row {
			if r <= 0 || math.IsNaN(r) || math.IsInf(r, 0) {
				return fmt.Errorf("epoch: trace[%d][%d] = %v", e, i, r)
			}
		}
	}
	return nil
}

// Pattern shapes a client's rate over epochs, multiplying its base rate.
type Pattern interface {
	// Factor returns the multiplicative rate factor at epoch e for client i.
	Factor(e int, client int) float64
}

// Diurnal is a day/night sinusoid: factor = 1 + Amplitude·sin(2π(e+Phase)/Period).
type Diurnal struct {
	Period    int
	Amplitude float64
	// Phase staggers clients: client i is shifted by Phase·i epochs.
	Phase float64
}

// Factor implements Pattern.
func (p Diurnal) Factor(e, client int) float64 {
	if p.Period <= 0 {
		return 1
	}
	x := 2 * math.Pi * (float64(e) + p.Phase*float64(client)) / float64(p.Period)
	f := 1 + p.Amplitude*math.Sin(x)
	if f < 0.05 {
		f = 0.05
	}
	return f
}

// FlashCrowd multiplies the rate by Factor for epochs in [At, At+Duration).
type FlashCrowd struct {
	At       int
	Duration int
	Boost    float64
	// Clients restricts the crowd to client indices i with i%Every == 0;
	// Every ≤ 1 hits everyone.
	Every int
}

// Factor implements Pattern.
func (p FlashCrowd) Factor(e, client int) float64 {
	if e < p.At || e >= p.At+p.Duration {
		return 1
	}
	if p.Every > 1 && client%p.Every != 0 {
		return 1
	}
	return p.Boost
}

// GenerateTrace builds a trace for the given base rates: per epoch, the
// product of all pattern factors times multiplicative lognormal noise.
func GenerateTrace(base []float64, epochs int, patterns []Pattern, noiseSigma float64, seed int64) (Trace, error) {
	if epochs <= 0 {
		return nil, fmt.Errorf("epoch: epochs = %d", epochs)
	}
	if len(base) == 0 {
		return nil, fmt.Errorf("epoch: no base rates")
	}
	if !(noiseSigma >= 0) || math.IsInf(noiseSigma, 1) {
		return nil, fmt.Errorf("epoch: noiseSigma = %v", noiseSigma)
	}
	rng := rand.New(rand.NewSource(seed))
	tr := make(Trace, epochs)
	for e := 0; e < epochs; e++ {
		row := make([]float64, len(base))
		for i, b := range base {
			f := 1.0
			for _, p := range patterns {
				f *= p.Factor(e, i)
			}
			if noiseSigma > 0 {
				f *= math.Exp(rng.NormFloat64() * noiseSigma)
			}
			r := b * f
			if r < 1e-6 {
				r = 1e-6
			}
			row[i] = r
		}
		tr[e] = row
	}
	return tr, nil
}

// WriteCSV serializes the trace, one epoch per row.
func (tr Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	for _, row := range tr {
		rec := make([]string, len(row))
		for i, v := range row {
			rec[i] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("epoch: write trace: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("epoch: write trace: %w", err)
	}
	return nil
}

// ReadCSV parses a trace written by WriteCSV.
func ReadCSV(r io.Reader) (Trace, error) {
	cr := csv.NewReader(r)
	var tr Trace
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("epoch: read trace: %w", err)
		}
		row := make([]float64, len(rec))
		for i, s := range rec {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return nil, fmt.Errorf("epoch: read trace: %w", err)
			}
			row[i] = v
		}
		tr = append(tr, row)
	}
	if len(tr) == 0 {
		return nil, fmt.Errorf("epoch: empty trace")
	}
	return tr, nil
}
