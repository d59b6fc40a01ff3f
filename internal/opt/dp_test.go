package opt

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// combine runs the DP in a fresh scratch.
func combine(values [][]float64, total int) (float64, []int, error) {
	return new(PortionScratch).Combine(values, total)
}

func TestCombinePortionsSingleCandidate(t *testing.T) {
	vals := [][]float64{{0, 1, 3, 4}}
	best, units, err := combine(vals, 3)
	if err != nil {
		t.Fatal(err)
	}
	if best != 4 || units[0] != 3 {
		t.Fatalf("best=%v units=%v, want 4 / [3]", best, units)
	}
}

func TestCombinePortionsSplitBeatsSingle(t *testing.T) {
	// Concave per-candidate values: splitting 2 units as 1+1 (2+2=4) beats
	// 2+0 (3).
	vals := [][]float64{
		{0, 2, 3},
		{0, 2, 3},
	}
	best, units, err := combine(vals, 2)
	if err != nil {
		t.Fatal(err)
	}
	if best != 4 || units[0] != 1 || units[1] != 1 {
		t.Fatalf("best=%v units=%v, want 4 / [1 1]", best, units)
	}
}

func TestCombinePortionsInfeasibleCells(t *testing.T) {
	vals := [][]float64{
		{0, NegInf, NegInf},
		{0, 5, NegInf},
	}
	// Total 2 can only be 1+1, but candidate 0 at 1 unit is infeasible and
	// candidate 1 at 2 units is infeasible → no solution.
	if _, _, err := combine(vals, 2); !errors.Is(err, ErrNoFeasibleCombination) {
		t.Fatalf("err = %v, want ErrNoFeasibleCombination", err)
	}
}

func TestCombinePortionsShortRows(t *testing.T) {
	vals := [][]float64{
		{0, 1}, // can take at most 1 unit
		{0, 1, 10},
	}
	best, units, err := combine(vals, 3)
	if err != nil {
		t.Fatal(err)
	}
	if best != 11 || units[0] != 1 || units[1] != 2 {
		t.Fatalf("best=%v units=%v, want 11 / [1 2]", best, units)
	}
}

func TestCombinePortionsZeroTotal(t *testing.T) {
	best, units, err := combine([][]float64{{0, 1}, {0, 2}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if best != 0 || units[0] != 0 || units[1] != 0 {
		t.Fatalf("best=%v units=%v, want 0 / [0 0]", best, units)
	}
}

func TestCombinePortionsEmpty(t *testing.T) {
	if _, _, err := combine(nil, 1); !errors.Is(err, ErrNoFeasibleCombination) {
		t.Fatalf("err = %v, want ErrNoFeasibleCombination", err)
	}
	if _, units, err := combine(nil, 0); err != nil || units != nil {
		t.Fatalf("empty zero-total should succeed: units=%v err=%v", units, err)
	}
	if _, _, err := combine([][]float64{{0}}, -1); err == nil {
		t.Fatal("negative total should error")
	}
}

// TestCombinePortionsVsBruteForce cross-checks the DP against exhaustive
// enumeration on random small instances.
func TestCombinePortionsVsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 60; trial++ {
		nCand := 1 + rng.Intn(4)
		total := 1 + rng.Intn(6)
		vals := make([][]float64, nCand)
		for s := range vals {
			row := make([]float64, total+1)
			for g := 1; g <= total; g++ {
				if rng.Float64() < 0.15 {
					row[g] = NegInf
				} else {
					row[g] = math.Round(rng.Float64()*200) / 10
				}
			}
			vals[s] = row
		}
		gotBest, gotUnits, gotErr := combine(vals, total)

		// Brute force.
		best := math.Inf(-1)
		var rec func(s, rem int, acc float64)
		rec = func(s, rem int, acc float64) {
			if s == nCand {
				if rem == 0 && acc > best {
					best = acc
				}
				return
			}
			for u := 0; u <= rem; u++ {
				v := vals[s][u]
				if v == NegInf {
					continue
				}
				rec(s+1, rem-u, acc+v)
			}
		}
		rec(0, total, 0)

		if math.IsInf(best, -1) {
			if !errors.Is(gotErr, ErrNoFeasibleCombination) {
				t.Fatalf("trial %d: want infeasible, got best=%v err=%v", trial, gotBest, gotErr)
			}
			continue
		}
		if gotErr != nil {
			t.Fatalf("trial %d: unexpected error %v", trial, gotErr)
		}
		if math.Abs(gotBest-best) > 1e-9 {
			t.Fatalf("trial %d: DP best %v != brute force %v", trial, gotBest, best)
		}
		var sum int
		var check float64
		for s, u := range gotUnits {
			sum += u
			check += vals[s][u]
		}
		if sum != total || math.Abs(check-gotBest) > 1e-9 {
			t.Fatalf("trial %d: reconstruction inconsistent: units=%v sum=%d value=%v best=%v",
				trial, gotUnits, sum, check, gotBest)
		}
	}
}

// TestCombineRejectsOversizedTotal: the back-pointers are int16, so a
// grid beyond math.MaxInt16 units is refused rather than wrapped into an
// infeasible answer.
func TestCombineRejectsOversizedTotal(t *testing.T) {
	for _, total := range []int{math.MaxInt16, math.MaxInt16 + 1} {
		row := make([]float64, total+1)
		row[total] = 1
		best, units, err := combine([][]float64{row}, total)
		if total <= math.MaxInt16 {
			if err != nil || best != 1 || units[0] != total {
				t.Fatalf("total %d: best=%v units=%v err=%v, want 1 / [%d]", total, best, units, err, total)
			}
			continue
		}
		if err == nil || errors.Is(err, ErrNoFeasibleCombination) {
			t.Fatalf("total %d: err = %v, want a grid-size error", total, err)
		}
	}
}

// parentCombine is the DP before identity rows were skipped and rows cut
// at their last feasible cell, kept verbatim (allocating path) as the
// reference the kernel must match bit for bit.
func parentCombine(values [][]float64, total int) (float64, []int, error) {
	if total < 0 {
		return 0, nil, errors.New("opt: negative total")
	}
	if len(values) == 0 {
		if total == 0 {
			return 0, nil, nil
		}
		return 0, nil, ErrNoFeasibleCombination
	}
	dp := make([]float64, total+1)
	next := make([]float64, total+1)
	choice := make([]int16, len(values)*(total+1))
	dp[0] = 0
	for g := 1; g <= total; g++ {
		dp[g] = NegInf
	}

	for s, vals := range values {
		row := choice[s*(total+1) : (s+1)*(total+1)]
		for g := 0; g <= total; g++ {
			next[g] = NegInf
			row[g] = -1
		}
		maxG := len(vals) - 1
		if maxG > total {
			maxG = total
		}
		for g := 0; g <= total; g++ {
			if dp[g] == NegInf {
				continue
			}
			for u := 0; u+g <= total && u <= maxG; u++ {
				v := vals[u]
				if v == NegInf || math.IsNaN(v) {
					continue
				}
				if cand := dp[g] + v; cand > next[g+u] {
					next[g+u] = cand
					row[g+u] = int16(u)
				}
			}
		}
		dp, next = next, dp
	}
	if dp[total] == NegInf {
		return 0, nil, ErrNoFeasibleCombination
	}
	units := make([]int, len(values))
	g := total
	for s := len(values) - 1; s >= 0; s-- {
		u := int(choice[s*(total+1)+g])
		if u < 0 {
			return 0, nil, ErrNoFeasibleCombination
		}
		units[s] = u
		g -= u
	}
	return dp[total], units, nil
}

// checkAgainstParent runs the kernel twice in one scratch (the second run
// sees the first's crossed buffers) and requires both runs to return the
// parent's best bits, units and error.
func checkAgainstParent(t *testing.T, values [][]float64, total int) {
	t.Helper()
	wantBest, wantUnits, wantErr := parentCombine(values, total)
	ps := new(PortionScratch)
	for run := 0; run < 2; run++ {
		best, units, err := ps.Combine(values, total)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) ||
			math.Float64bits(best) != math.Float64bits(wantBest) || !slices.Equal(units, wantUnits) {
			t.Fatalf("run %d, total %d, values %v: (%v, %v, %v), want (%v, %v, %v)",
				run, total, values, best, units, err, wantBest, wantUnits, wantErr)
		}
	}
}

var (
	negZero = math.Copysign(0, -1)
	nan     = math.NaN()
	posInf  = math.Inf(1)
)

type combineCase struct {
	name   string
	values [][]float64
	total  int
}

// combineCases are the differential seeds: identity rows at ±0, NegInf
// and NaN holes mid-row, short, empty and over-long rows, rows sharing
// one backing slice, and small integers that force ties.
func combineCases() []combineCase {
	shared := []float64{0, 2, 4, 6}
	return []combineCase{
		{"identity +0", [][]float64{{0, 3, 5}, {0, NegInf, NegInf}, {0, 2, 4}}, 2},
		{"identity -0", [][]float64{{negZero}, {0, 3, 5}, {negZero, NegInf, nan}, {0, 2, 4}}, 2},
		{"only identity", [][]float64{{0, NegInf}, {negZero}}, 1},
		{"identity zero total", [][]float64{{negZero}, {negZero, 1}}, 0},
		{"nonzero route-nothing", [][]float64{{1.5}, {0, 2, 3}, {-2, NegInf}}, 2},
		{"infeasible route-nothing", [][]float64{{NegInf, 1, 2}, {nan, 4}, {0, 1}}, 3},
		{"holes mid-row", [][]float64{{0, NegInf, 4, nan, 7}, {0, nan, NegInf, 3, 1}}, 4},
		{"trailing holes", [][]float64{{0, 1, NegInf, nan}, {0, 1, 2, nan, NegInf}}, 3},
		{"short rows", [][]float64{{0, 1}, {0}, {0, 1, 10}}, 3},
		{"empty row", [][]float64{{}, {0, 1, 2}}, 2},
		{"all rows empty", [][]float64{{}, {}}, 0},
		{"over-long rows", [][]float64{{0, 1, 2, 3, 4, 5, 6, 7}, {0, 9, 1, 1, 1, 1, 1}}, 3},
		{"shared backing", [][]float64{shared, shared, shared[:2], shared}, 5},
		{"ties", [][]float64{{0, 1, 2, 3}, {0, 1, 2, 3}, {0, 1, 2, 3}}, 3},
		{"ties with zeros", [][]float64{{0, 0, 0}, {negZero, 0, 0}, {0, negZero, 0}}, 2},
		{"integer ties", [][]float64{{0, 2, 3, 5}, {0, 3, 5, 6}, {0, 1, 4, 6}}, 4},
		{"infinite cell", [][]float64{{0, posInf}, {0, 1, 2}, {0, NegInf}}, 2},
		{"infeasible", [][]float64{{0, NegInf, NegInf}, {0, 5, NegInf}}, 2},
		{"no rows", nil, 1},
		{"no rows zero total", nil, 0},
		{"negative total", [][]float64{{0}}, -1},
	}
}

func TestCombineMatchesParent(t *testing.T) {
	for _, c := range combineCases() {
		t.Run(c.name, func(t *testing.T) { checkAgainstParent(t, c.values, c.total) })
	}
	// Random tables in the solver's shape: identity rows, feasible
	// prefixes with holes, and integer values for ties.
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 2000; trial++ {
		total := rng.Intn(13)
		values := make([][]float64, rng.Intn(7))
		for s := range values {
			if s > 0 && rng.Intn(5) == 0 {
				values[s] = values[rng.Intn(s)]
				continue
			}
			row := make([]float64, rng.Intn(total+4))
			for g := range row {
				row[g] = fuzzCell(byte(rng.Intn(256)))
			}
			if len(row) > 0 && rng.Intn(2) == 0 {
				row[0] = 0
			}
			if rng.Intn(3) == 0 {
				for g := 1; g < len(row); g++ {
					row[g] = NegInf
				}
			}
			values[s] = row
		}
		checkAgainstParent(t, values, total)
	}
}

// fuzzCell maps a byte onto a DP cell: the special values, small
// integers (ties), or a fractional value.
func fuzzCell(b byte) float64 {
	switch {
	case b < 16:
		return [...]float64{NegInf, nan, 0, negZero}[b%4]
	case b == 16:
		return posInf
	case b < 128:
		return float64(int(b%9) - 4)
	default:
		return float64(b-128)/7.25 - 5
	}
}

// FuzzCombinePortions decodes a value table from bytes — a row count,
// then per row a length byte (bit 7 set: reuse an earlier row's slice)
// followed by its cells — and requires the parent's answer bit for bit.
func FuzzCombinePortions(f *testing.F) {
	for _, c := range combineCases() {
		if c.total < 0 {
			continue
		}
		data := []byte{byte(len(c.values))}
		for _, row := range c.values {
			data = append(data, byte(len(row)))
			for _, v := range row {
				data = append(data, cellByte(v))
			}
		}
		f.Add(uint8(c.total), data)
	}
	f.Fuzz(func(t *testing.T, total uint8, data []byte) {
		tot := int(total % 24)
		if len(data) == 0 {
			checkAgainstParent(t, nil, tot)
			return
		}
		values := make([][]float64, int(data[0]%8))
		data = data[1:]
		for s := range values {
			if len(data) == 0 {
				values = values[:s]
				break
			}
			hdr := data[0]
			data = data[1:]
			if hdr&0x80 != 0 && s > 0 {
				values[s] = values[int(hdr&0x7f)%s]
				continue
			}
			n := min(int(hdr&0x7f)%32, len(data))
			row := make([]float64, n)
			for g := range row {
				row[g] = fuzzCell(data[g])
			}
			data = data[n:]
			values[s] = row
		}
		checkAgainstParent(t, values, tot)
	})
}

// cellByte is fuzzCell's inverse where one exists (+0 otherwise), so the
// table cases double as fuzz seeds.
func cellByte(v float64) byte {
	switch {
	case v == NegInf:
		return 0
	case math.IsNaN(v):
		return 1
	case v == 0 && math.Signbit(v):
		return 3
	case v == 0:
		return 2
	case v == posInf:
		return 16
	}
	for b := 17; b < 256; b++ {
		if fuzzCell(byte(b)) == v {
			return byte(b)
		}
	}
	return 2
}
